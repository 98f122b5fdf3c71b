"""Hypergeometric evaluation, gamma helpers and the partition bookkeeping."""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from finitenet import InvalidParameterError, gauss_2f1, ln_gamma
from finitenet.specfun import enumerate_weighted_partitions

# Reference values computed with 30-digit arbitrary-precision arithmetic and
# frozen here. Arguments follow the patterns the moment integrals produce:
# a = m or 2/alpha + m, c = a + 1 type offsets, z real negative (real shapes)
# or complex with negative real part (transform nodes).
F21_GOLDENS = [
    ((2.5, 19.0 / 6.0, 25.0 / 6.0, -17.3),
     0.00219611649425871671692),
    ((1.0, 1.5, 2.5, -1.0e6),
     2.995290611018615310742e-6),
    ((3.0, 3.8, 4.8, -0.37),
     0.4698434759741184492774),
    ((0.5, 5.0 / 6.0, 11.0 / 6.0, -42.0),
     0.2923352928957128766909),
    ((1.5, 2.0, 3.0, -3.2e4 + 2.7e4j),
     2.310255148155725663436e-7 + 4.008149422235951519894e-7j),
    ((1.0, 1.8, 2.8, -8.0 + 15.0j),
     0.06670719108962656757498 + 0.08806931402037578259978j),
    ((2.0, 1.0, 3.0, -500.0),
     0.003950267151191321081611),
    # b - a integer: the degenerate-expansion fallback path
    ((3.0, 4.0, 4.0, -500.0),
     7.952191361914638299228e-9),
]


def test_2f1_frozen_values():
    for (a, b, c, z), truth in F21_GOLDENS:
        got = gauss_2f1(a, b, c, z)
        assert abs(got - truth) <= 1e-12 * abs(truth), (a, b, c, z)


def test_2f1_at_zero_is_one():
    assert gauss_2f1(1.7, 0.3, 2.9, 0.0) == 1.0


def test_2f1_log_reduction():
    # 2F1(1, 1; 2; z) = -ln(1 - z) / z
    for z in (-0.3, -3.0, -80.0, -1e4):
        truth = -math.log1p(-z) / z
        assert abs(gauss_2f1(1.0, 1.0, 2.0, z) - truth) < 1e-12 * abs(truth)


def test_2f1_binomial_reduction():
    # 2F1(a, b; b; z) = (1 - z)^{-a}, any b
    for a, z in ((1.5, -7.0), (3.0, -0.2), (0.5, -900.0)):
        truth = (1.0 - z) ** (-a)
        assert abs(gauss_2f1(a, 2.2, 2.2, z) - truth) < 1e-12 * abs(truth)


def test_2f1_invalid_arguments():
    with pytest.raises(InvalidParameterError):
        gauss_2f1(1.0, 2.0, 0.0, -0.5)
    with pytest.raises(InvalidParameterError):
        gauss_2f1(1.0, 2.0, -3.0, -0.5)
    with pytest.raises(InvalidParameterError):
        gauss_2f1(1.0, 2.0, 3.0, 1.0)
    with pytest.raises(InvalidParameterError):
        gauss_2f1(1.0, 2.0, 3.0, 2.5)


def test_2f1_contiguous_relation():
    # (c - a) F(a-1) + (2a - c + (b - a) z) F(a) + a (z - 1) F(a+1) = 0,
    # checked over the parameter patterns the moment integrals use.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        m = rng.uniform(0.5, 10.0)
        alpha = rng.uniform(2.0, 6.0)
        tau = rng.integers(0, 4)
        a = 2.0 / alpha + m
        b = m + float(tau)
        c = 1.0 + 2.0 / alpha + m
        z = -(10.0 ** rng.uniform(-4.0, 6.0))
        f_am = gauss_2f1(a - 1.0, b, c, z)
        f_a = gauss_2f1(a, b, c, z)
        f_ap = gauss_2f1(a + 1.0, b, c, z)
        t1 = (c - a) * f_am
        t2 = (2.0 * a - c + (b - a) * z) * f_a
        t3 = a * (z - 1.0) * f_ap
        scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
        residual = abs(t1 + t2 + t3) / scale
        worst = max(worst, residual)
    assert worst <= 1e-9, worst


def test_ln_gamma_values_and_recurrence():
    assert ln_gamma(1.0) == 0.0
    assert abs(ln_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-15
    for x in np.linspace(0.1, 50.0, 117):
        lhs = ln_gamma(x + 1.0) - ln_gamma(x)
        assert abs(lhs - math.log(x)) <= 1e-12 * max(1.0, abs(lhs))
    with pytest.raises(InvalidParameterError):
        ln_gamma(0.0)
    with pytest.raises(InvalidParameterError):
        ln_gamma(-2.5)


# ----- partition enumeration -----

def test_partitions_of_zero():
    terms = enumerate_weighted_partitions(0, 5)
    assert len(terms) == 1
    assert terms[0].parts == ()
    assert terms[0].arrangement_count == 1
    assert terms[0].multinomial_weight == 1


def test_partitions_j2_three_nodes():
    terms = {t.parts: t for t in enumerate_weighted_partitions(2, 3)}
    assert set(terms) == {(2,), (1, 1)}
    assert terms[(2,)].arrangement_count == 3
    assert terms[(2,)].multinomial_weight == 1
    assert terms[(1, 1)].arrangement_count == 3
    assert terms[(1, 1)].multinomial_weight == 2


def test_partition_arrangements_count_compositions():
    # summing the placement counts over all partitions of j recovers the
    # stars-and-bars count of weak compositions of j into M labeled parts
    terms = enumerate_weighted_partitions(4, 10)
    total = sum(t.arrangement_count for t in terms)
    assert total == math.comb(4 + 10 - 1, 4) == 715


def _compositions(j, parts):
    if parts == 1:
        yield (j,)
        return
    for first in range(j + 1):
        for rest in _compositions(j - first, parts - 1):
            yield (first,) + rest


def test_partition_collapse_equals_composition_sum():
    # sum over weak compositions (t_1..t_M) of j of
    #   j!/(t_1!..t_M!) prod f(t_i)
    # must equal the collapsed partition sum for arbitrary positive f.
    rng = np.random.default_rng(42)
    for rep in range(20):
        f = rng.uniform(0.1, 2.0, size=9)
        for j, M in product(range(7), range(1, 9)):
            brute = 0.0
            for comp in _compositions(j, M):
                w = math.factorial(j)
                prod = 1.0
                for t in comp:
                    w //= math.factorial(t)
                    prod *= f[t]
                brute += w * prod
            collapsed = 0.0
            for term in enumerate_weighted_partitions(j, M):
                prod = 1.0
                for t in term.parts:
                    prod *= f[t]
                collapsed += (term.arrangement_count * term.multinomial_weight
                              * prod * f[0] ** (M - len(term.parts)))
            assert abs(collapsed - brute) <= 1e-12 * max(1.0, abs(brute)), \
                (rep, j, M)


def test_partition_invalid_requests():
    with pytest.raises(InvalidParameterError):
        enumerate_weighted_partitions(-1, 3)
    with pytest.raises(InvalidParameterError):
        enumerate_weighted_partitions(2, -1)


def test_placement_counts_at_the_largest_interferer_count():
    # M = 2^53: k parts take M!/(M-k)! = perm(M, k) ordered node choices,
    # divided by the orderings of equal parts
    M = 2 ** 53
    for j in range(7):
        terms = enumerate_weighted_partitions(j, M)
        for t in terms:
            want = math.perm(M, len(t.parts))
            for mult in Counter(t.parts).values():
                want //= math.factorial(mult)
            assert t.arrangement_count == want, t.parts
        # stars and bars: the weak compositions of j into M labeled parts
        assert sum(t.arrangement_count for t in terms) \
            == math.comb(j + M - 1, j)
    terms = {t.parts: t for t in enumerate_weighted_partitions(3, M)}
    assert terms[(1, 1, 1)].arrangement_count == M * (M - 1) * (M - 2) // 6
    assert terms[(2, 1)].arrangement_count == M * (M - 1)
    assert terms[(3,)].arrangement_count == M


def test_partitions_skip_overlong_parts():
    # j = 3 onto 2 nodes: (1,1,1) needs three nodes and must be absent
    parts = {t.parts for t in enumerate_weighted_partitions(3, 2)}
    assert parts == {(3,), (2, 1)}
