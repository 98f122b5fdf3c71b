"""Integer-shape outage engine: moment integrals, the power-series assembly
against the partition and composition sums, the general
exponential-polynomial reference law, and physical sanity bounds."""

import math
import warnings
from dataclasses import fields
from itertools import product

import numpy as np
import pytest

from finitenet import (InvalidParameterError, NakagamiChannel, NumericFailure,
                       Scenario, UnsupportedModelError, disk_region,
                       distance_profile, general_fading_cdf,
                       make_fig2_region, make_regular_polygon,
                       nakagami_as_general_cdf, outage_disk_center,
                       outage_general_family, outage_mgf, outage_rlpg,
                       outage_rlpg_for_counts, rlpg, simulate_outage)
from finitenet.montecarlo import sample_uniform_in_region
from finitenet.rlpg import (_clamp_unit, _constant_piece,
                            _interference_moment_sums, _omega_values,
                            omega_expectation_table)
from finitenet.specfun import enumerate_weighted_partitions

from fading_oracles import nakagami_reference_cdf
from scalar_quad import adaptive_quad
from seeded_cases import check_cases


def _scenario(region, receiver, m0, m, alpha=3.0, r0=5.0, M=10, beta=1.0,
              rho0=100.0):
    return Scenario(region=region, receiver=receiver, r0=r0,
                    num_interferers=M, channel=NakagamiChannel(m0=m0, m=m),
                    alpha=alpha, beta=beta, rho0=rho0)


# ----- per-interferer moments -----

def test_omega_zero_tends_to_one_as_threshold_vanishes():
    prof = distance_profile(disk_region((0, 0), 10.0), (0, 0))
    # alpha = 4, m = 1 disk center: 1 - E = (sqrt c / W^2) arctan(W^2 / sqrt c)
    W, r0 = 10.0, 2.0
    for beta in (1e-4, 1e-6, 1e-8):
        c = beta * r0 ** 4
        got = _omega_values(prof, [0], 1.0, 4.0, c)[0]
        truth = 1.0 - (math.sqrt(c) / W ** 2) * math.atan(W ** 2 / math.sqrt(c))
        assert got <= 1.0
        assert abs(got - truth) < 1e-11, beta
        # leading small-threshold law
        assert abs((1.0 - got) - (math.pi / 2) * math.sqrt(c) / W ** 2) \
            <= 2.0 * c / W ** 4 + 1e-11


def test_omega_decreases_with_threshold():
    prof = distance_profile(make_fig2_region(50.0), (20.0, 20.0))
    # m = 2, alpha = 2.5, tilt c = beta r0^alpha m0 with r0 = 5, m0 = 3
    vals = [_omega_values(prof, [0], 2.0, 2.5, b * 5.0 ** 2.5 * 3)[0]
            for b in (0.1, 0.5, 1.0, 3.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    vals1 = [_omega_values(prof, [1], 2.0, 2.5, b * 5.0 ** 2.5 * 3)[0]
             for b in (0.1, 1.0, 10.0)]
    assert all(a > b for a, b in zip(vals1, vals1[1:]))


def test_omega_fig2_vertex_against_gain_distance_simulation():
    # direct sample average of exp(-beta r0^alpha G R^{-alpha}) with G
    # exponential and R the distance from the (sqrt3 W, 0) vertex
    W, r0, alpha, beta = 100.0, 5.0, 2.5, 1.0
    reg = make_fig2_region(W)
    v2 = reg.vertices[1]
    prof = distance_profile(reg, v2)
    got = _omega_values(prof, [0], 1.0, alpha, beta * r0 ** alpha)[0]

    rng = np.random.default_rng(60451)
    n = 10 ** 7
    pts = sample_uniform_in_region(reg, rng, size=n)
    dist = np.hypot(pts[:, 0] - v2[0], pts[:, 1] - v2[1])
    draws = np.exp(-beta * r0 ** alpha * rng.exponential(1.0, n)
                   * dist ** -alpha)
    mc = float(draws.mean())
    se = float(draws.std(ddof=1)) / math.sqrt(n)
    assert abs(got - mc) <= 3.0 * se


def test_moment_table_cached_fields():
    sc = _scenario(disk_region((0, 0), 50.0), (10.0, 0.0), m0=3, m=2.0)
    table = omega_expectation_table(sc)
    assert isinstance(table, tuple) and len(table) == 3
    assert all(v > 0 for v in table)
    assert table[0] <= 1.0


# ----- closed-form moment pieces -----

def test_psi_zero_radius():
    assert _constant_piece(2 * math.pi, 0.0, 0, 1.0, 3.0, 5.0 ** 3,
                           math.pi * 100.0) == 0.0


def test_psi_elementary_reduction():
    # tau = 0, m = 1, alpha = 4: the moment piece integrates in closed form to
    # (theta/area) (u^2/2 - (sqrt c / 2) arctan(u^2 / sqrt c)), c = beta r0^4
    theta, u, r0, beta, area = 2 * math.pi, 10.0, 2.0, 0.7, math.pi * 100.0
    c = beta * r0 ** 4
    got = _constant_piece(theta, u, 0, 1.0, 4.0, c, area)
    truth = (theta / area) * (u * u / 2.0
                              - 0.5 * math.sqrt(c) * math.atan(u * u / math.sqrt(c)))
    assert abs(got - truth) < 1e-12


def test_psi_general_shape_against_quadrature():
    theta, u, area = 1.3, 40.0, 5000.0
    m, tau, m0, alpha, r0, beta = 2.5, 1, 3, 3.0, 5.0, 1.0
    c = beta * r0 ** alpha * m0
    lg = math.gamma(m + tau) / math.gamma(m)

    def f(r):
        rr = np.maximum(r, 1e-300)
        return (theta * r / area) * lg * np.exp(
            m * math.log(m) + alpha * m * np.log(rr)
            - (m + tau) * np.log(m * rr ** alpha + c))

    truth, _ = adaptive_quad(f, 0.0, u, rel_tol=1e-13)
    got = _constant_piece(theta, u, tau, m, alpha, c, area)
    assert abs(got - truth) <= 1e-11 * abs(truth)


# ----- outage assembly -----

def test_rayleigh_outage_collapses_to_single_product():
    sc = _scenario(make_regular_polygon(6, 60.0), (5.0, -3.0), m0=1, m=1.0,
                   alpha=2.5)
    omega0 = _omega_values(sc.profile(), [0], 1.0, sc.alpha,
                           sc.beta * sc.r0 ** sc.alpha)[0]
    expect = 1.0 - math.exp(-sc.beta / sc.rho0) * omega0 ** sc.num_interferers
    assert abs(outage_rlpg(sc).outage - expect) < 1e-12


def test_no_interferers_reduces_to_reference_cdf():
    for m0 in (1, 2, 4):
        sc = _scenario(disk_region((0, 0), 30.0), (0, 0), m0=m0, m=1.0, M=0)
        got = outage_rlpg(sc).outage
        truth = float(nakagami_reference_cdf(float(m0), sc.beta / sc.rho0))
        assert abs(got - truth) < 1e-12, m0


def test_disk_center_shortcut_matches_general_path():
    W, r0, M, alpha, beta, rho0 = 100.0, 5.0, 13, 2.5, 1.0, 100.0
    for m0, m in ((1, 1.0), (3, 3.0), (2, 0.5)):
        direct = outage_disk_center(W, r0, M, m0, m, alpha, beta, rho0)
        sc = _scenario(disk_region((0, 0), W), (0, 0), m0=m0, m=m,
                       alpha=alpha, r0=r0, M=M, beta=beta, rho0=rho0)
        assert direct.outage == outage_rlpg(sc).outage, (m0, m)


def test_receiver_validated_once_per_outage(monkeypatch):
    import finitenet.geometry as geometry
    reg = make_fig2_region(100.0)
    sc = _scenario(reg, reg.vertices[1], m0=1, m=1.0, alpha=4.0)
    calls = []
    contains = geometry.region_contains

    def counted(*args, **kwargs):
        calls.append(args)
        return contains(*args, **kwargs)

    monkeypatch.setattr(geometry, "region_contains", counted)
    for engine in (outage_rlpg, outage_mgf):
        calls.clear()
        engine(sc)
        assert len(calls) == 1, engine.__name__


def test_outage_for_counts_matches_individual_calls():
    sc = _scenario(disk_region((0, 0), 100.0), (25.0, 0.0), m0=2, m=2.0)
    counts = [0, 1, 5, 14]
    batch = outage_rlpg_for_counts(sc, counts)
    for num, eps in zip(counts, batch):
        sc_n = _scenario(disk_region((0, 0), 100.0), (25.0, 0.0), m0=2,
                         m=2.0, M=num)
        assert abs(eps - outage_rlpg(sc_n).outage) < 1e-14
    with pytest.raises(InvalidParameterError):
        outage_rlpg_for_counts(sc, [1.5])


def test_large_interferer_counts():
    # a million Rayleigh interferers drown the link
    sc = _scenario(disk_region((0, 0), 100.0), (25.0, 0.0), m0=1, m=1.0,
                   M=10 ** 6)
    assert outage_rlpg(sc).outage == 1.0
    # at M = 2^53 and m0 = 25, e0^M is about 10^(-1.8e14) while the
    # normalized coefficients j! c_j stay below 10^263: every S_j is 0 in
    # double precision and the outage is 1
    sc = _scenario(disk_region((0, 0), 100.0), (25.0, 0.0), m0=25, m=1.0,
                   M=2 ** 53)
    assert outage_rlpg(sc).outage == 1.0
    # with r0 = 0.1 and alpha = 6, j! c_j reaches about 10^351: refused
    sc = _scenario(disk_region((0, 0), 100.0), (25.0, 0.0), m0=25, m=1.0,
                   alpha=6.0, r0=0.1, M=2 ** 53)
    with pytest.raises(NumericFailure, match="float range"):
        outage_rlpg(sc)
    # a quadrature e0 a rounding above 1 makes e0^M overflow at M = 2^53
    with pytest.raises(NumericFailure, match="float range"):
        _interference_moment_sums([1.0 + 1e-12, 1.0], 2 ** 53, 1)


def test_moment_sums_stop_where_factorials_leave_the_float_range():
    # 170! is the last float factorial: orders up to 170 (m0 = 171) are
    # summed, at any count, and order 171 is refused by name, even at M = 0
    sums = _interference_moment_sums([0.5] * 171, 0, 170)
    assert sums == [1.0] + [0.0] * 170
    assert all(0.0 < s < math.inf
               for s in _interference_moment_sums([0.5] * 171, 3, 170))
    for num_interferers in (0, 3):
        with pytest.raises(NumericFailure, match=r"m0 <= 171"):
            _interference_moment_sums([0.5] * 172, num_interferers, 171)
    # before the moment table is built: at m0 = 2^53 its range alone
    # would not fit in memory
    for m0 in (172, 2 ** 53):
        sc = _scenario(disk_region((0, 0), 100.0), (25.0, 0.0), m0=m0,
                       m=1.0, alpha=2.0, r0=0.1, M=5)
        with pytest.raises(NumericFailure, match=r"m0 <= 171"):
            outage_rlpg(sc)


def _partition_moment_sums(values, num_interferers, max_j):
    """S_j summed over the partitions of j, each weighted by its node
    placements and multinomial coefficient: the reference form of the
    interference moment sums."""
    e0 = values[0]
    return [math.fsum(term.arrangement_count * term.multinomial_weight
                      * math.prod(values[t] for t in term.parts)
                      * e0 ** (num_interferers - len(term.parts))
                      for term in enumerate_weighted_partitions(
                          j, num_interferers))
            for j in range(max_j + 1)]


def _moment_tables(draw):
    """A random positive table of m0 <= 30 moments and an interferer count:
    M <= 59, or one in eight near 10^6 with the table's tilt scaled to
    1/M so that the sums neither underflow nor overflow."""
    m0 = round(draw.log_floats(1.0, 30.0))
    if draw.integers(0, 7):
        M = draw.integers(0, 59)
        values = [draw.floats(0.01, 1.0)] + [draw.log_floats(1e-3, 1e3)
                                             for _ in range(1, m0)]
    else:
        M = draw.integers(10 ** 6 - 10, 10 ** 6 + 10)
        e0 = math.exp(-draw.floats(0.1, 20.0) / M)
        values = [e0] + [e0 * math.factorial(t) * draw.log_floats(0.1, 10.0)
                         / M for t in range(1, m0)]
    return values, M


def _check_moment_sums(values, num_interferers):
    max_j = len(values) - 1
    got = _interference_moment_sums(values, num_interferers, max_j)
    want = _partition_moment_sums(values, num_interferers, max_j)
    for j, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= 1e-13 * w, (j, g, w)


def test_moment_sums_match_the_partition_sum():
    check_cases(_check_moment_sums, _moment_tables, 150, seed=24)


def test_no_product_path_enumerates_partitions(monkeypatch):
    # rlpg keeps the partition enumerator's name only for the benchmark's
    # tracer hook: with it refusing, every series entry point gives the
    # same numbers
    sc = _scenario(make_fig2_region(100.0), (40.0, 30.0), m0=4, m=2.0)
    family = nakagami_as_general_cdf(4)

    def numbers():
        return (outage_rlpg(sc).outage, outage_rlpg_for_counts(sc, range(9)),
                outage_general_family(sc, family).outage)

    before = numbers()

    def refuse(*args):
        raise AssertionError("partitions enumerated on a product path")

    monkeypatch.setattr(rlpg, "enumerate_weighted_partitions", refuse)
    assert numbers() == before


def test_large_interferer_shape_where_2f1_gammas_overflow():
    # at m = 170 the 1/z branch's Gamma(171.5) * Gamma(-0.5) overflows;
    # the closed form must fall back to mpmath's 2F1, not carry a nan
    # into the moment table, and raise no overflow warning on the way
    sc = _scenario(disk_region((0, 0), 100.0), (50.0, 0.0), m0=1, m=170.0,
                   alpha=4.0, r0=100.0, M=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = outage_rlpg(sc).outage
    assert abs(got - outage_mgf(sc).outage) <= 1e-6


def test_partition_assembly_equals_composition_enumeration():
    # rebuild the outage from raw weak compositions of every moment order
    # and compare against the power-series assembly
    def compositions(j, parts):
        if parts == 1:
            yield (j,)
            return
        for first in range(j + 1):
            for rest in compositions(j - first, parts - 1):
                yield (first,) + rest

    disk = disk_region((0, 0), 40.0)
    for m0, M in product((1, 2, 3, 4), (1, 3, 6)):
        sc = _scenario(disk, (8.0, 0.0), m0=m0, m=1.5, M=M, alpha=3.0,
                       r0=3.0)
        table = omega_expectation_table(sc)
        br = sc.beta / sc.rho0
        ba = sc.beta * sc.r0 ** sc.alpha
        acc = 0.0
        for k in range(m0):
            inner = 0.0
            for j in range(k + 1):
                s_j = 0.0
                for comp in compositions(j, M):
                    w = math.factorial(j)
                    prod = 1.0
                    for t in comp:
                        w //= math.factorial(t)
                        prod *= table[t]
                    s_j += w * prod
                inner += (math.comb(k, j) * br ** (k - j) * ba ** j * s_j)
            acc += m0 ** k / math.factorial(k) * inner
        brute = 1.0 - math.exp(-m0 * br) * acc
        got = outage_rlpg(sc).outage
        assert abs(got - brute) <= 1e-12, (m0, M)


def test_interference_never_reduces_outage():
    rng = np.random.default_rng(23)
    for _ in range(20):
        W = 10.0 ** rng.uniform(0.5, 2.0)
        disk = disk_region((0, 0), W)
        m0 = int(rng.integers(1, 4))
        sc_kw = dict(region=disk, receiver=(0.6 * W, 0.0), r0=0.05 * W,
                     channel=NakagamiChannel(m0=m0, m=rng.uniform(0.5, 3.0)),
                     alpha=rng.uniform(2.0, 6.0),
                     beta=10.0 ** rng.uniform(-1.0, 0.5),
                     rho0=10.0 ** rng.uniform(0.5, 2.5))
        noise_only = outage_rlpg(Scenario(num_interferers=0, **sc_kw)).outage
        with_m = outage_rlpg(
            Scenario(num_interferers=int(rng.integers(1, 12)), **sc_kw)).outage
        assert with_m >= noise_only - 1e-14


def test_outage_monotone_in_scenario_knobs():
    disk = disk_region((0, 0), 100.0)
    fig2 = make_fig2_region(100.0)
    rng = np.random.default_rng(77)
    for rep in range(50):
        region, y0 = (disk, (25.0, 0.0)) if rep % 2 else \
            (fig2, tuple(rng.dirichlet(np.ones(4)) @ fig2.vertices))
        kw = dict(region=region, receiver=y0, r0=rng.uniform(1.0, 8.0),
                  num_interferers=int(rng.integers(1, 12)),
                  channel=NakagamiChannel(m0=int(rng.integers(1, 4)),
                                          m=rng.uniform(0.5, 3.0)),
                  alpha=rng.uniform(2.0, 6.0), beta=1.0, rho0=100.0)
        axis = rep % 3
        if axis == 0:
            vals = [outage_rlpg(Scenario(**{**kw, "beta": b})).outage
                    for b in (0.2, 0.5, 1.0, 2.5, 8.0)]
        elif axis == 1:
            vals = [outage_rlpg(Scenario(**{**kw, "rho0": r})).outage
                    for r in (1000.0, 100.0, 20.0, 5.0, 1.0)]
        else:
            vals = [outage_rlpg(Scenario(**{**kw, "num_interferers": n})).outage
                    for n in (0, 1, 3, 7, 12)]
        assert np.all(np.diff(vals) >= -1e-12), (rep, axis, vals)


def test_non_integer_reference_shape_directed_to_other_engine():
    sc = _scenario(disk_region((0, 0), 50.0), (0, 0), m0=1.5, m=1.0)
    with pytest.raises(UnsupportedModelError) as exc:
        outage_rlpg(sc)
    assert "outage_mgf" in str(exc.value)
    with pytest.raises(UnsupportedModelError):
        outage_disk_center(50.0, 5.0, 3, 2.5, 1.0, 3.0, 1.0, 100.0)


def test_disk_center_argument_validation():
    with pytest.raises(InvalidParameterError):
        outage_disk_center(0.0, 5.0, 3, 1, 1.0, 3.0, 1.0, 100.0)
    with pytest.raises(InvalidParameterError):
        outage_disk_center(50.0, -1.0, 3, 1, 1.0, 3.0, 1.0, 100.0)
    with pytest.raises(InvalidParameterError):
        outage_disk_center(50.0, 5.0, 2.7, 1, 1.0, 3.0, 1.0, 100.0)
    with pytest.raises(InvalidParameterError):
        outage_disk_center(50.0, 5.0, 3, 1, 1.0, 3.0, -1.0, 100.0)


def test_clamp_policy():
    assert _clamp_unit(0.5, "x") == 0.5
    assert _clamp_unit(0.0, "x") == 0.0
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assert _clamp_unit(-5e-10, "x") == 0.0
        assert _clamp_unit(1.0 + 5e-10, "x") == 1.0
    assert len(rec) == 2
    with pytest.raises(NumericFailure):
        _clamp_unit(-5e-9, "x")
    with pytest.raises(NumericFailure):
        _clamp_unit(1.0 + 5e-9, "x")
    with pytest.raises(NumericFailure, match="nan"):
        _clamp_unit(float("nan"), "x")


def test_fig3_style_point_against_simulation():
    sc = _scenario(disk_region((0, 0), 100.0), (50.0, 0.0), m0=1, m=1.0,
                   alpha=3.0)
    analytic = outage_rlpg(sc).outage
    mc = simulate_outage(sc, 10 ** 6, seed=314, workers=4)
    assert abs(analytic - mc.outage_mean) <= 3.0 * mc.std_error


# ----- general reference-gain family -----

def test_general_family_reproduces_rayleigh():
    sc = _scenario(make_fig2_region(80.0), (40.0, 30.0), m0=1, m=1.0,
                   alpha=2.5)
    got = outage_general_family(sc, nakagami_as_general_cdf(1))
    assert got.outage == outage_rlpg(sc).outage


def test_general_family_reproduces_integer_shape():
    # shape 25 needs a check grid that reaches past 50/25
    for m0 in (3, 25):
        sc = _scenario(disk_region((0, 0), 60.0), (20.0, 0.0), m0=m0, m=2.0,
                       alpha=3.5)
        got = outage_general_family(sc, nakagami_as_general_cdf(m0))
        assert got.outage == outage_rlpg(sc).outage, m0


def test_general_family_toy_law_against_simulation():
    # reference gain with CDF 1 - e^{-2g} (mean 1/2), gamma interferers
    sc = _scenario(disk_region((0, 0), 60.0), (15.0, 0.0), m0=1, m=2.0,
                   alpha=3.0, M=3, rho0=50.0)
    cdf = general_fading_cdf([(2.0, 0, 1.0)])
    got = outage_general_family(sc, cdf).outage

    rng = np.random.default_rng(8141)
    n = 10 ** 6
    g0 = rng.exponential(0.5, n)
    pts = sample_uniform_in_region(sc.region, rng, size=n * 3)
    dist = np.hypot(pts[:, 0] - 15.0, pts[:, 1]).reshape(n, 3)
    gains = rng.gamma(2.0, 0.5, (n, 3))
    agg = (gains * dist ** -3.0).sum(axis=1)
    sinr = g0 / (1.0 / 50.0 + 5.0 ** 3.0 * agg)
    p = float(np.mean(sinr < 1.0))
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(got - p) <= 3.0 * se


def test_general_family_two_rate_law_against_simulation():
    # reference gain a 50/50 mixture of Exp(1) and Exp(2), CDF
    # 1 - 0.5 e^{-g} - 0.5 e^{-2g}: two decay rates, so two moment tables
    # summed in one assembly. The outage is linear in the reference CDF, so
    # it is also the mean of the two one-rate outages.
    sc = _scenario(disk_region((0, 0), 60.0), (15.0, 0.0), m0=1, m=2.0,
                   alpha=3.0, M=3, rho0=50.0)
    cdf = general_fading_cdf([(1.0, 0, 0.5), (2.0, 0, 0.5)])
    got = outage_general_family(sc, cdf).outage
    halves = [outage_general_family(sc, general_fading_cdf([(n, 0, 1.0)]))
              .outage for n in (1.0, 2.0)]
    assert abs(got - 0.5 * (halves[0] + halves[1])) < 1e-13

    rng = np.random.default_rng(2718)
    n = 10 ** 6
    g0 = rng.exponential(np.where(rng.random(n) < 0.5, 1.0, 0.5))
    pts = sample_uniform_in_region(sc.region, rng, size=n * 3)
    dist = np.hypot(pts[:, 0] - 15.0, pts[:, 1]).reshape(n, 3)
    gains = rng.gamma(2.0, 0.5, (n, 3))
    agg = (gains * dist ** -3.0).sum(axis=1)
    sinr = g0 / (1.0 / 50.0 + 5.0 ** 3.0 * agg)
    p = float(np.mean(sinr < 1.0))
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(got - p) <= 3.0 * se


def test_general_family_refuses_an_overflowing_reference_path_loss():
    # r0^alpha = 1e360: a NumericFailure before the tilt is formed, not a
    # bare OverflowError
    sc = _scenario(disk_region((0, 0), 100.0), (0.0, 0.0), m0=1, m=1.0,
                   alpha=6.0, r0=1e60)
    with pytest.raises(NumericFailure, match="path loss"):
        outage_general_family(sc, nakagami_as_general_cdf(1))
    with pytest.raises(NumericFailure, match="path loss"):
        outage_rlpg(sc)


def test_underflowing_reference_path_loss_is_a_numeric_failure():
    # on a disk of radius 1e-100, r0^alpha = (5e-102)^4 underflows to 0:
    # refused, not a ZeroDivisionError. So is a beta r0^alpha that is
    # subnormal although r0^alpha is not.
    tiny = _scenario(disk_region((0, 0), 1e-100), (0.0, 0.0), m0=1, m=1.0,
                     alpha=4.0, r0=5e-102, M=1)
    faint = _scenario(disk_region((0, 0), 1e-4), (0.0, 0.0), m0=1, m=1.0,
                      alpha=4.0, r0=1e-5, M=1, beta=1e-300)
    for sc, name in ((tiny, "r0\\^alpha"), (faint, "beta r0\\^alpha")):
        with pytest.raises(NumericFailure, match="path loss " + name):
            outage_rlpg(sc)
        with pytest.raises(NumericFailure, match="path loss " + name):
            outage_general_family(sc, nakagami_as_general_cdf(1))


def test_tiny_region_keeps_the_scale_free_outage():
    # the outage depends on lengths only through their ratios: a disk of
    # radius 1e-30 with r0 = radius / 20 reads as one of radius 1
    def outage(W):
        return outage_rlpg(_scenario(disk_region((0, 0), W), (0.0, 0.0),
                                     m0=1, m=1.0, alpha=4.0, r0=W / 20.0,
                                     M=1)).outage

    unit = outage(1.0)
    assert abs(unit - 0.013831895) < 1e-9
    assert abs(outage(1e-30) - unit) < 1e-12


def test_outage_result_metadata():
    sc = _scenario(disk_region((0, 0), 50.0), (0, 0), m0=2, m=1.0, M=4)
    res = outage_rlpg(sc)
    assert res.method == "rlpg"
    assert res.abs_error == 1e-9
    assert [f.name for f in fields(res)] == ["outage", "method", "abs_error"]
