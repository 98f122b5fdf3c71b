"""Nakagami power-gain laws and the exponential-polynomial CDF family."""

import math

import numpy as np
import pytest

from finitenet import (EulerInversionParams, GeneralFadingCdf,
                       InvalidParameterError, ModelInconsistencyError,
                       NakagamiChannel, Scenario, UnsupportedModelError,
                       disk_region, general_cdf_eval, general_fading_cdf,
                       nakagami_as_general_cdf, outage_rlpg_for_counts)
from finitenet.channel import integer_shape

from fading_oracles import nakagami_power_gain_pdf, nakagami_reference_cdf
from scalar_quad import adaptive_quad


def test_pdf_rayleigh_values():
    # m = 1 is the unit-mean exponential
    assert nakagami_power_gain_pdf(1.0, 0.0) == 1.0
    assert abs(nakagami_power_gain_pdf(1.0, 2.0) - math.exp(-2.0)) < 1e-15


def test_pdf_general_shape_value():
    # m^m g^{m-1} e^{-m g} / Gamma(m) at m = 2.5, g = 0.8
    m, g = 2.5, 0.8
    truth = m ** m * g ** (m - 1) * math.exp(-m * g) / math.gamma(m)
    assert abs(nakagami_power_gain_pdf(m, g) - truth) < 1e-15
    assert nakagami_power_gain_pdf(2.5, 0.0) == 0.0


def test_pdf_is_vectorized():
    g = np.array([0.0, 0.5, 1.0, 3.0])
    out = nakagami_power_gain_pdf(3.0, g)
    assert out.shape == g.shape
    for gi, oi in zip(g, out):
        assert oi == nakagami_power_gain_pdf(3.0, float(gi))


def test_pdf_integrates_to_one():
    # substitute g = u^2 so the m = 0.5 endpoint singularity integrates cleanly
    for m in (0.5, 1.0, 1.5, 2.0, 3.0):
        val, _ = adaptive_quad(
            lambda u: 2.0 * u * nakagami_power_gain_pdf(m, u * u),
            0.0, 10.0, breakpoints=(1.0, 3.0), rel_tol=1e-11)
        assert abs(val - 1.0) < 1e-9, m


def test_pdf_unit_mean():
    for m in (0.5, 1.7, 4.0):
        val, _ = adaptive_quad(
            lambda u: 2.0 * u ** 3 * nakagami_power_gain_pdf(m, u * u),
            0.0, 11.0, breakpoints=(1.0, 3.0), rel_tol=1e-11)
        assert abs(val - 1.0) < 1e-9, m


def test_reference_cdf_matches_pdf_integral():
    for m0, x in ((0.5, 0.7), (1.0, 1.0), (2.5, 1.9)):
        val, _ = adaptive_quad(
            lambda u: 2.0 * u * nakagami_power_gain_pdf(m0, u * u),
            0.0, math.sqrt(x), rel_tol=1e-12)
        assert abs(nakagami_reference_cdf(m0, x) - val) < 1e-11


def test_shape_validation():
    with pytest.raises(InvalidParameterError):
        nakagami_power_gain_pdf(0.3, 1.0)
    with pytest.raises(InvalidParameterError):
        nakagami_reference_cdf(0.49, 1.0)
    with pytest.raises(InvalidParameterError):
        NakagamiChannel(m0=0.4, m=1.0)
    with pytest.raises(InvalidParameterError):
        NakagamiChannel(m0=1.0, m=0.2)


def test_hoyt_and_rice_shape_mappings():
    # Hoyt: m = (1 + q^2)^2 / (2 (1 + 2 q^4)); Rice: m = (1 + n^2)^2 / (1 + 2 n^2)
    ch = NakagamiChannel.from_hoyt(0.5, 1.0)
    assert ch.approximates == "hoyt"
    assert abs(ch.m0 - (1 + 0.25) ** 2 / (2 * (1 + 2 * 0.5 ** 4))) < 1e-15
    assert abs(ch.m - (1 + 1.0) ** 2 / (2 * (1 + 2.0))) < 1e-15

    ch = NakagamiChannel.from_rice(0.0, 2.0)
    assert ch.approximates == "rice"
    assert ch.m0 == 1.0  # n = 0 has no line-of-sight component: Rayleigh
    assert abs(ch.m - (1 + 4.0) ** 2 / (1 + 8.0)) < 1e-15

    assert NakagamiChannel(m0=2.0, m=3.0).approximates is None
    with pytest.raises(InvalidParameterError):
        NakagamiChannel.from_hoyt(0.0, 0.5)
    with pytest.raises(InvalidParameterError):
        NakagamiChannel.from_hoyt(0.5, 1.2)
    with pytest.raises(InvalidParameterError):
        NakagamiChannel.from_rice(-0.1, 1.0)


# ----- exponential-polynomial CDF family -----

def test_rayleigh_as_general_cdf():
    cdf = nakagami_as_general_cdf(1)
    assert cdf.terms == ((1.0, 0, 1.0),)
    for g in (0.0, 0.3, 2.0):
        assert abs(general_cdf_eval(cdf, g) - (1.0 - math.exp(-g))) < 1e-15


def test_m0_two_terms():
    cdf = nakagami_as_general_cdf(2)
    assert cdf.terms == ((2.0, 0, 1.0), (2.0, 1, 2.0))


def test_m0_four_matches_gamma_cdf():
    cdf = nakagami_as_general_cdf(4)
    got = general_cdf_eval(cdf, 1.3)
    assert abs(got - nakagami_reference_cdf(4.0, 1.3)) < 1e-12


def test_general_cdf_matches_gamma_for_integer_shapes():
    rng = np.random.default_rng(3)
    # from shape 21 up the default check grid must reach past 50/m0
    for m0 in (*range(1, 7), 21, 40, 100):
        cdf = nakagami_as_general_cdf(m0)
        g = rng.uniform(0.0, 12.0, size=100)
        got = general_cdf_eval(cdf, g)
        truth = nakagami_reference_cdf(float(m0), g)
        assert np.max(np.abs(got - truth)) < 1e-12, m0


def test_non_integer_shape_rejected():
    with pytest.raises(UnsupportedModelError):
        nakagami_as_general_cdf(1.5)
    with pytest.raises(UnsupportedModelError):
        nakagami_as_general_cdf(0.5)


def test_one_integer_shape_rule():
    # within 1e-9 of a positive integer on either side counts as that integer
    for x, n in ((1 - 5e-10, 1), (1 + 5e-10, 1), (3.0, 3), (7 - 5e-10, 7)):
        assert integer_shape(x) == n, x
    for x in (1 - 2e-9, 1 + 2e-9, 0.5, 1.5, 1e-10, 0.0, -1.0,
              float("nan"), float("inf")):
        assert integer_shape(x) is None, x
    one = nakagami_as_general_cdf(1).terms
    assert nakagami_as_general_cdf(1 - 5e-10).terms == one
    assert nakagami_as_general_cdf(1 + 5e-10).terms == one
    with pytest.raises(UnsupportedModelError):
        nakagami_as_general_cdf(1 - 2e-9)


def test_one_whole_number_rule():
    # interferer counts, series orders and powers refuse non-finite values,
    # integers past 2^53 and bools with the package's own errors
    sc = Scenario(region=disk_region((0, 0), 100.0), receiver=(0.0, 0.0),
                  r0=5.0, num_interferers=3,
                  channel=NakagamiChannel(m0=2.0, m=1.0), alpha=4.0,
                  beta=1.0, rho0=100.0)
    for bad in (math.nan, math.inf, -math.inf, 2 ** 53 + 1, True, False):
        with pytest.raises(InvalidParameterError):
            outage_rlpg_for_counts(sc, [bad])
        for name in ("B", "C"):
            with pytest.raises(InvalidParameterError):
                EulerInversionParams(**{name: bad})
        with pytest.raises(ModelInconsistencyError, match="power"):
            general_fading_cdf([(1.0, 0, 1.0), (1.0, bad, 0.0)])
    # whole floats still count as integers
    assert outage_rlpg_for_counts(sc, [3.0]) == outage_rlpg_for_counts(sc, [3])
    assert (EulerInversionParams(B=11.0).B, EulerInversionParams(C=14.0).C) \
        == (11, 14)
    assert general_fading_cdf([(1.0, 0.0, 1.0)]).terms == ((1.0, 0, 1.0),)


def test_one_interferer_count_rule():
    # Scenario and the series engine's counts share one rule and one message
    base = dict(region=disk_region((0, 0), 100.0), receiver=(0.0, 0.0),
                r0=5.0, channel=NakagamiChannel(m0=2.0, m=1.0), alpha=4.0,
                beta=1.0, rho0=100.0)
    sc = Scenario(num_interferers=3, **base)
    for bad in (math.nan, math.inf, -math.inf, -1, 2.5, 2 ** 53 + 1,
                10 ** 400, True):
        with pytest.raises(InvalidParameterError,
                           match="number of interferers"):
            Scenario(num_interferers=bad, **base)
        with pytest.raises(InvalidParameterError,
                           match="number of interferers"):
            outage_rlpg_for_counts(sc, [bad])
    assert Scenario(num_interferers=2 ** 53, **base).num_interferers \
        == 2 ** 53
    eps, = outage_rlpg_for_counts(sc, [2 ** 53])
    assert 0.0 <= eps <= 1.0


def test_inconsistent_coefficients_rejected():
    # F(0) = -1: value escapes [0, 1]
    with pytest.raises(ModelInconsistencyError):
        general_fading_cdf([(1.0, 0, 2.0)])
    # dips on (0.78, 1.22) while staying inside [0, 1]: monotonicity check
    with pytest.raises(ModelInconsistencyError):
        general_fading_cdf([(1.0, 0, 1.0), (1.0, 2, 1.05)])
    # a valid law probed on a grid that stops too early: tail check
    with pytest.raises(ModelInconsistencyError):
        general_fading_cdf([(1.0, 0, 1.0)],
                           check_grid=np.linspace(0.0, 1.0, 101))
    # malformed decay rate / power; a rate that rounds to 0 is no integer
    with pytest.raises(ModelInconsistencyError):
        general_fading_cdf([(0.7, 0, 1.0)])
    with pytest.raises(ModelInconsistencyError, match="decay rate"):
        general_fading_cdf([(1e-10, 0, 1.0)])
    with pytest.raises(ModelInconsistencyError):
        general_fading_cdf([(1.0, -1, 1.0)])


def test_general_cdf_eval_guards():
    cdf = nakagami_as_general_cdf(2)
    with pytest.raises(InvalidParameterError):
        general_cdf_eval(cdf, -0.5)
    vals = general_cdf_eval(cdf, np.linspace(0.0, 30.0, 301))
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0
    assert vals[-1] <= 1.0


def test_general_cdf_eval_is_finite_where_powers_overflow():
    # a term g^k e^(-n g) whose power overflows while its decay underflows
    # must not turn the CDF into NaN: a zero coefficient adds nothing, and a
    # valid law (the Gamma(101, 1) CDF) reaches 1 far in its tail
    zero_power = general_fading_cdf([(1.0, 0, 1.0), (1.0, 400, 0.0)])
    assert general_cdf_eval(zero_power, 2000.0) == 1.0
    gamma101 = general_fading_cdf([(1.0, k, 1.0 / math.factorial(k))
                                   for k in range(101)])
    assert general_cdf_eval(gamma101, 1300.0) == 1.0
    vals = general_cdf_eval(gamma101, [0.0, 100.0, 1300.0, math.inf])
    assert vals[0] == 0.0 and np.all(np.diff(vals) >= 0.0)
    assert vals[-1] == 1.0
    # a law whose tail term does overflow is refused, not evaluated to NaN
    overflowing = GeneralFadingCdf(terms=((1.0, 0, 1.0), (1.0, 400, 1.0)))
    with pytest.raises(ModelInconsistencyError, match="not finite"):
        general_cdf_eval(overflowing, 2000.0)
