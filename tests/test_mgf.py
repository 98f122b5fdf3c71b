"""Laplace-inversion outage engine: the Euler-summed Bromwich sampler, the
inner fading/distance expectations, and cross-checks against the
integer-shape engine and Monte Carlo."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest

import finitenet.mgf as mgf
import finitenet.scenario as scenario_module
from finitenet import (EulerInversionParams, InvalidParameterError,
                       NakagamiChannel, NumericFailure, Scenario, disk_region,
                       distance_profile, euler_invert_cdf, make_fig2_region,
                       outage_mgf, outage_rlpg, simulate_outage)
from finitenet.mgf import _radial_mixture_rows
from finitenet.rlpg import _constant_piece
from scipy import special as sp

from fading_oracles import nakagami_power_gain_pdf
from scalar_quad import adaptive_quad

LN10 = math.log(10.0)


def _scenario(region, receiver, m0, m, alpha=3.0, r0=5.0, M=10, beta=1.0,
              rho0=100.0):
    return Scenario(region=region, receiver=receiver, r0=r0,
                    num_interferers=M, channel=NakagamiChannel(m0=m0, m=m),
                    alpha=alpha, beta=beta, rho0=rho0)


# ----- inversion parameters -----

def test_default_inversion_parameters():
    p = EulerInversionParams()
    assert abs(p.A - 8.0 * LN10) < 1e-15
    assert (p.B, p.C) == (11, 14)
    assert abs(p.accuracy_digits - 8.0) < 1e-15


def test_parameters_from_accuracy_digits():
    for digits, b, c in ((6, 7, 9), (8, 9, 12), (10, 12, 15)):
        p = EulerInversionParams.from_accuracy_digits(digits)
        assert abs(p.A - digits * LN10) < 1e-12
        assert (p.B, p.C) == (b, c), digits


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        EulerInversionParams(A=0.0)
    with pytest.raises(InvalidParameterError):
        EulerInversionParams(B=0)
    with pytest.raises(InvalidParameterError):
        EulerInversionParams(C=2.5)
    with pytest.raises(InvalidParameterError):
        EulerInversionParams.from_accuracy_digits(0)
    # the Euler sum's scale e^{A/2} overflows past A = 1419.6 (616.5 digits)
    EulerInversionParams(A=1419.5)
    for A in (1419.6, 1700.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="e\\^\\(A/2\\)"):
            EulerInversionParams(A=A, B=11, C=14)
    for digits in (700, 1.7e308):
        with pytest.raises(InvalidParameterError, match="e\\^\\(A/2\\)"):
            EulerInversionParams.from_accuracy_digits(digits)


# ----- CDF inversion on known transforms -----

def test_inversion_recovers_exponential_cdf():
    # L{pdf}(s) = 1/(1+s), F(z) = 1 - e^{-z}. The default parameters aim at
    # 1e-8 absolute accuracy; the measured residual at z = 1 is 1.015e-8
    # (dominated by the e^{-A} discretization alias), marginally above it.
    got = euler_invert_cdf(lambda s: 1.0 / (1.0 + s), 1.0)
    assert abs(got - (1.0 - math.exp(-1.0))) <= 1e-8


def test_inversion_recovers_gamma2_cdf():
    # L{pdf}(s) = (1+s)^{-2}, F(z) = 1 - e^{-z}(1+z)
    got = euler_invert_cdf(lambda s: (1.0 + s) ** -2, 3.0)
    truth = 1.0 - math.exp(-3.0) * 4.0
    assert abs(got - truth) <= 1e-8


def test_inversion_gamma2_cdf_over_grid():
    for z in (0.5, 1.0, 2.0, 4.0, 6.0):
        got = euler_invert_cdf(lambda s: (1.0 + s) ** -2, z)
        assert abs(got - sp.gammainc(2.0, z)) <= 3e-8, z


def test_inversion_point_mass_cdf():
    # L{pdf}(s) = e^{-s} (unit mass at 1). The CDF jump sits at half the
    # evaluation point, so the series terms repeat with period 4 rather than
    # alternate; the order-11 binomial average alone lands 2.5e-2 below the
    # true plateau. That sum does not settle, and the doubled (B, C) retries
    # reach the plateau after three doublings.
    got = euler_invert_cdf(lambda s: np.exp(-s), 2.0)
    assert abs(got - 1.0) <= 1e-6


def test_inversion_refuses_jump_at_evaluation_point():
    # L{pdf}(s) = e^{-2s}: the CDF jumps from 0 to 1 at z = 2 itself, where
    # no number of nodes settles the sum. The inverter must refuse rather
    # than return a value.
    calls = []

    def transform(s):
        calls.append(s)
        return np.exp(-2.0 * s)

    p = EulerInversionParams()
    with pytest.raises(NumericFailure, match="did not settle"):
        euler_invert_cdf(transform, 2.0, params=p)
    assert len(calls) == 16 * (p.B + p.C) + 1


def test_inversion_doubling_samples_each_node_once():
    calls = []

    def transform(s):
        calls.append(s)
        return np.exp(-s)

    p = EulerInversionParams()
    euler_invert_cdf(transform, 2.0, params=p)
    assert len(calls) == 8 * (p.B + p.C) + 1
    assert len({round(c.imag, 12) for c in calls}) == len(calls)


def test_inversion_accepts_steep_gamma_cdf():
    # Gamma CDFs of shape 20 and 50 with unit mean are steep but smooth:
    # they settle on the first B+C+1 nodes at both accuracies, within the
    # e^{-A/2} settling limit of the truth.
    for p in (EulerInversionParams(),
              EulerInversionParams.from_accuracy_digits(6)):
        digits = p.accuracy_digits
        for k in (20, 50):
            for z in (0.8, 1.0, 1.2):
                calls = []

                def transform(s, k=k):
                    calls.append(s)
                    return (1.0 + s / k) ** -k

                got = euler_invert_cdf(transform, z, params=p)
                assert len(calls) == p.B + p.C + 1, (digits, k, z)
                assert abs(got - sp.gammainc(k, k * z)) \
                    <= 10.0 ** (-0.5 * digits), (digits, k, z)


def test_inversion_input_validation():
    with pytest.raises(InvalidParameterError):
        euler_invert_cdf(lambda s: 1.0 / (1.0 + s), 0.0)
    with pytest.raises(InvalidParameterError):
        euler_invert_cdf(lambda s: 1.0 / (1.0 + s), -2.0)
    with pytest.raises(NumericFailure):
        euler_invert_cdf(lambda s: float("nan"), 1.0)


def test_inversion_uses_each_node_once():
    calls = []

    def transform(s):
        calls.append(s)
        return 1.0 / (1.0 + s)

    p = EulerInversionParams()
    euler_invert_cdf(transform, 1.5, params=p)
    assert len(calls) == p.B + p.C + 1
    assert len({round(c.imag, 12) for c in calls}) == len(calls)


# ----- inner expectation over gain and distance -----

def _inner(prof, m, alpha, r0, s, g0, rel_tol=1e-10):
    # E{exp(-s G (R/r0)^{-alpha} / g0)} is the radial kernel row at
    # q = r0^alpha s / g0
    q = (r0 ** alpha) * complex(s) / g0
    return complex(_radial_mixture_rows(prof, m, alpha, [q], rel_tol)[0])


def _inner_oracle(prof, m, alpha, r0, s, g0):
    # brute double quadrature over the gain and the distance, no closed-form
    # gain average: E{exp(-s G (R/r0)^{-alpha} / g0)}
    def outer(g):
        inner_vals = np.empty(g.size, dtype=complex)
        for i, gv in enumerate(g):
            val, _ = adaptive_quad(
                lambda r: np.exp(-s * gv * (r / r0) ** -alpha / g0)
                * prof.pdf(r),
                0.0, prof.r_max, breakpoints=prof.breakpoints, rel_tol=1e-11)
            inner_vals[i] = val
        return inner_vals * nakagami_power_gain_pdf(m, g)

    val, _ = adaptive_quad(outer, 1e-12, 60.0 / m,
                           breakpoints=(0.5 / m, 1.0 / m, 4.0 / m, 15.0 / m),
                           rel_tol=1e-9)
    return val


def test_inner_expectation_matches_brute_double_integral():
    prof = distance_profile(disk_region((0, 0), 10.0), (3.0, 0.0))
    m, alpha, r0, g0 = 1.7, 3.0, 2.0, 0.7
    for s in (4.3, (8.0 * LN10 + 2j * math.pi) / 2.0):
        got = _inner(prof, m, alpha, r0, s, g0, rel_tol=1e-12)
        truth = _inner_oracle(prof, m, alpha, r0, complex(s), g0)
        assert abs(got - truth) < 1e-8, s


def test_inner_expectation_large_shape_limit():
    # m -> infinity: the gamma gain concentrates at 1, leaving the pure
    # distance average of the exponential kernel
    prof = distance_profile(disk_region((0, 0), 10.0), (0, 0))
    alpha, r0, g0, s = 3.0, 0.8, 2.0, 1.1 + 0.7j
    got = _inner(prof, 1.0e4, alpha, r0, s, g0, rel_tol=1e-12)
    limit, _ = adaptive_quad(
        lambda r: np.exp(-s * (r / r0) ** -alpha / g0) * prof.pdf(r),
        0.0, prof.r_max, breakpoints=prof.breakpoints, rel_tol=1e-12)
    assert abs(got - limit) < 1e-6


def test_inner_expectation_modulus_bounded():
    prof = distance_profile(make_fig2_region(10.0), (5.0, 3.0))
    for c in range(6):
        s = (8.0 * LN10 + 2j * math.pi * c) / 2.0
        val = _inner(prof, 2.5, 4.0, 1.0, s, 0.4)
        assert abs(val) <= 1.0 + 1e-12


# ----- closed-form kernel integral over constant-angle pieces -----

def _phi_closed_form(theta, upsilon, m, alpha, r0, s, g0, area):
    """The series engine's closed form for a constant-angle piece at t = 0
    and the transform point q = r0^alpha s / g0."""
    return _constant_piece(theta, upsilon, 0, m, alpha,
                           (r0 ** alpha) * complex(s) / g0, area)


def test_phi_zero_piece():
    assert _phi_closed_form(math.pi / 3, 0.0, 1.0, 4.0, 5.0, 2.0, 0.9,
                            math.pi * 1e4) == 0.0


def _phi_oracle(theta, upsilon, m, alpha, r0, s, g0, area):
    q = (r0 ** alpha) * complex(s) / g0

    def f(r):
        rr = np.maximum(r, 1e-300)
        return (theta * r / area) * np.exp(
            m * (math.log(m) + alpha * np.log(rr)
                 - np.log(m * rr ** alpha + q)))

    val, _ = adaptive_quad(f, 0.0, upsilon, rel_tol=1e-13)
    return val


def test_phi_real_transform_point():
    theta, upsilon, area = math.pi / 3, 70.0, math.pi * 1e4
    m, alpha, r0, g0, s = 1.0, 4.0, 5.0, 0.9, 4.0
    got = _phi_closed_form(theta, upsilon, m, alpha, r0, s, g0, area)
    truth = _phi_oracle(theta, upsilon, m, alpha, r0, s, g0, area)
    assert abs(got - truth) <= 1e-10 * abs(truth)


def test_phi_complex_transform_point():
    theta, upsilon, area = 2.0, 45.0, 6200.0
    m, alpha, r0, g0 = 2.5, 2.7, 5.0, 1.4
    s = (8.0 * LN10 + 2j * math.pi) / 2.0
    got = _phi_closed_form(theta, upsilon, m, alpha, r0, s, g0, area)
    truth = _phi_oracle(theta, upsilon, m, alpha, r0, s, g0, area)
    assert abs(got - truth) <= 1e-10 * abs(truth)


def test_disk_centre_kernel_is_one_closed_form():
    # at the disk centre the whole range [0, W] is the constant piece, so a
    # radial kernel row is the closed form at t = 0 for real and complex q
    W = 100.0
    prof = distance_profile(disk_region((0, 0), W), (0.0, 0.0))
    assert prof.constant_piece == (prof.r_max, 2.0 * math.pi)
    m, alpha, r0, g0 = 2.5, 3.0, 5.0, 0.8
    qs = [(r0 ** alpha) * s / g0
          for s in (4.3, (8.0 * LN10 + 2j * math.pi) / 2.0,
                    (8.0 * LN10 + 2j * math.pi * 25) / 2.0)]
    rows = _radial_mixture_rows(prof, m, alpha, qs, 1e-12)
    for q, row in zip(qs, rows):
        got = _constant_piece(2.0 * math.pi, W, 0, m, alpha, q, prof.area)
        assert abs(got - row) <= 1e-10 * abs(row), q


# ----- full outage evaluations -----

def test_outage_without_interferers_matches_noise_only():
    sc = _scenario(disk_region((0, 0), 100.0), (0, 0), m0=1.0, m=1.0, M=0)
    res = outage_mgf(sc)
    assert res.method == "mgf"
    assert abs(res.outage - (1.0 - math.exp(-0.01))) <= 1e-7


def test_outage_agrees_with_integer_shape_engine():
    # same number out of two fully independent formulations
    W = 100.0
    disk = disk_region((0, 0), W)
    for m0 in (1.0, 2.0, 3.0):
        for d in (0.0, W / 2.0, W):
            sc = _scenario(disk, (d, 0.0), m0=m0, m=m0)
            a = outage_mgf(sc).outage
            b = outage_rlpg(sc).outage
            assert abs(a - b) <= 1e-6, (m0, d)
    fig2 = make_fig2_region(W)
    v2 = fig2.vertices[1]
    sc = _scenario(fig2, v2, m0=2.0, m=2.5, alpha=2.5)
    assert abs(outage_mgf(sc).outage - outage_rlpg(sc).outage) <= 1e-6


def test_steep_outage_settles_and_agrees_with_integer_shape_engine():
    # a large reference shape at high SNR makes the functional's CDF steep;
    # the Euler sum still settles, at both accuracies
    sc = _scenario(disk_region((0, 0), 100.0), (50.0, 0.0), m0=16.0, m=2.0,
                   alpha=4.0, M=5, rho0=1e4)
    b = outage_rlpg(sc).outage
    for p, tol in ((EulerInversionParams(), 1e-7),
                   (EulerInversionParams.from_accuracy_digits(6), 1e-5)):
        assert abs(outage_mgf(sc, params=p).outage - b) <= tol, p


def test_outage_agrees_with_monte_carlo():
    sc = _scenario(disk_region((0, 0), 100.0), (0, 0), m0=1.0, m=1.0,
                   alpha=4.0, rho0=100.0)
    analytic = outage_mgf(sc).outage
    mc = simulate_outage(sc, 10 ** 6, seed=2718, workers=4)
    assert abs(analytic - mc.outage_mean) <= 3.0 * mc.std_error


def test_real_shape_outage_sits_between_integer_neighbours():
    sc15 = _scenario(disk_region((0, 0), 100.0), (0, 0), m0=1.5, m=1.5,
                     alpha=2.5)
    mid = outage_mgf(sc15).outage
    lo_hi = []
    for m_int in (1.0, 2.0):
        sc = _scenario(disk_region((0, 0), 100.0), (0, 0), m0=m_int, m=m_int,
                       alpha=2.5)
        lo_hi.append(outage_rlpg(sc).outage)
    hi, lo = lo_hi  # more severe fading (smaller shape) means more outage
    assert lo < mid < hi


def _random_monotone_scenario(rng):
    W = 10.0 ** rng.uniform(0.5, 2.0)
    if rng.integers(0, 2):
        region = disk_region((0, 0), W)
        ang = rng.uniform(0, 2 * math.pi)
        rad = W * math.sqrt(rng.uniform(0, 0.9))
        y0 = (rad * math.cos(ang), rad * math.sin(ang))
    else:
        region = make_fig2_region(W)
        w = rng.dirichlet(np.ones(4))
        y0 = tuple(w @ region.vertices)
    m0 = rng.uniform(0.6, 3.5)
    m = rng.uniform(0.5, 3.0)
    return dict(region=region, receiver=y0, r0=0.05 * W,
                num_interferers=int(rng.integers(1, 8)),
                channel=NakagamiChannel(m0=m0, m=m),
                alpha=rng.uniform(2.0, 6.0), beta=1.0, rho0=100.0)


def test_outage_monotone_for_real_shapes():
    # outage grows with the threshold and the interferer count, falls with
    # the link SNR; checked at reduced inversion accuracy for speed
    rng = np.random.default_rng(11)
    params = EulerInversionParams.from_accuracy_digits(6)

    def eps(kw):
        return outage_mgf(Scenario(**kw), params=params, rel_tol=1e-8).outage

    for rep in range(6):
        kw = _random_monotone_scenario(rng)
        axis = ("beta", "rho0", "num_interferers")[rep % 3]
        if axis == "beta":
            vals = [eps({**kw, "beta": b}) for b in (0.25, 0.7, 1.0, 2.0, 5.0)]
        elif axis == "rho0":
            vals = [eps({**kw, "rho0": r}) for r in (500.0, 100.0, 30.0, 8.0)]
        else:
            vals = [eps({**kw, "num_interferers": n}) for n in (0, 2, 4, 7)]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-7), (rep, axis, vals)


def test_outage_result_reports_accuracy_target():
    sc = _scenario(disk_region((0, 0), 50.0), (0, 0), m0=1.0, m=1.0, M=2)
    res = outage_mgf(sc)
    assert abs(res.abs_error - 1e-8) < 1e-20


def test_underflowing_reference_path_loss_is_a_numeric_failure():
    # on a disk of radius 1e-100, r0^alpha = (5e-102)^4 underflows to 0:
    # refused by name, not as an unsettled inversion sum
    sc = _scenario(disk_region((0, 0), 1e-100), (0, 0), m0=1.0, m=1.0,
                   alpha=4.0, r0=5e-102, M=1)
    with pytest.raises(NumericFailure, match="path loss r0\\^alpha"):
        outage_mgf(sc)


def test_held_kernel_is_shared_by_its_key_only():
    disk = disk_region((0, 0), 100.0)
    sc = _scenario(disk, (50.0, 0.0), m0=1.5, m=2.0, M=1)
    outage_mgf(sc, rel_tol=1e-6)
    kernel = mgf._held_kernel
    # another M, rho0, r0, beta, m0 or inversion on an equal region built
    # again reuses the held kernel, and gives the number a fresh one gives
    same = _scenario(disk_region((0, 0), 100.0), (50.0, 0.0), m0=3.0, m=2.0,
                     M=2, r0=7.0, beta=2.0, rho0=10.0)
    params = EulerInversionParams.from_accuracy_digits(6)
    shared = outage_mgf(same, params=params, rel_tol=1e-6).outage
    assert mgf._held_kernel is kernel
    mgf._held_kernel = None
    assert outage_mgf(same, params=params, rel_tol=1e-6).outage == shared
    assert mgf._held_kernel is not kernel
    # another region, receiver, m, alpha or rel_tol builds a new kernel
    others = [
        (_scenario(disk, (40.0, 0.0), m0=1.5, m=2.0), 1e-6),
        (_scenario(disk_region((0, 0), 90.0), (50.0, 0.0), m0=1.5, m=2.0),
         1e-6),
        (_scenario(disk, (50.0, 0.0), m0=1.5, m=2.5), 1e-6),
        (_scenario(disk, (50.0, 0.0), m0=1.5, m=2.0, alpha=4.0), 1e-6),
        (sc, 1e-12),
    ]
    for other, rel_tol in others:
        held = mgf._shared_kernel(sc, 1e-6)
        built = mgf._shared_kernel(other, rel_tol)
        assert built is not held and mgf._held_kernel is built
        assert mgf._shared_kernel(other, rel_tol) is built


def _slow_kernel_rows(monkeypatch, calls):
    """A radial kernel whose rows are 2q, each batch logged and slow."""
    import time

    def slow_rows(profile, m, alpha, q, rel_tol):
        calls.append(q.tobytes())
        time.sleep(1e-3)
        return 2.0 * q

    monkeypatch.setattr(mgf, "_radial_mixture_rows", slow_rows)
    kernel = mgf._shared_kernel(_scenario(disk_region((0, 0), 100.0),
                                          (50.0, 0.0), m0=1.0, m=1.0),
                                mgf.QUADRATURE_REL_TOL)
    batches = [np.arange(k, k + 15, dtype=complex) for k in range(20)]
    return kernel.rows, batches, lambda q: 2.0 * q


def _slow_kernel_pdf(monkeypatch, calls):
    """A radial kernel's tabulated pdf over a profile whose pdf is logged
    and slow."""
    import time

    build = scenario_module.distance_profile

    def slow_profile(region, receiver):
        prof = build(region, receiver)

        def pdf(r):
            calls.append(r.tobytes())
            time.sleep(1e-3)
            return prof.pdf(r)

        return replace(prof, pdf=pdf)

    monkeypatch.setattr(scenario_module, "distance_profile", slow_profile)
    fig2 = make_fig2_region(100.0)
    prof = build(fig2, (60.0, 20.0))
    kernel = mgf._shared_kernel(_scenario(fig2, (60.0, 20.0), m0=1.0, m=1.0),
                                mgf.QUADRATURE_REL_TOL)
    radii = [np.linspace(0.5 * k, prof.r_max, 60) for k in range(1, 21)]
    return kernel._profile.pdf, radii, prof.pdf


@pytest.mark.parametrize("memoised", [_slow_kernel_rows, _slow_kernel_pdf],
                         ids=["rows", "pdf"])
def test_radial_kernel_computes_each_batch_once_across_threads(monkeypatch,
                                                               memoised):
    # the kernel's rows and its pdf share one memo: threads that miss on the
    # same array at once wait for the first one's result
    import sys
    from concurrent.futures import ThreadPoolExecutor

    calls = []
    fn, batches, expected = memoised(monkeypatch, calls)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fn, batches[i % 20].copy())
                       for i in range(400)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == sorted(b.tobytes() for b in batches)
    for i, res in enumerate(results):
        assert res is results[i % 20]
        assert np.array_equal(res, expected(batches[i % 20]))
        assert not res.flags.writeable


# ----- transform nodes on a thread pool, radial pdf per kernel -----

def _pool_scenarios():
    fig2 = make_fig2_region(100.0)
    return [_scenario(disk_region((0, 0), 100.0), (100.0, 0.0), m0=1.5,
                      m=2.5, alpha=4.0, r0=10.0, M=2),
            _scenario(fig2, fig2.vertices[1], m0=1.5, m=2.5, alpha=4.0,
                      r0=10.0, M=2)]


def _count_outer_integrals(monkeypatch):
    """Count outer integrals over the gain image (0, 1); every radial
    integral of these scenarios runs over (0, r_max) with r_max >= 100."""
    calls = []
    quad = mgf.adaptive_rows_quad

    def counted(f, a, b, **kwargs):
        if (a, b) == (0.0, 1.0):
            calls.append((a, b))
        return quad(f, a, b, **kwargs)

    monkeypatch.setattr(mgf, "adaptive_rows_quad", counted)
    return calls


def test_node_pool_width_changes_no_bit(monkeypatch):
    outer = _count_outer_integrals(monkeypatch)
    batches = []
    rows = mgf._radial_mixture_rows

    def counted_rows(*args):
        batches.append(1)
        return rows(*args)

    monkeypatch.setattr(mgf, "_radial_mixture_rows", counted_rows)
    widths = []
    run_calls = scenario_module._run_calls

    def spied(calls, width):
        widths.append(width)
        return run_calls(calls, width)

    monkeypatch.setattr(scenario_module, "_run_calls", spied)
    # A = 4 ln10 with B = 2 and C = 3 does not settle on its 6 nodes, so the
    # retry samples the new nodes of the doubled (B, C) through the pool too
    retried = EulerInversionParams(A=4.0 * LN10, B=2, C=3)
    cases = [(sc, None) for sc in _pool_scenarios()]
    cases.append((_pool_scenarios()[1], retried))
    for sc, params in cases:
        more = replace(sc, num_interferers=sc.num_interferers + 1)
        mgf._held_kernel = None
        fresh_more = outage_mgf(more, params=params, rel_tol=1e-6).outage
        got = {}
        for width in (1, 2, 4):
            monkeypatch.setattr(scenario_module, "_CPU_WORKERS", width)
            mgf._held_kernel = None   # each width computes anew
            outer.clear()
            got[width] = outage_mgf(sc, params=params, rel_tol=1e-6).outage
            nodes = len(outer)
            assert nodes == (26 if params is None else 21), nodes
            # on the now-held kernel a repeat runs every node on the
            # calling thread, and another M serves the nodes it can there
            batches.clear()
            widths.clear()
            repeat = outage_mgf(sc, params=params, rel_tol=1e-6).outage
            assert repeat == got[width]
            assert not batches and set(widths) == {1}, (batches, widths)
            assert outage_mgf(more, params=params,
                              rel_tol=1e-6).outage == fresh_more
        assert got[1] == got[2] == got[4], got


def test_held_only_lookup_never_computes_stores_or_waits(monkeypatch):
    started, release = threading.Event(), threading.Event()

    def rows(profile, m, alpha, q, rel_tol):
        if q[0] == 7.0:
            started.set()
            release.wait(timeout=60)
        return 2.0 * q

    monkeypatch.setattr(mgf, "_radial_mixture_rows", rows)
    kernel = mgf._shared_kernel(_scenario(disk_region((0, 0), 100.0),
                                          (50.0, 0.0), m0=1.0, m=1.0),
                                mgf.QUADRATURE_REL_TOL)
    held = np.arange(3, dtype=complex)
    stored = kernel.rows(held)
    sizes = list(kernel.sizes)
    assert kernel.rows(held.copy(), held_only=True) is stored
    with pytest.raises(mgf._Miss):
        kernel.rows(held + 1.0, held_only=True)
    assert kernel.sizes == sizes and kernel.rows.stored() == 1
    # a batch another thread is still computing is a miss, not a wait
    pending = np.full(3, 7.0, dtype=complex)
    thread = threading.Thread(target=kernel.rows, args=(pending,))
    thread.start()
    try:
        assert started.wait(timeout=60)
        with pytest.raises(mgf._Miss):
            kernel.rows(pending, held_only=True)
    finally:
        release.set()
        thread.join()
    assert np.array_equal(kernel.rows(pending, held_only=True), 2.0 * pending)


def test_failure_in_a_pool_node_stops_the_pool(monkeypatch):
    width = 3
    monkeypatch.setattr(scenario_module, "_CPU_WORKERS", width)
    rows = mgf._radial_mixture_rows
    calls = []
    failing = 20   # a batch of an early node, while later ones queue
    state = {}

    def fail_on_kth(profile, m, alpha, q, rel_tol):
        calls.append(q.tobytes())
        if len(calls) == failing and "full" in state:
            state["thread"] = threading.current_thread()
            raise NumericFailure("synthetic failure in a later node")
        return rows(profile, m, alpha, q, rel_tol)

    monkeypatch.setattr(mgf, "_radial_mixture_rows", fail_on_kth)
    outage_mgf(_pool_scenarios()[0], rel_tol=1e-6)
    state["full"] = len(calls)
    calls.clear()
    mgf._held_kernel = None   # the next call computes anew
    with pytest.raises(NumericFailure, match="synthetic failure in a later"):
        outage_mgf(_pool_scenarios()[0], rel_tol=1e-6)
    assert state["thread"] is not threading.main_thread()
    assert len(calls) == len(set(calls))
    # the nodes still queued when the failure came back were cancelled
    assert failing <= len(calls) < state["full"]


def test_radial_pdf_is_tabulated_once_per_abscissa_array(monkeypatch):
    evaluated = []
    profiles = []
    build = scenario_module.distance_profile

    def counting_profile(region, receiver):
        prof = build(region, receiver)
        profiles.append(prof)

        def pdf(r):
            evaluated.append(np.array(r))
            return prof.pdf(r)

        return replace(prof, pdf=pdf)

    monkeypatch.setattr(scenario_module, "distance_profile",
                        counting_profile)
    # every array is computed once, also with the nodes on the pool:
    # threads that miss on the same array at once wait for the first (see
    # test_radial_kernel_computes_each_batch_once_across_threads)
    monkeypatch.setattr(scenario_module, "_CPU_WORKERS", 2)
    sc = _pool_scenarios()[1]
    outage_mgf(sc, rel_tol=1e-6)
    kernel = mgf._held_kernel
    keys = [(r.shape, r.tobytes()) for r in evaluated]
    assert len(profiles) == 1 and evaluated
    assert len(keys) == len(set(keys))
    tabled = kernel._profile.pdf
    for r in evaluated:
        vals = tabled(r.copy())
        assert vals is tabled(r)
        assert not vals.flags.writeable
        assert np.array_equal(vals, profiles[0].pdf(r))
    # the lookups above were all answered from the table
    assert len(evaluated) == len(keys)


def test_threads_thrashing_the_kernel_slot_match_serial_calls(monkeypatch):
    # two threads alternate between two geometries, so each call finds the
    # other's kernel held and replaces it; every number stays the serial one
    scs = _pool_scenarios()
    serial = []
    for sc in scs:
        mgf._held_kernel = None
        serial.append(outage_mgf(sc, rel_tol=1e-6).outage)
    built = []
    kernel_class = mgf._RadialKernel

    def counted(*args):
        built.append(1)
        return kernel_class(*args)

    monkeypatch.setattr(mgf, "_RadialKernel", counted)
    results = {}

    def alternate(first):
        results[first] = [outage_mgf(scs[(first + k) % 2], rel_tol=1e-6).outage
                          for k in range(4)]

    threads = [threading.Thread(target=alternate, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results[0] == serial * 2 and results[1] == serial[::-1] * 2
    assert len(built) >= 4


def test_kernel_over_budget_restarts_with_the_same_numbers(monkeypatch):
    sc = _pool_scenarios()[0]
    counts = (1, 2, 3)

    def scan():
        held = []
        for count in counts:
            out = outage_mgf(replace(sc, num_interferers=count),
                             rel_tol=1e-6).outage
            held.append((out, mgf._held_kernel))
        return held

    within = scan()
    assert len({id(k) for _, k in within}) == 1
    mgf._held_kernel = None
    monkeypatch.setattr(mgf, "_KERNEL_BUDGET", 1)
    over = scan()
    assert len({id(k) for _, k in over}) == len(counts)
    assert [v for v, _ in over] == [v for v, _ in within]


def test_failed_batch_is_not_kept_for_the_next_call(monkeypatch):
    # an interrupted radial batch leaves no stored exception in the held
    # kernel: the next call on the key computes it and gets the fresh number
    class Interrupted(BaseException):
        pass

    rows = mgf._radial_mixture_rows
    failing = [True]

    def interrupted(profile, m, alpha, q, rel_tol):
        if failing[0]:
            raise Interrupted
        return rows(profile, m, alpha, q, rel_tol)

    monkeypatch.setattr(mgf, "_radial_mixture_rows", interrupted)
    sc = _pool_scenarios()[0]
    with pytest.raises(Interrupted):
        outage_mgf(sc, rel_tol=1e-6)
    kernel = mgf._held_kernel
    failing[0] = False
    got = outage_mgf(sc, rel_tol=1e-6).outage
    assert mgf._held_kernel is kernel
    mgf._held_kernel = None
    assert got == outage_mgf(sc, rel_tol=1e-6).outage


def test_radial_pdf_table_hands_every_thread_the_first_array():
    import sys
    import time
    from concurrent.futures import ThreadPoolExecutor
    prof = distance_profile(make_fig2_region(100.0), (60.0, 20.0))

    def slow_pdf(r):
        # a slow pdf lets several threads miss on the same array at once
        time.sleep(1e-3)
        return prof.pdf(r)

    tabled = mgf._array_memo(slow_pdf, float, [])
    radii = [np.linspace(0.5 * k, prof.r_max, 60) for k in range(1, 21)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(tabled, radii[i % 20].copy())
                       for i in range(400)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, res in enumerate(results):
        assert res is results[i % 20]
        assert np.array_equal(res, prof.pdf(radii[i % 20]))
        assert not res.flags.writeable
