"""Laplace-inversion outage engine: the Euler-summed Bromwich sampler, the
inner fading/distance expectations, and cross-checks against the
integer-shape engine and Monte Carlo."""

import math
import threading

import numpy as np
import pytest

import finitenet.mgf as mgf
import finitenet.scenario as scenario_module
from finitenet import (EulerInversionParams, InvalidParameterError,
                       NakagamiChannel, NumericFailure, Scenario, disk_region,
                       distance_profile, euler_invert_cdf, make_fig2_region,
                       nakagami_power_gain_pdf, outage_mgf, outage_rlpg,
                       radial_kernel, simulate_outage)
from finitenet.mgf import _radial_mixture_rows, phi_closed_form
from finitenet.quadrature import adaptive_quad
from scipy import special as sp

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

def test_phi_zero_piece():
    assert phi_closed_form(math.pi / 3, 0.0, 1.0, 4.0, 5.0, 2.0, 0.9,
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
    got = phi_closed_form(theta, upsilon, m, alpha, r0, s, g0, area)
    truth = _phi_oracle(theta, upsilon, m, alpha, r0, s, g0, area)
    assert abs(got - truth) <= 1e-10 * abs(truth)


def test_phi_complex_transform_point():
    theta, upsilon, area = 2.0, 45.0, 6200.0
    m, alpha, r0, g0 = 2.5, 2.7, 5.0, 1.4
    s = (8.0 * LN10 + 2j * math.pi) / 2.0
    got = phi_closed_form(theta, upsilon, m, alpha, r0, s, g0, area)
    truth = _phi_oracle(theta, upsilon, m, alpha, r0, s, g0, area)
    assert abs(got - truth) <= 1e-10 * abs(truth)


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


def test_outage_refuses_a_kernel_built_for_another_scenario():
    disk = disk_region((0, 0), 100.0)
    sc = _scenario(disk, (50.0, 0.0), m0=1.5, m=2.0, M=0)
    kernel = radial_kernel(sc)
    # another m0, r0, beta or rho0 on an equal region built again shares it
    same = _scenario(disk_region((0, 0), 100.0), (50.0, 0.0), m0=3.0, m=2.0,
                     M=0, r0=7.0, beta=2.0, rho0=10.0)
    assert outage_mgf(same, kernel=kernel).outage == outage_mgf(same).outage
    others = [
        (_scenario(disk, (40.0, 0.0), m0=1.5, m=2.0, M=0), 1e-10),
        (_scenario(disk_region((0, 0), 90.0), (50.0, 0.0), m0=1.5, m=2.0,
                   M=0), 1e-10),
        (_scenario(disk, (50.0, 0.0), m0=1.5, m=2.5, M=0), 1e-10),
        (_scenario(disk, (50.0, 0.0), m0=1.5, m=2.0, alpha=4.0, M=0), 1e-10),
        (sc, 1e-12),
    ]
    for other, rel_tol in others:
        with pytest.raises(InvalidParameterError, match="radial kernel"):
            outage_mgf(other, rel_tol=rel_tol, kernel=kernel)


def test_radial_kernel_computes_each_batch_once_across_threads(monkeypatch):
    import sys
    import time
    from concurrent.futures import ThreadPoolExecutor

    import finitenet.mgf as mgf
    calls = []

    def slow_rows(profile, m, alpha, q, rel_tol):
        calls.append(q.tobytes())
        time.sleep(1e-3)
        return 2.0 * q

    monkeypatch.setattr(mgf, "_radial_mixture_rows", slow_rows)
    kernel = radial_kernel(_scenario(disk_region((0, 0), 100.0), (50.0, 0.0),
                                     m0=1.0, m=1.0))
    batches = [np.arange(k, k + 15, dtype=complex) for k in range(20)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(kernel.rows, batches[i % 20].copy())
                       for i in range(400)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == sorted(b.tobytes() for b in batches)
    for i, res in enumerate(results):
        assert res is results[i % 20]
        assert np.array_equal(res, 2.0 * batches[i % 20])
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
    # A = 4 ln10 with B = 2 and C = 3 does not settle on its 6 nodes, so the
    # retry samples the new nodes of the doubled (B, C) through the pool too
    retried = EulerInversionParams(A=4.0 * LN10, B=2, C=3)
    cases = [(sc, None) for sc in _pool_scenarios()]
    cases.append((_pool_scenarios()[1], retried))
    for sc, params in cases:
        got = {}
        for width in (1, 2, 4):
            monkeypatch.setattr(scenario_module, "_CPU_WORKERS", width)
            outer.clear()
            got[width] = outage_mgf(sc, params=params, rel_tol=1e-6).outage
            nodes = len(outer)
            assert nodes == (26 if params is None else 21), nodes
        assert got[1] == got[2] == got[4], got


def test_failure_in_a_pool_node_stops_the_pool(monkeypatch):
    width = 3
    monkeypatch.setattr(scenario_module, "_CPU_WORKERS", width)
    rows = mgf._radial_mixture_rows
    calls = []
    failing = 20   # the first node, run on this thread, computes fewer
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
    baseline = threading.active_count()
    with pytest.raises(NumericFailure, match="synthetic failure in a later"):
        outage_mgf(_pool_scenarios()[0], rel_tol=1e-6)
    assert state["thread"] is not threading.main_thread()
    assert len(calls) == len(set(calls))
    # the nodes still queued when the failure came back were cancelled
    assert failing <= len(calls) < state["full"]
    assert threading.active_count() == baseline


def test_radial_pdf_is_tabulated_once_per_abscissa_array(monkeypatch):
    from dataclasses import replace

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
    # at width 1 the nodes run one at a time and every array is computed
    # once; threads that miss on the same array at once may each compute it
    # (see the next test)
    monkeypatch.setattr(scenario_module, "_CPU_WORKERS", 1)
    sc = _pool_scenarios()[1]
    kernel = radial_kernel(sc, rel_tol=1e-6)
    outage_mgf(sc, rel_tol=1e-6, kernel=kernel)
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


def test_radial_pdf_table_hands_every_thread_the_first_array():
    import sys
    import time
    from concurrent.futures import ThreadPoolExecutor
    prof = distance_profile(make_fig2_region(100.0), (60.0, 20.0))

    def slow_pdf(r):
        # a slow pdf lets several threads miss on the same array at once
        time.sleep(1e-3)
        return prof.pdf(r)

    tabled = mgf._tabled_pdf(slow_pdf)
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
