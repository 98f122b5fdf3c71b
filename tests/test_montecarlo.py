"""Simulation engine: exact-uniform sampling, SINR trials, determinism."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitenet import (InvalidParameterError, NakagamiChannel, Scenario,
                       disk_region, distance_profile, make_fig2_region,
                       make_regular_polygon, outage_rlpg,
                       sample_uniform_in_region,
                       simulate_distance_distribution, simulate_outage)

from geometry_oracles import sample_uniform_plain
from test_geometry_properties import polygons

KS_CRIT_1PCT = 1.62762  # asymptotic one-sample Kolmogorov-Smirnov, alpha=0.01


def _ks_stat(samples_sorted, cdf):
    n = samples_sorted.size
    theo = cdf(samples_sorted)
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return max(float(np.max(up - theo)), float(np.max(theo - lo)))


def _fig3_scenario(d, alpha, M=10):
    return Scenario(region=disk_region((0, 0), 100.0), receiver=(d, 0.0),
                    r0=5.0, num_interferers=M,
                    channel=NakagamiChannel(m0=1.0, m=1.0), alpha=alpha,
                    beta=1.0, rho0=100.0)


def test_disk_center_distances_pass_ks():
    n = 10 ** 6
    emp = simulate_distance_distribution(disk_region((0, 0), 100.0), (0, 0),
                                         n, seed=4)
    stat = _ks_stat(emp.samples, lambda r: np.clip(r / 100.0, 0, 1) ** 2)
    assert stat < KS_CRIT_1PCT / math.sqrt(n), stat


def test_disk_offset_distances_pass_ks():
    n = 10 ** 6
    reg = disk_region((0, 0), 100.0)
    prof = distance_profile(reg, (30.0, 0.0))
    emp = simulate_distance_distribution(reg, (30.0, 0.0), n, seed=5)
    stat = _ks_stat(emp.samples, prof.cdf)
    assert stat < KS_CRIT_1PCT / math.sqrt(n), stat


def test_fig2_vertex_distances_pass_ks():
    n = 10 ** 6
    reg = make_fig2_region(100.0)
    v2 = reg.vertices[1]
    prof = distance_profile(reg, v2)
    emp = simulate_distance_distribution(reg, v2, n, seed=6)
    stat = _ks_stat(emp.samples, prof.cdf)
    assert stat < KS_CRIT_1PCT / math.sqrt(n), stat


def test_square_sample_mean_hits_centroid():
    n = 10 ** 5
    reg = make_regular_polygon(4, 3.0, center=(1.5, -2.5))
    rng = np.random.default_rng(12)
    pts = sample_uniform_in_region(reg, rng, size=n)
    for axis, c in enumerate((1.5, -2.5)):
        se = float(pts[:, axis].std(ddof=1)) / math.sqrt(n)
        assert abs(float(pts[:, axis].mean()) - c) < 4.0 * se


def test_single_sample_shape_and_containment():
    rng = np.random.default_rng(3)
    reg = make_fig2_region(10.0)
    pt = sample_uniform_in_region(reg, rng)
    assert pt.shape == (2,)
    from finitenet import region_contains
    pts = sample_uniform_in_region(reg, rng, size=500)
    assert all(region_contains(reg, p) for p in pts)


def test_noise_only_outage_matches_analytic():
    sc = _fig3_scenario(0.0, 3.0, M=0)
    est = simulate_outage(sc, 10 ** 6, seed=1001)
    truth = 1.0 - math.exp(-0.01)
    assert abs(est.outage_mean - truth) <= 3.0 * est.std_error
    assert est.trials == 10 ** 6
    expected_se = math.sqrt(est.outage_mean * (1 - est.outage_mean) / 10 ** 6)
    assert abs(est.std_error - expected_se) < 1e-15


def test_interference_outage_matches_integer_shape_engine():
    sc = _fig3_scenario(0.0, 4.0)
    analytic = outage_rlpg(sc).outage
    est = simulate_outage(sc, 10 ** 6, seed=1002, workers=4)
    assert abs(est.outage_mean - analytic) <= 3.0 * est.std_error


def test_vanishing_threshold_gives_no_outages():
    sc = Scenario(region=disk_region((0, 0), 100.0), receiver=(0.0, 0.0),
                  r0=5.0, num_interferers=5,
                  channel=NakagamiChannel(m0=1.0, m=1.0), alpha=3.0,
                  beta=1e-12, rho0=100.0)
    est = simulate_outage(sc, 10 ** 5, seed=7)
    assert est.outage_mean == 0.0


def test_estimate_is_identical_across_worker_counts():
    # chunked counter-based streams: the result must not depend on threading
    sc = _fig3_scenario(25.0, 3.0)
    trials = 3 * (1 << 17) + 1000
    serial = simulate_outage(sc, trials, seed=99, workers=1)
    threaded = simulate_outage(sc, trials, seed=99, workers=4)
    assert serial.outage_mean == threaded.outage_mean
    assert serial.std_error == threaded.std_error
    rerun = simulate_outage(sc, trials, seed=99, workers=3)
    assert rerun.outage_mean == serial.outage_mean


def test_different_seeds_differ():
    sc = _fig3_scenario(25.0, 3.0)
    a = simulate_outage(sc, 1 << 15, seed=1)
    b = simulate_outage(sc, 1 << 15, seed=2)
    assert a.outage_mean != b.outage_mean


def test_standard_error_scales_with_trials():
    sc = _fig3_scenario(0.0, 3.0)
    small = simulate_outage(sc, 1 << 17, seed=42)
    big = simulate_outage(sc, 4 * (1 << 17), seed=42)
    ratio = small.std_error / big.std_error
    assert abs(ratio - 2.0) < 0.1


def test_input_validation():
    sc = _fig3_scenario(0.0, 3.0)
    with pytest.raises(InvalidParameterError):
        simulate_outage(sc, 0, seed=1)
    with pytest.raises(InvalidParameterError):
        simulate_outage(sc, 10.5, seed=1)
    with pytest.raises(InvalidParameterError):
        simulate_outage(sc, 100, seed=-1)
    with pytest.raises(InvalidParameterError):
        simulate_outage(sc, 100, seed=2 ** 64)
    with pytest.raises(InvalidParameterError):
        simulate_distance_distribution(disk_region((0, 0), 1.0), (0, 0),
                                       0, seed=1)
    # non-finite sizes and seeds; workers is None or a positive int
    for bad in ({"trials": math.nan}, {"trials": math.inf},
                {"seed": math.nan}, {"seed": math.inf}, {"seed": -math.inf},
                {"workers": 0}, {"workers": -3}, {"workers": 2.5},
                {"workers": 2.0}, {"workers": True}, {"workers": "2"}):
        kwargs = {"trials": 100, "seed": 1, **bad}
        with pytest.raises(InvalidParameterError):
            simulate_outage(sc, **kwargs)
    for samples, seed in ((math.nan, 1), (math.inf, 1), (10, math.nan)):
        with pytest.raises(InvalidParameterError):
            simulate_distance_distribution(disk_region((0, 0), 1.0), (0, 0),
                                           samples, seed)
    assert simulate_outage(sc, 100, 1, workers=np.int64(2)).trials == 100


def test_empirical_cdf_mechanics():
    emp = simulate_distance_distribution(disk_region((0, 0), 10.0), (0, 0),
                                         5000, seed=8)
    assert np.all(np.diff(emp.samples) >= 0)
    assert emp(0.0) == 0.0
    assert emp(10.0) == 1.0
    assert 0.2 < emp(5.0) < 0.3  # true value 0.25


def test_noiseless_link_without_interferers_never_fails_silently():
    sc = Scenario(region=disk_region((0, 0), 100.0), receiver=(0.0, 0.0),
                  r0=5.0, num_interferers=0,
                  channel=NakagamiChannel(m0=2.0, m=1.0), alpha=4.0,
                  beta=1.0, rho0=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = simulate_outage(sc, 1000, seed=3)
    assert est.outage_mean == 0.0


def _assert_sampler_matches_plain_formulas(reg, seed):
    for size in (None, 1, 7, 4099):
        rng, plain_rng = (np.random.default_rng(seed) for _ in range(2))
        got = sample_uniform_in_region(reg, rng, size=size)
        want = sample_uniform_plain(reg, plain_rng, size=size)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        # the same number of draws: the streams stay in step
        assert rng.random() == plain_rng.random()


def test_sampler_matches_plain_formulas():
    for reg in (disk_region((0, 0), 100.0), disk_region((3.5, -7.25), 13.0),
                make_regular_polygon(7, 50.0, center=(2.0, 1.0)),
                make_fig2_region(100.0)):
        _assert_sampler_matches_plain_formulas(reg, 17)
        pts = sample_uniform_in_region(reg, np.random.default_rng(1), size=9)
        assert pts[:, 0].flags.c_contiguous and pts[:, 1].flags.c_contiguous


@settings(max_examples=30)
@given(polygons(), st.integers(0, 2 ** 32 - 1))
def test_sampler_matches_plain_formulas_on_convex_polygons(reg, seed):
    _assert_sampler_matches_plain_formulas(reg, seed)
