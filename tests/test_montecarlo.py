"""Simulation engine: exact-uniform sampling, SINR trials, determinism."""

import math
import tracemalloc
import warnings
from itertools import islice
from unittest import mock

import numpy as np
import pytest

import finitenet.montecarlo as montecarlo
from finitenet import (InvalidParameterError, NakagamiChannel, NumericFailure,
                       Scenario, disk_region, make_fig2_region,
                       make_regular_polygon, outage_rlpg, polygon_region,
                       simulate_outage)
from finitenet.montecarlo import (_chunk_spans, _rng_for_chunk,
                                  sample_uniform_in_region)

from geometry_oracles import clip_cdf, sample_uniform_plain
from seeded_cases import check_cases
from test_geometry_properties import polygons

KS_CRIT_1PCT = 1.62762  # asymptotic one-sample Kolmogorov-Smirnov, alpha=0.01


def _ks_stat(samples_sorted, cdf):
    n = samples_sorted.size
    theo = cdf(samples_sorted)
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return max(float(np.max(up - theo)), float(np.max(theo - lo)))


def _sorted_distances(region, y0, n, seed):
    """Sorted distances from y0 to n uniform points, drawn chunk by chunk
    from the Monte Carlo engine's per-chunk streams, in chunk order."""
    ref = np.asarray(y0, dtype=float)
    parts = []
    for idx, size in _chunk_spans(n):
        dx, dy = sample_uniform_in_region(region, _rng_for_chunk(seed, idx),
                                          size=size).T
        parts.append(np.hypot(dx - ref[0], dy - ref[1]))
    return np.sort(np.concatenate(parts))


def _fig3_scenario(d, alpha, M=10):
    return Scenario(region=disk_region((0, 0), 100.0), receiver=(d, 0.0),
                    r0=5.0, num_interferers=M,
                    channel=NakagamiChannel(m0=1.0, m=1.0), alpha=alpha,
                    beta=1.0, rho0=100.0)


def test_disk_center_distances_pass_ks():
    n = 10 ** 6
    samples = _sorted_distances(disk_region((0, 0), 100.0), (0, 0), n, seed=4)
    stat = _ks_stat(samples, lambda r: np.clip(r / 100.0, 0, 1) ** 2)
    assert stat < KS_CRIT_1PCT / math.sqrt(n), stat


def test_disk_offset_distances_pass_ks():
    n = 10 ** 6
    reg = disk_region((0, 0), 100.0)
    samples = _sorted_distances(reg, (30.0, 0.0), n, seed=5)
    stat = _ks_stat(samples, lambda r: clip_cdf(reg, (30.0, 0.0), r))
    assert stat < KS_CRIT_1PCT / math.sqrt(n), stat


def test_fig2_vertex_distances_pass_ks():
    n = 10 ** 6
    reg = make_fig2_region(100.0)
    v2 = reg.vertices[1]
    samples = _sorted_distances(reg, v2, n, seed=6)
    stat = _ks_stat(samples, lambda r: clip_cdf(reg, v2, r))
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
    # non-finite sizes and seeds; workers is None or a positive int
    for bad in ({"trials": math.nan}, {"trials": math.inf},
                {"seed": math.nan}, {"seed": math.inf}, {"seed": -math.inf},
                {"workers": 0}, {"workers": -3}, {"workers": 2.5},
                {"workers": 2.0}, {"workers": True}, {"workers": "2"}):
        kwargs = {"trials": 100, "seed": 1, **bad}
        with pytest.raises(InvalidParameterError):
            simulate_outage(sc, **kwargs)
    assert simulate_outage(sc, 100, 1, workers=np.int64(2)).trials == 100
    # a bool is not a whole number, here or anywhere
    with pytest.raises(InvalidParameterError):
        simulate_outage(sc, True, True)
    with pytest.raises(InvalidParameterError):
        simulate_outage(sc, 100, True)
    # a sample size is None or a whole number >= 0
    reg = make_fig2_region(10.0)
    for bad in (2.5, -1, True, math.nan, math.inf, "3"):
        with pytest.raises(InvalidParameterError, match="size"):
            sample_uniform_in_region(reg, np.random.default_rng(1), size=bad)
    assert sample_uniform_in_region(reg, np.random.default_rng(1),
                                    size=2.0).shape == (2, 2)


def test_empirical_cdf_mechanics():
    samples = _sorted_distances(disk_region((0, 0), 10.0), (0, 0), 5000,
                                seed=8)

    def emp(x):
        return np.searchsorted(samples, x, side="right") / samples.size

    assert np.all(np.diff(samples) >= 0)
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


def test_sampler_matches_plain_formulas_on_convex_polygons():
    check_cases(_assert_sampler_matches_plain_formulas,
                lambda draw: (polygons(draw), draw.integers(0, 2 ** 32 - 1)),
                30, seed=10)


class _GivenDraws:
    """Stands in for a Generator: random(n) and random(out=buf) hand out
    the given draws in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        out[...] = list(islice(self._draws, out.size))
        return out


def test_triangle_choice_ties_go_to_the_later_triangle():
    # triangle draws t = U * total that land exactly on each cumulative
    # area, just below it, at 0 and at the total itself: a tie picks the
    # later triangle, as searchsorted(side="right") does, and U = 1 (which
    # no Generator returns) the last one. u + w = 1 exactly is not flipped
    reg = polygon_region([(0, 0), (4, 0), (6, 1), (7, 3), (7, 5), (5, 7),
                          (2, 7), (0, 5)])
    ab = reg.vertices[1:-1] - reg.vertices[0]
    ac = reg.vertices[2:] - reg.vertices[0]
    cum = np.cumsum(0.5 * np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]))
    ties = cum / cum[-1]
    assert np.array_equal(ties * cum[-1], cum)
    draws = np.concatenate([ties, np.nextafter(ties, 0.0), [0.0, 0.5]])
    n = draws.size
    u = np.resize([0.5, 0.25, 0.9, 0.0], n)
    w = np.resize([0.5, 0.75, 0.3, 0.999], n)
    stream = np.concatenate([draws, u, w, [0.125]])
    got_rng, want_rng = _GivenDraws(stream), _GivenDraws(stream)
    got = sample_uniform_in_region(reg, got_rng, size=n)
    want = sample_uniform_plain(reg, want_rng, size=n)
    assert np.array_equal(got, want)
    assert got_rng.random(1) == want_rng.random(1) == 0.125


def test_size_zero_draws_nothing():
    for reg in (disk_region((0, 0), 100.0), make_fig2_region(100.0),
                make_regular_polygon(40, 5.0)):
        rng, plain_rng = (np.random.default_rng(5) for _ in range(2))
        got = sample_uniform_in_region(reg, rng, size=0)
        want = sample_uniform_plain(reg, plain_rng, size=0)
        assert got.shape == want.shape == (0, 2)
        assert rng.random() == plain_rng.random()


def _plain_outage_count(sc, trials, seed):
    """Outages among `trials` trials drawn chunk by chunk from the engine's
    streams, with the distance |x - y0| from np.hypot, the loss as its
    power -alpha and the interference as a plain sum: the formulas the
    engine's squared-offset chunk must agree with."""
    ch = sc.channel
    num = sc.num_interferers
    count = 0
    for idx, n in _chunk_spans(trials):
        rng = _rng_for_chunk(seed, idx)
        g0 = rng.gamma(ch.m0, 1.0 / ch.m0, n)
        pts = sample_uniform_in_region(sc.region, rng, size=n * num)
        dist = np.hypot(pts[:, 0] - sc.receiver[0],
                        pts[:, 1] - sc.receiver[1]).reshape(n, num)
        gains = rng.gamma(ch.m, 1.0 / ch.m, (n, num))
        interference = (gains * dist ** -sc.alpha).sum(axis=1)
        sinr = g0 / (1.0 / sc.rho0 + sc.r0 ** sc.alpha * interference)
        count += int(np.count_nonzero(sinr < sc.beta))
    return count


def _assert_plain_count(sc, trials, seed):
    want = _plain_outage_count(sc, trials, seed) / trials
    for workers in (1, 3):
        assert simulate_outage(sc, trials, seed,
                               workers=workers).outage_mean == want, workers


def test_squared_offset_chunks_count_what_the_distance_formulas_count():
    trials = 2 * montecarlo.CHUNK_TRIALS + 1000
    fig2 = Scenario(region=make_fig2_region(100.0), receiver=(33.4, 80.7),
                    r0=5.0, num_interferers=10,
                    channel=NakagamiChannel(m0=1.0, m=1.0), alpha=4.0,
                    beta=1.0, rho0=100.0)
    # the largest disk the bound allows, receiver on the rim: every
    # squared offset stays finite
    huge = 9e152
    rim = Scenario(region=disk_region((0.0, 0.0), huge), receiver=(huge, 0.0),
                   r0=huge, num_interferers=1,
                   channel=NakagamiChannel(m0=1.0, m=1.0), alpha=2.0,
                   beta=1.0, rho0=100.0)
    for sc in (_fig3_scenario(25.0, 4.0), fig2, rim):
        _assert_plain_count(sc, trials, seed=11)


def _check_polygon_chunks(reg, where, index, alpha, num, m, seed):
    v = reg.vertices
    i = index % len(v)
    y0 = {"vertex": v[i], "edge": 0.5 * (v[i] + v[(i + 1) % len(v)]),
          "centroid": v.mean(axis=0)}[where]
    sc = Scenario(region=reg, receiver=y0, r0=0.05 * reg.scale,
                  num_interferers=num, channel=NakagamiChannel(m0=1.5, m=m),
                  alpha=alpha, beta=1.0, rho0=100.0)
    # small chunks, so that three workers share several of them
    with mock.patch.object(montecarlo, "CHUNK_TRIALS", 700):
        _assert_plain_count(sc, 2000, seed)


def test_squared_offset_chunks_match_distance_formulas_on_polygons():
    def case(draw):
        return (polygons(draw),
                draw.sampled_from(("vertex", "edge", "centroid")),
                draw.integers(0, 16), draw.floats(2.0, 6.0),
                draw.integers(1, 4), draw.sampled_from((0.5, 1.0, 2.5)),
                draw.integers(0, 2 ** 32 - 1))

    check_cases(_check_polygon_chunks, case, 25, seed=11)


def _check_disk_chunks(radius, shift, where, frac, angle, alpha, num, m,
                       seed):
    # receivers off the x-axis too, so the receiver's polar angle is not 0
    center = np.array(shift) * radius
    off = {"centre": 0.0, "inside": frac, "rim": 1.0}[where] * radius
    y0 = center + off * np.array([math.cos(angle), math.sin(angle)])
    sc = Scenario(region=disk_region(center, radius), receiver=y0,
                  r0=0.05 * radius, num_interferers=num,
                  channel=NakagamiChannel(m0=1.5, m=m), alpha=alpha,
                  beta=1.0, rho0=100.0)
    with mock.patch.object(montecarlo, "CHUNK_TRIALS", 700):
        _assert_plain_count(sc, 2000, seed)


def test_squared_offset_chunks_match_distance_formulas_on_disks():
    def case(draw):
        return (draw.log_floats(0.1, 1000.0),
                (draw.floats(-2.0, 2.0), draw.floats(-2.0, 2.0)),
                draw.sampled_from(("centre", "inside", "rim")),
                draw.floats(0.05, 0.95), draw.floats(0.0, 2.0 * math.pi),
                draw.floats(2.0, 6.0), draw.integers(1, 4),
                draw.sampled_from((0.5, 1.0, 2.5)),
                draw.integers(0, 2 ** 32 - 1))

    check_cases(_check_disk_chunks, case, 25, seed=12)


@pytest.mark.parametrize("m0", (0.5, 1.0, 1.5))
def test_cursors_read_the_whole_chunk_draws_block_by_block(m0):
    # after a g0 draw of any length, cursors placed from the chunk's own
    # generator must read, a block at a time, the bits of one whole-array
    # draw: three uniform streams in turn, then the gains. The stretch is
    # odd, so the three streams start at different residues mod 4
    stretch = 13
    starts = set()
    for n in range(1, 40):
        rng, twin = (_rng_for_chunk(3, n) for _ in range(2))
        for gen in (rng, twin):
            gen.gamma(m0, 1.0 / m0, n)
        whole = twin.random(3 * stretch)
        gains = twin.gamma(m0, 1.0 / m0, (stretch, 2))
        start = montecarlo._next_draw(rng)
        starts.add(start % 4)
        *streams, gain_rng = [montecarlo._cursor(rng, start + k * stretch)
                              for k in range(4)]
        for k, stream in enumerate(streams):
            got = np.concatenate([stream.random(b) for b in (5, 1, 7)])
            want = whole[k * stretch:(k + 1) * stretch]
            assert got.tobytes() == want.tobytes(), (n, k)
        got = np.concatenate([gain_rng.gamma(m0, 1.0 / m0, (rows, 2))
                              for rows in (4, 1, 8)])
        assert got.tobytes() == gains.tobytes(), n
    assert starts == {0, 1, 2, 3}


def test_chunk_memory_stays_within_a_few_blocks():
    # a chunk holds its g0 and one block of interferer draws at a time: the
    # peak stays under 16 arrays of BLOCK_DRAWS = 2^15 doubles, where the
    # whole-chunk layout took 46 MiB on fig2 at M = 400 and 3000 trials.
    # 3000 trials are no multiple of the 81-trial blocks of M = 400; past
    # the budget each block is part of one trial, and at M = 10^6 one
    # trial's draws alone would take 31 MiB on the disk and 61 MiB on fig2
    big = montecarlo.BLOCK_DRAWS + 1
    assert 3000 % (montecarlo.BLOCK_DRAWS // 400)
    for region, y0 in ((make_fig2_region(100.0), (33.4, 80.7)),
                       (disk_region((0.0, 0.0), 100.0), (25.0, 0.0))):
        for num, trials in ((400, 3000), (big, 3), (10 ** 6, 2)):
            sc = Scenario(region=region, receiver=y0, r0=5.0,
                          num_interferers=num,
                          channel=NakagamiChannel(m0=1.5, m=2.5), alpha=4.0,
                          beta=1.0, rho0=100.0)
            want = _plain_outage_count(sc, trials, 3) / trials
            tracemalloc.start()
            try:
                got = simulate_outage(sc, trials, 3, workers=1).outage_mean
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want, (region.kind, num)
            assert peak < 4 * 2 ** 20, (region.kind, num, peak)


@pytest.mark.parametrize("budget", (1, 6, 50))
def test_blocks_of_any_size_count_what_the_whole_chunk_counts(budget):
    # small budgets put many block edges inside each chunk: one trial per
    # block where M reaches the budget, and a short last block elsewhere
    fig2 = Scenario(region=make_fig2_region(100.0), receiver=(33.4, 80.7),
                    r0=5.0, num_interferers=7,
                    channel=NakagamiChannel(m0=0.5, m=1.5), alpha=3.0,
                    beta=1.0, rho0=100.0)
    with mock.patch.object(montecarlo, "BLOCK_DRAWS", budget), \
            mock.patch.object(montecarlo, "CHUNK_TRIALS", 300):
        for sc in (_fig3_scenario(25.0, 4.0, M=3), fig2):
            _assert_plain_count(sc, 700, seed=budget)


def test_disk_squared_offsets_match_a_long_double_distance():
    # the half-angle form against |x - y0|^2 in long double from the same
    # polar draws (rho, phi), and draw for draw with the sampler
    size = 100_000
    for center, radius, y0 in (((0.0, 0.0), 100.0, (25.0, 0.0)),
                               ((0.0, 0.0), 100.0, (0.0, 0.0)),
                               ((0.0, 0.0), 100.0, (0.0, -100.0)),
                               ((3.5, -7.25), 13.0, (1.0, -2.0)),
                               ((-2e3, 5e3), 1e3, (-1.4e3, 4.3e3)),
                               ((1.0, 1.0), 1e-3, (1.0007, 1.0007))):
        reg = disk_region(center, radius)
        rng, ref_rng = (np.random.default_rng(21) for _ in range(2))
        got = montecarlo._squared_offsets(reg, np.array(y0), (rng, rng),
                                          size)
        rho = np.sqrt(ref_rng.random(size)) * radius
        phi = ref_rng.random(size) * (2.0 * np.pi)
        assert rng.random() == ref_rng.random()
        ld = np.longdouble
        rho, phi = rho.astype(ld), phi.astype(ld)
        dx = ld(center[0]) - ld(y0[0]) + rho * np.cos(phi)
        dy = ld(center[1]) - ld(y0[1]) + rho * np.sin(phi)
        want = dx * dx + dy * dy
        err = float(np.max(np.abs(got - want) / want))
        assert err <= 1e-12, (center, radius, y0, err)


def test_reference_path_loss_overflow_is_a_numeric_failure():
    # r0^alpha = 1e360 overflows: refused before any chunk runs, not a
    # bare OverflowError
    sc = Scenario(region=disk_region((0.0, 0.0), 100.0), receiver=(0.0, 0.0),
                  r0=1e60, num_interferers=10,
                  channel=NakagamiChannel(m0=1.0, m=1.0), alpha=6.0,
                  beta=1.0, rho0=100.0)
    with pytest.raises(NumericFailure, match="path loss"):
        simulate_outage(sc, 1000, seed=1)


def test_underflowing_reference_path_loss_is_a_numeric_failure():
    # on a disk of radius 1e-100, r0^alpha = (5e-102)^4 underflows to 0,
    # which would read every trial as noise-only (an outage of 0); at
    # radius 1e-30 the estimate keeps the scale-free value
    def scenario(W):
        return Scenario(region=disk_region((0.0, 0.0), W),
                        receiver=(0.0, 0.0), r0=W / 20.0, num_interferers=1,
                        channel=NakagamiChannel(m0=1.0, m=1.0), alpha=4.0,
                        beta=1.0, rho0=100.0)

    with pytest.raises(NumericFailure, match="path loss r0\\^alpha"):
        simulate_outage(scenario(1e-100), 1000, seed=1)
    est = simulate_outage(scenario(1e-30), 100000, seed=1)
    exact = outage_rlpg(scenario(1.0)).outage
    assert abs(est.outage_mean - exact) <= 3.0 * est.std_error


def test_loss_that_overflows_counts_as_an_outage():
    # a disk of radius 1e-100 with r0 = 1: every interferer is 1e100 times
    # closer than the reference transmitter, |x - y0|^-4 overflows, and the
    # trial is an outage, with no RuntimeWarning (an error in this suite)
    sc = Scenario(region=disk_region((0.0, 0.0), 1e-100), receiver=(0.0, 0.0),
                  r0=1.0, num_interferers=1,
                  channel=NakagamiChannel(m0=1.0, m=1.0), alpha=4.0,
                  beta=1.0, rho0=100.0)
    assert simulate_outage(sc, 1000, seed=1).outage_mean == 1.0
