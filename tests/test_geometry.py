"""Distance laws from a receiver to a uniform node in a convex region.

The pdf comes from an arc-measure sweep; the cdf oracle (circle-region
clipping, in geometry_oracles) is an independent code path, so pdf-vs-cdf
agreement and agreement with hand-derived closed forms are genuine
cross-checks.
"""

import math

import numpy as np
import pytest

from finitenet import (InvalidParameterError, NakagamiChannel, Scenario,
                       disk_region, distance_profile, make_fig2_region,
                       make_regular_polygon, outage_mgf, outage_rlpg,
                       polygon_region, region_contains, simulate_outage)
from finitenet.geometry import inside_arc_measure, pdf_disk_closed_form

from geometry_oracles import (clip_cdf, pdf_regular_polygon_center,
                              segment_corner_pdf)
from scalar_quad import adaptive_quad

TWO_PI = 2.0 * math.pi


def _integral_of_pdf(prof, upto=None):
    hi = prof.r_max if upto is None else upto
    val, _ = adaptive_quad(lambda r: prof.pdf(r), 0.0, hi,
                           breakpoints=[b for b in prof.breakpoints if b < hi],
                           rel_tol=1e-10, abs_tol=1e-12)
    return val


# ----- region constructors -----

def test_square_area():
    reg = make_regular_polygon(4, 1.0)
    assert abs(reg.area - 2.0) < 1e-14


def test_triangle_area():
    reg = make_regular_polygon(3, 100.0)
    assert abs(reg.area - 1.5 * 100.0 ** 2 * math.sin(TWO_PI / 3)) < 1e-9
    assert abs(reg.area - 12990.381056766578) < 1e-9


def test_hexagon_interior_angle():
    reg = make_regular_polygon(6, 100.0)
    v = reg.vertices
    for i in range(6):
        a = v[(i - 1) % 6] - v[i]
        b = v[(i + 1) % 6] - v[i]
        ang = math.acos(np.dot(a, b) / (np.hypot(*a) * np.hypot(*b)))
        assert abs(ang - TWO_PI / 3.0) < 1e-12


def test_fig2_region_landmarks():
    reg = make_fig2_region(100.0)
    assert abs(reg.area - 13143.0) < 0.005 * 13143.0
    assert abs(reg.area - 1.314313139868465e4) < 1e-8
    v2 = reg.vertices[1]
    assert np.hypot(v2[0] - 173.2, v2[1]) < 0.005 * 173.2
    assert abs(v2[0] - 100.0 * math.sqrt(3.0)) < 1e-12
    v3 = reg.vertices[2]
    assert np.hypot(v3[0] - 50.73, v3[1] - 122.474) < 0.01


def test_constructor_validation():
    with pytest.raises(InvalidParameterError):
        disk_region((0, 0), 0.0)
    with pytest.raises(InvalidParameterError):
        make_regular_polygon(2, 1.0)
    with pytest.raises(InvalidParameterError):
        polygon_region([(0, 0), (1, 0)])
    # clockwise square
    with pytest.raises(InvalidParameterError):
        polygon_region([(0, 0), (0, 1), (1, 1), (1, 0)])
    # collinear middle vertex
    with pytest.raises(InvalidParameterError):
        polygon_region([(0, 0), (1, 0), (2, 0), (1, 1)])
    # non-convex notch
    with pytest.raises(InvalidParameterError):
        polygon_region([(0, 0), (2, 0), (1, 0.2), (1, 2)])
    with pytest.raises(InvalidParameterError):
        make_fig2_region(-1.0)
    for bad in (math.nan, math.inf):
        for build in (lambda: disk_region((0, 0), bad),
                      lambda: disk_region((bad, 0), 1.0),
                      lambda: disk_region((0, -bad), 1.0),
                      lambda: polygon_region([(0, 0), (1, 0), (bad, 1)]),
                      lambda: polygon_region([(0, 0), (bad, 0), (0, 1)]),
                      lambda: make_regular_polygon(5, bad),
                      lambda: make_regular_polygon(5, 1.0, center=(bad, 0)),
                      lambda: make_fig2_region(bad)):
            with pytest.raises(InvalidParameterError):
                build()
    # sizes whose area overflows are refused for it, with no overflow
    # warning and no blame on the polygon's convexity
    for huge in (1e160, 1e200, 1e300):
        for build in (lambda: disk_region((0, 0), huge),
                      lambda: polygon_region([(0, 0), (huge, 0), (0, huge)]),
                      lambda: make_regular_polygon(6, huge),
                      lambda: make_fig2_region(huge)):
            with pytest.raises(InvalidParameterError, match="finite area"):
                build()
    # a disk keeps its radius and centre coordinates below 1e153, as polygon
    # vertices do, so the squared offsets of Monte Carlo stay finite
    for build in (lambda: disk_region((0, 0), 1e153),
                  lambda: disk_region((0, 0), 5e153),
                  lambda: disk_region((1e153, 0), 1.0),
                  lambda: disk_region((0, -2e153), 1.0)):
        with pytest.raises(InvalidParameterError, match="1e\\+153"):
            build()
    assert disk_region((-9e152, 9e152), 9e152).radius == 9e152
    # a disk whose area underflows to 0 is refused, not divided by
    for tiny in (1e-170, 1e-300, 5e-324):
        with pytest.raises(InvalidParameterError, match="positive finite area"):
            disk_region((0, 0), tiny)
    assert disk_region((0, 0), 1e-150).area > 0


def test_reference_point_validation():
    reg = disk_region((0, 0), 10.0)

    def scenario(xy):
        return Scenario(region=reg, receiver=xy, r0=1.0, num_interferers=1,
                        channel=NakagamiChannel(m0=1, m=1), alpha=4.0,
                        beta=1.0, rho0=10.0)

    distance_profile(reg, (3.0, 4.0))
    distance_profile(reg, (10.0, 0.0))  # boundary is allowed
    with pytest.raises(InvalidParameterError):
        distance_profile(reg, (10.1, 0.0))
    sc = scenario([10, 0])
    assert sc.receiver.dtype == np.float64 and sc.receiver.shape == (2,)
    assert not sc.receiver.flags.writeable
    with pytest.raises(InvalidParameterError, match=r"\[10\.1, 0\.0\]"):
        scenario((10.1, 0.0))
    sq = make_regular_polygon(4, 1.0)
    assert region_contains(sq, (0.0, 0.0))
    assert not region_contains(sq, (1.0, 1.0))


def _disk_scenario(**kw):
    args = dict(region=disk_region((0, 0), 50.0), receiver=(10.0, 0.0),
                r0=5.0, num_interferers=2, channel=NakagamiChannel(m0=1, m=1),
                alpha=4.0, beta=1.0, rho0=100.0)
    args.update(kw)
    return Scenario(**args)


def test_scenario_refuses_counts_no_engine_can_use():
    for bad in (math.nan, math.inf, -1, 2.5, "2"):
        with pytest.raises(InvalidParameterError, match="interferers"):
            _disk_scenario(num_interferers=bad)
    for count in (2.0, np.float64(2.0), np.int64(2)):
        sc = _disk_scenario(num_interferers=count)
        assert sc.num_interferers == 2 and type(sc.num_interferers) is int
    # a float count reaches every engine as an int, Monte Carlo included
    est = simulate_outage(_disk_scenario(num_interferers=2.0), 1000, seed=7)
    assert est.outage_mean == simulate_outage(_disk_scenario(), 1000,
                                              seed=7).outage_mean


def test_scenario_refuses_counts_a_float_cannot_hold():
    # an integer past float range is refused, not an OverflowError, and so
    # is any count above 2^53, where floats skip integers
    for bad in (10 ** 400, -10 ** 400, 2 ** 53 + 1, np.uint64(2 ** 63), 1e300):
        with pytest.raises(InvalidParameterError, match="interferers"):
            _disk_scenario(num_interferers=bad)
    assert _disk_scenario(num_interferers=2 ** 53).num_interferers == 2 ** 53


def test_scenario_refuses_non_finite_link_length_and_threshold():
    for name in ("r0", "beta"):
        for bad in (math.inf, math.nan, 0.0):
            with pytest.raises(InvalidParameterError, match=name):
                _disk_scenario(**{name: bad})
    # an infinite SNR is the noiseless link, which both analytic engines take
    sc = _disk_scenario(rho0=math.inf)
    assert abs(outage_rlpg(sc).outage
               - outage_mgf(sc, rel_tol=1e-8).outage) < 1e-6


# ----- inside-arc measure -----

def test_arc_measure_disk_center():
    reg = disk_region((0, 0), 100.0)
    r = np.array([1.0, 50.0, 99.9])
    assert np.allclose(inside_arc_measure(reg, (0, 0), r), TWO_PI, atol=1e-14)
    assert inside_arc_measure(reg, (0, 0), np.array([100.1]))[0] == 0.0


def test_arc_measure_fig2_corner_wedge():
    # at the (sqrt3 W, 0) vertex the interior angle is pi/4, and nothing cuts
    # the wedge before r = sqrt3 W
    reg = make_fig2_region(100.0)
    v2 = reg.vertices[1]
    for r in (1.0, 80.0, 160.0, 173.0):
        got = inside_arc_measure(reg, v2, np.array([r]))[0]
        assert abs(got - math.pi / 4.0) < 1e-12, r
    assert inside_arc_measure(reg, v2, np.array([200.5]))[0] == 0.0


def test_arc_measure_square_center():
    reg = make_regular_polygon(4, 1.0)
    # inradius 1/sqrt2: full circle inside below it
    got = inside_arc_measure(reg, (0, 0), np.array([0.5]))[0]
    assert abs(got - TWO_PI) < 1e-14
    # between inradius and circumradius: 4 corner arcs survive
    r = 0.9
    expect = TWO_PI - 8.0 * math.acos(1.0 / (math.sqrt(2.0) * r))
    got = inside_arc_measure(reg, (0, 0), np.array([r]))[0]
    assert abs(got - expect) < 1e-13


def test_arc_measure_is_zero_at_negative_radius():
    disk = disk_region((0, 0), 100.0)
    square = make_regular_polygon(4, 1.0)
    for reg, y0 in ((disk, (25.0, 0.0)), (disk, (0.0, 0.0)),
                    (square, (0.0, 0.0))):
        prof = distance_profile(reg, y0)
        assert prof.arc_measure(-1.0) == 0.0
        assert inside_arc_measure(reg, y0, -1.0) == 0.0
        assert prof.arc_measure(np.array([-1.0, -1e-300])).tolist() == [0.0, 0.0]
        # the pdf below 0 is +0.0, not the -0.0 of a negative r times 0
        for got in (prof.pdf(-1.0), pdf_disk_closed_form(100.0, 25.0, -1.0)):
            assert got == 0.0 and math.copysign(1.0, got) == 1.0


# ----- disk closed forms -----

def test_disk_center_pdf_values():
    prof = distance_profile(disk_region((0, 0), 100.0), (0, 0))
    assert abs(prof.pdf(50.0) - 0.01) < 1e-15
    assert abs(prof.pdf(50.0) - 1.0 / 100.0) < 1e-15  # 2 pi r / area = r poled
    assert prof.pdf(100.5) == 0.0
    assert prof.r_max == 100.0
    assert abs(clip_cdf(disk_region((0, 0), 100.0), (0, 0), 50.0) - 0.25) \
        < 1e-15


def test_disk_center_pdf_at_half_radius_is_one_over_radius():
    for W in (1.0, 7.3, 100.0):
        got = pdf_disk_closed_form(W, 0.0, np.array([W / 2.0]))[0]
        assert abs(got - 1.0 / W) < 1e-15


def test_disk_offset_pdf_branch_switch():
    W, d = 100.0, 30.0
    prof = distance_profile(disk_region((0, 0), W), (d, 0.0))
    # below W - d the whole circle is inside: pdf = 2 r / W^2
    for r in (10.0, 69.9):
        assert abs(prof.pdf(r) - 2.0 * r / W ** 2) < 1e-15
    # above it the arccos branch takes over and the pdf drops below the line
    assert prof.pdf(70.1) < 2.0 * 70.1 / W ** 2
    assert (70.0, 130.0) == (prof.breakpoints[0], prof.breakpoints[-1])


def test_disk_rim_receiver_pdf_matches_arc_measure():
    W = 100.0
    reg = disk_region((0, 0), W)
    prof = distance_profile(reg, (W, 0.0))
    for r in (1e-3, 0.1, 1.0, 10.0):
        theta = inside_arc_measure(reg, (W, 0.0), np.array([r]))[0]
        assert abs(prof.pdf(r) - r * theta / reg.area) < 1e-10


def test_disk_rim_receiver_rounding_past_radius():
    # |100 (cos a, sin a)| rounds to 100.00000000000001: accepted by the
    # containment tolerance, so the profile must not hand the closed-form
    # pdf an offset beyond the radius
    reg = disk_region((0, 0), 100.0)
    a = 1.9123435272035434
    rim = distance_profile(reg, (100.0 * math.cos(a), 100.0 * math.sin(a)))
    ref = distance_profile(reg, (100.0, 0.0))
    r = np.linspace(0.0, 200.0, 41)
    assert rim.pdf(r).tolist() == ref.pdf(r).tolist()
    assert rim.breakpoints == ref.breakpoints == (200.0,)


def test_disk_rim_arc_measure_matches_pdf(monkeypatch):
    # the rim receiver whose offset rounds past the radius: arc_measure
    # must use the profile's clamped offset, as pdf does, and not
    # re-validate the receiver
    import finitenet.geometry as geometry
    reg = disk_region((0, 0), 100.0)
    a = 1.9123435272035434
    rim = (100.0 * math.cos(a), 100.0 * math.sin(a))
    prof = distance_profile(reg, rim)
    calls = []
    contains = geometry.region_contains

    def counted(*args, **kwargs):
        calls.append(args)
        return contains(*args, **kwargs)

    monkeypatch.setattr(geometry, "region_contains", counted)
    r = np.concatenate([np.linspace(0.0, 200.0, 401)[1:],
                        [199.9999999999999]])
    got = prof.arc_measure(r) * r / prof.area
    want = prof.pdf(r)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    assert calls == []
    assert inside_arc_measure(reg, rim, r).tolist() \
        == prof.arc_measure(r).tolist()


def test_disk_offset_pdf_matches_cdf_derivative():
    W, d = 100.0, 30.0
    reg = disk_region((0, 0), W)
    prof = distance_profile(reg, (d, 0.0))
    h = 1e-4
    for r in (40.0, 90.0, 120.0):
        numeric = (clip_cdf(reg, (d, 0.0), r + h)
                   - clip_cdf(reg, (d, 0.0), r - h)) / (2.0 * h)
        assert abs(prof.pdf(r) - numeric) < 1e-8


def test_disk_profile_equals_closed_form_everywhere():
    W = 100.0
    for d in (0.0, 30.0, 100.0):
        prof = distance_profile(disk_region((0, 0), W), (d, 0.0))
        r = np.linspace(0.0, W + d, 301)
        assert np.max(np.abs(prof.pdf(r)
                             - pdf_disk_closed_form(W, d, r))) < 1e-15


# ----- polygon closed forms -----

def test_hexagon_center_pdf():
    W = 100.0
    reg = make_regular_polygon(6, W)
    prof = distance_profile(reg, (0, 0))
    apothem = W * math.sin(math.pi / 3.0)
    # first branch: full circles, pdf = 2 pi r / area
    for r in (10.0, 80.0):
        assert abs(prof.pdf(r) - TWO_PI * r / reg.area) < 1e-15
    # second branch at r = 95
    r = 95.0
    expect = (TWO_PI * r - 12.0 * r * math.acos(apothem / r)) / reg.area
    assert abs(prof.pdf(r) - expect) < 1e-10
    assert abs(prof.pdf(r) - pdf_regular_polygon_center(6, W, np.array([r]))[0]) \
        < 1e-10
    assert prof.pdf(100.0 + 1e-9) == 0.0


def test_regular_polygon_center_closed_form_sweep():
    for L in (3, 4, 5, 6, 9):
        W = 10.0
        reg = make_regular_polygon(L, W)
        prof = distance_profile(reg, (0, 0))
        r = np.linspace(1e-3, W * (1 - 1e-12), 211)
        diff = np.abs(prof.pdf(r) - pdf_regular_polygon_center(L, W, r))
        assert np.max(diff) < 1e-9, L


def test_fig2_corner_pdf_closed_form():
    # receiver at the pi/4 vertex: pdf = (pi/4) r / area up to sqrt3 W, then
    # r (c0 - arccos(p34 / r) - arccos(sqrt3 W / r)) / area up to 2 W, where
    # p34 is the distance to the far side's line and c0 the angle at which
    # that side's outward normal leaves the wedge.
    W = 100.0
    reg = make_fig2_region(W)
    v2 = reg.vertices[1]
    prof = distance_profile(reg, v2)
    assert abs(prof.r_max - 2.0 * W) < 1e-12

    p34 = 1.615859035159145 * W
    c0 = 0.3672548324820458 * math.pi
    s3w = math.sqrt(3.0) * W
    # frozen constants trace back to the region's exact vertices
    v3, v4 = reg.vertices[2], reg.vertices[3]
    d34 = v4 - v3
    p34_exact = abs(d34[0] * (v2[1] - v3[1]) - d34[1] * (v2[0] - v3[0])) \
        / math.hypot(*d34)
    assert abs(p34 - p34_exact) < 1e-9
    c0_exact = math.atan2(math.sqrt(3.0) - math.sqrt(6.0) / 2.0,
                          math.sqrt(6.0) / 2.0 - 1.0)
    assert abs(c0 - c0_exact) < 1e-12

    for r in np.linspace(5.0, s3w - 1e-9, 20):
        expect = (math.pi / 4.0) * r / reg.area
        assert abs(prof.pdf(r) - expect) < 1e-12
    for k in range(1, 6):
        r = s3w + 5.0 * k
        theta = c0 - math.acos(p34 / r) - math.acos(s3w / r)
        assert abs(prof.pdf(r) - r * theta / reg.area) < 1e-9, r
    # pdf vanishes continuously at r_max
    assert prof.pdf(2.0 * W - 1e-7) < 1e-8
    assert prof.pdf(2.0 * W + 1e-7) == 0.0


def test_fig2_diagonal_intersection_profile_normalizes():
    reg = make_fig2_region(100.0)
    prof = distance_profile(reg, (33.42733287, 80.70072037))
    assert abs(_integral_of_pdf(prof) - 1.0) < 1e-8


def test_segment_corner_decomposition_agrees_with_arc_sweep():
    regs = [
        (make_fig2_region(100.0), (110.0, 40.0)),
        (make_regular_polygon(5, 7.0), (1.2, -0.4)),
        (polygon_region([(0, 0), (4, 0), (5, 3), (1, 4), (-1, 2)]),
         (2.0, 1.5)),
    ]
    for reg, y0 in regs:
        prof = distance_profile(reg, y0)
        r = np.linspace(1e-6, prof.r_max * (1 - 1e-9), 400)
        diff = np.abs(prof.pdf(r) - segment_corner_pdf(reg, y0, r))
        assert np.max(diff) < 1e-10


def test_profile_rejects_outside_receiver():
    with pytest.raises(InvalidParameterError):
        distance_profile(disk_region((0, 0), 1.0), (2.0, 0.0))
    with pytest.raises(InvalidParameterError):
        distance_profile(make_regular_polygon(4, 1.0), (1.0, 1.0))
    with pytest.raises(InvalidParameterError):
        segment_corner_pdf(make_regular_polygon(4, 1.0), (1.0, 1.0),
                           np.array([0.1]))
    with pytest.raises(InvalidParameterError):
        segment_corner_pdf(disk_region((0, 0), 1.0), (0.0, 0.0),
                           np.array([0.1]))


# ----- randomized structural invariants -----

def _random_region_and_point(rng):
    kind = rng.integers(0, 3)
    scale = 10.0 ** rng.uniform(-1.0, 2.0)
    cx, cy = rng.uniform(-2.0, 2.0, size=2) * scale
    if kind == 0:
        reg = disk_region((cx, cy), scale)
        ang = rng.uniform(0.0, TWO_PI)
        rad = scale * math.sqrt(rng.uniform(0.0, 1.0))
        y0 = (cx + rad * math.cos(ang), cy + rad * math.sin(ang))
        return reg, y0
    if kind == 1:
        L = int(rng.integers(3, 10))
        reg = make_regular_polygon(L, scale, center=(cx, cy))
    else:
        # vertices on a circle at sorted distinct angles: strictly convex
        L = int(rng.integers(3, 9))
        while True:
            ang = np.sort(rng.uniform(0.0, TWO_PI, size=L))
            if np.min(np.diff(np.concatenate([ang, [ang[0] + TWO_PI]]))) > 0.3:
                break
        verts = np.column_stack([cx + scale * np.cos(ang),
                                 cy + scale * np.sin(ang)])
        reg = polygon_region(verts)
    w = rng.dirichlet(np.ones(reg.vertices.shape[0]))
    y0 = tuple(w @ reg.vertices)
    return reg, y0


def test_random_profiles_normalize():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        reg, y0 = _random_region_and_point(rng)
        prof = distance_profile(reg, y0)
        total = _integral_of_pdf(prof)
        assert abs(total - 1.0) < 1e-8, (trial, reg.kind)


def test_random_profiles_pdf_is_cdf_derivative():
    rng = np.random.default_rng(99)
    for trial in range(60):
        reg, y0 = _random_region_and_point(rng)
        prof = distance_profile(reg, y0)
        h = 1e-5 * reg.scale
        edges = np.concatenate([[0.0], prof.breakpoints])
        mids = 0.5 * (edges[:-1] + edges[1:])
        # the arccos pieces have square-root-singular curvature at their
        # breakpoints, so probe only radii well clear of every kink
        clearance = np.minimum(mids - edges[:-1], edges[1:] - mids)
        mids = mids[clearance > max(0.02 * prof.r_max, 100.0 * h)]
        if mids.size == 0:
            continue
        pdf_scale = float(np.max(prof.pdf(
            np.linspace(1e-9, prof.r_max * (1 - 1e-9), 64))))
        for r in mids:
            numeric = (clip_cdf(reg, y0, r + h)
                       - clip_cdf(reg, y0, r - h)) / (2.0 * h)
            assert abs(prof.pdf(r) - numeric) <= 1e-6 * max(pdf_scale, 1e-300), \
                (trial, reg.kind, r)


def test_random_profiles_cdf_matches_integrated_pdf():
    rng = np.random.default_rng(5)
    for trial in range(40):
        reg, y0 = _random_region_and_point(rng)
        prof = distance_profile(reg, y0)
        for frac in (0.25, 0.6, 0.95):
            r = frac * prof.r_max
            got = clip_cdf(reg, y0, r)
            expect = _integral_of_pdf(prof, upto=r)
            assert abs(got - expect) < 1e-9, (trial, reg.kind, frac)
        assert clip_cdf(reg, y0, prof.r_max) == 1.0
        assert clip_cdf(reg, y0, 0.0) == 0.0


def test_breakpoints_end_at_r_max():
    rng = np.random.default_rng(17)
    for _ in range(30):
        reg, y0 = _random_region_and_point(rng)
        prof = distance_profile(reg, y0)
        assert abs(prof.breakpoints[-1] - prof.r_max) < 1e-9 * reg.scale
        assert all(b1 < b2 for b1, b2 in zip(prof.breakpoints,
                                             prof.breakpoints[1:]))
        assert prof.pdf(prof.r_max * 1.001) == 0.0


def test_constant_arc_pieces_have_constant_measure():
    rng = np.random.default_rng(31)
    for _ in range(25):
        reg, y0 = _random_region_and_point(rng)
        prof = distance_profile(reg, y0)
        if prof.constant_piece is None:
            continue
        hi, theta = prof.constant_piece
        rr = np.linspace(1e-9 * reg.scale, hi - 1e-9 * reg.scale, 7)
        rr = rr[rr > 0]
        got = prof.arc_measure(rr)
        assert np.max(np.abs(got - theta)) < 1e-10, reg.kind


def test_near_rim_disk_pieces_end_at_breakpoints():
    # W - d is below the breakpoint tolerance, so it is not a breakpoint and
    # [0, W - d] is no constant piece: the quadrature covers [0, W + d] once
    W = 100.0
    for d in (W * (1.0 - 1e-13), W * (1.0 - 1e-11), W):
        prof = distance_profile(disk_region((0, 0), W), (d, 0.0))
        if prof.constant_piece is not None:
            assert prof.constant_piece[0] in prof.breakpoints, d
