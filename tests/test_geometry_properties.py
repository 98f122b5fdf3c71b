"""Property tests of the polygon distance law over random strictly convex
polygons, with receivers in the interior, on an edge and at a vertex, of
its arc measure against the plain-formula version bit for bit, of the
series engine's moments against an all-quadrature oracle, and of its
outage against the exponential-polynomial family on the same law. The
cases come from seeded generators (seeded_cases), so every host draws the
same ones."""

import math

import numpy as np

from finitenet import (NakagamiChannel, NumericFailure, Scenario, disk_region,
                       distance_profile, geometry, make_fig2_region,
                       nakagami_as_general_cdf, outage_general_family,
                       outage_rlpg, outage_rlpg_for_counts, polygon_region,
                       rlpg)
from finitenet.quadrature import adaptive_rows_quad

from geometry_oracles import (clip_cdf, polygon_arc_measure_plain,
                              segment_corner_pdf)
from scalar_quad import adaptive_quad
from seeded_cases import check_cases

TWO_PI = 2.0 * math.pi


def polygons(draw):
    """Vertices at distinct angles on a rotated, shifted ellipse."""
    n = draw.integers(3, 8)
    gaps = np.array([draw.floats(0.2, 1.0) for _ in range(n)])
    ang = draw.floats(0.0, TWO_PI) \
        + TWO_PI * (np.cumsum(gaps) - gaps[0]) / gaps.sum()
    squash = draw.floats(0.3, 1.0)
    rot = draw.floats(0.0, math.pi)
    scale = draw.log_floats(0.1, 1000.0)
    shift = np.array([draw.floats(-2.0, 2.0),
                      draw.floats(-2.0, 2.0)]) * scale
    x, y = np.cos(ang), squash * np.sin(ang)
    c, s = math.cos(rot), math.sin(rot)
    return polygon_region(
        scale * np.column_stack([c * x - s * y, s * x + c * y]) + shift)


def polygon_and_receiver(draw, kind):
    reg = polygons(draw)
    v = reg.vertices
    n = v.shape[0]
    i = draw.integers(0, n - 1)
    if kind == "vertex":
        return reg, v[i]
    if kind == "edge":
        t = draw.floats(0.05, 0.95)
        return reg, v[i] + t * (v[(i + 1) % n] - v[i])
    w = np.array([draw.floats(0.05, 1.0) for _ in range(n)])
    return reg, (w / w.sum()) @ v


def receivers_at(kind):
    """Case generator of (polygon, receiver) with the receiver at kind."""
    return lambda draw: polygon_and_receiver(draw, kind)


def _check_profile(reg, y0):
    prof = distance_profile(reg, y0)
    edges = np.concatenate([[0.0], prof.breakpoints])

    total, _ = adaptive_quad(prof.pdf, 0.0, prof.r_max,
                             breakpoints=prof.breakpoints,
                             rel_tol=1e-10, abs_tol=1e-12)
    assert abs(total - 1.0) <= 1e-8

    # a uniform grid: right at a breakpoint the arccos terms amplify the
    # last-bit differences between the two decompositions
    r = np.linspace(0.0, prof.r_max, 257)[1:]
    gap = np.abs(prof.pdf(r) - segment_corner_pdf(reg, y0, r))
    assert np.max(gap) * reg.scale <= 1e-12

    # the clipping CDF is an independent code path from the pdf
    for r in prof.r_max * np.array([0.3, 0.6, 0.9]):
        below = [b for b in prof.breakpoints if b < r]
        mass, _ = adaptive_quad(prof.pdf, 0.0, r, breakpoints=below,
                                rel_tol=1e-12, abs_tol=1e-14)
        assert abs(clip_cdf(reg, y0, r) - mass) <= 1e-10

    # the constant piece [0, last] ends at a breakpoint
    last, theta = prof.constant_piece
    assert last in prof.breakpoints
    got = prof.arc_measure(np.linspace(0.0, last, 33)[1:-1])
    assert np.max(np.abs(got - theta)) <= 1e-12

    after = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])
             if lo >= last and hi - lo > 1e-6 * reg.scale]
    if after:
        lo, hi = after[0]
        theta = prof.arc_measure(lo + (hi - lo) * np.linspace(0.1, 0.9, 5))
        assert np.all(np.diff(theta) < 0.0)


def test_interior_receiver_profile():
    check_cases(_check_profile, receivers_at("interior"), 150, seed=1)


def test_edge_receiver_profile():
    check_cases(_check_profile, receivers_at("edge"), 150, seed=2)


def test_vertex_receiver_profile():
    check_cases(_check_profile, receivers_at("vertex"), 150, seed=3)


def _check_arc_measure(reg, y0):
    # every side and vertex distance is a radius where an arc opens or two
    # arcs meet; 0, -0.0, r_max and the radii outside the support are the
    # edge cases of the masks
    _, _, p, phi, vdist = geometry._side_frames(reg, geometry._as_xy(y0))
    r_max = float(vdist.max())
    r = np.concatenate([np.linspace(0.0, r_max, 129), p, vdist,
                        [0.0, -0.0, r_max, np.nextafter(r_max, np.inf),
                         1.5 * r_max, -1.0]])
    got = geometry._polygon_arc_measure(p, phi, r_max, r)
    want = polygon_arc_measure_plain(p, phi, r_max, r)
    assert got.tobytes() == want.tobytes()


def test_arc_measure_matches_plain_formulas_bit_for_bit():
    check_cases(_check_arc_measure,
                lambda draw: polygon_and_receiver(
                    draw, draw.sampled_from(("interior", "edge", "vertex"))),
                150, seed=4)


def _omega_by_quadrature(prof, ts, m, alpha, c):
    """Oracle for rlpg._omega_values with no closed form: the same kernel
    against the pdf over all of [0, r_max], split at every breakpoint."""
    lead = rlpg._kernel_lead(ts, m)

    def rows(r):
        return (rlpg._kernel_rows(r, ts, lead, m, alpha, c)
                * prof.pdf(r)[None, :])

    vals, _ = adaptive_rows_quad(rows, 0.0, prof.r_max,
                                 breakpoints=prof.breakpoints, rel_tol=1e-13)
    return vals


def moment_params(draw):
    """Interferer shape m, path-loss exponent and the tilt c as a multiple
    of r_max^alpha (the kernel's knee sits at r ~ (c/m)^(1/alpha))."""
    return (draw.floats(0.5, 3.0), draw.floats(2.0, 6.0),
            draw.floats(-3.0, 1.0))


def _check_moments(reg, y0, params):
    prof = distance_profile(reg, y0)
    m, alpha, log_c = params
    c = 10.0 ** log_c * prof.r_max ** alpha
    ts = np.arange(3)
    got = rlpg._omega_values(prof, ts, m, alpha, c)
    want = _omega_by_quadrature(prof, ts, m, alpha, c)
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), (got, want)


def disk_and_receiver(draw):
    """Disk receivers at the centre, inside, on the rim and within rounding
    of the rim, where W - d falls below the breakpoint tolerance."""
    radius = draw.log_floats(0.1, 1000.0)
    frac = draw.sampled_from((
        lambda: 0.0, lambda: draw.floats(0.0, 1.0),
        lambda: draw.sampled_from((1.0 - 1e-13, 1.0 - 1e-11, 1.0))))()
    ang = draw.floats(0.0, TWO_PI)
    d = frac * radius
    return disk_region((0.0, 0.0), radius), (d * math.cos(ang),
                                             d * math.sin(ang))


def _with_moment_params(receivers):
    return lambda draw: (*receivers(draw), moment_params(draw))


def test_interior_receiver_moments():
    check_cases(_check_moments, _with_moment_params(receivers_at("interior")),
                30, seed=5)


def test_edge_receiver_moments():
    check_cases(_check_moments, _with_moment_params(receivers_at("edge")),
                30, seed=6)


def test_vertex_receiver_moments():
    check_cases(_check_moments, _with_moment_params(receivers_at("vertex")),
                30, seed=7)


def test_disk_receiver_moments():
    check_cases(_check_moments, _with_moment_params(disk_and_receiver),
                30, seed=8)


def test_moments_fall_back_to_quadrature_without_the_closed_form(
        monkeypatch):
    # a constant piece whose 2F1 fails goes to the one quadrature, which
    # then covers [0, r_max]
    refused = []

    def refuse(*args):
        refused.append(args)
        raise NumericFailure("2F1 refused")

    monkeypatch.setattr(rlpg, "gauss_2f1", refuse)
    fig2 = make_fig2_region(100.0)
    m, alpha, ts = 1.5, 3.5, np.arange(3)
    c = 2.0 * 5.0 ** alpha
    for reg, y0 in ((disk_region((0.0, 0.0), 100.0), (25.0, 0.0)),
                    (fig2, fig2.vertices[1])):
        prof = distance_profile(reg, y0)
        assert prof.constant_piece is not None
        got = rlpg._omega_values(prof, ts, m, alpha, c)
        want = _omega_by_quadrature(prof, ts, m, alpha, c)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), reg.kind
    assert len(refused) == 2


def outage_scenarios(draw):
    """A random region and receiver (polygon interior, edge or vertex, or a
    disk) with an integer reference shape m0 in 1-30, as a 1-tuple. m0 is
    drawn uniform in its logarithm: a count scan at m0 near 30 takes
    seconds."""
    kind = draw.sampled_from(("interior", "edge", "vertex", "disk"))
    reg, y0 = (disk_and_receiver(draw) if kind == "disk"
               else polygon_and_receiver(draw, kind))
    m, alpha, _ = moment_params(draw)
    return (Scenario(
        region=reg, receiver=y0, r0=draw.floats(0.01, 0.2) * reg.scale,
        num_interferers=draw.integers(0, 11),
        channel=NakagamiChannel(m0=round(draw.log_floats(1.0, 30.0)), m=m),
        alpha=alpha, beta=10.0 ** draw.floats(-1.0, 1.0),
        rho0=10.0 ** draw.floats(0.0, 3.0)),)


def _outcome(engine, *args):
    try:
        return engine(*args).outage
    except NumericFailure as exc:
        return str(exc)


def _check_series_outage(sc):
    # the integer-shape Nakagami law as an exponential polynomial runs the
    # same moments and assembly as the series engine, so both give the same
    # number, or both refuse with the same message (a moment table that
    # underflows, as at scale ~1000 with alpha = 6 and m0 = 30)
    m0 = sc.channel.m0
    series = _outcome(outage_rlpg, sc)
    assert _outcome(outage_general_family, sc,
                    nakagami_as_general_cdf(m0)) == series
    if isinstance(series, str):
        return
    eps = outage_rlpg_for_counts(sc, range(65))
    assert all(0.0 <= e <= 1.0 for e in eps)
    assert all(a <= b for a, b in zip(eps, eps[1:])), eps


def test_series_outage_matches_general_family():
    check_cases(_check_series_outage, outage_scenarios, 40, seed=9)
