"""Oracles for the geometry and sampling tests.

The two distance pdfs and the distance cdf are independent of the
arc-measure path that `distance_profile` uses: the regular-polygon-centre
pdf is the textbook closed form, the polygon pdf comes from a
circular-segment / corner-overlap decomposition, and the cdf from exact
clipping of the circle against the region. The arc measure and the uniform
sampler are the plain-formula versions of `geometry._polygon_arc_measure`
and `sample_uniform_in_region`, which must reproduce them bit for bit (and
the sampler draw for draw).
"""

import math

import numpy as np

from finitenet.errors import InvalidParameterError
from finitenet.geometry import (TWO_PI, _as_xy, _disk_offset, _side_frames,
                                region_contains)


def _disk_overlap_area(W, d, r):
    """Area of disk(0, r) overlapped with disk at distance d and radius W."""
    r = np.asarray(r, dtype=float)
    out = np.empty(r.shape)
    full_small = r <= max(W - d, 0.0)
    full_big = r >= W + d
    out[full_small] = np.pi * r[full_small] ** 2
    out[full_big] = np.pi * W * W
    mid = ~(full_small | full_big)
    if np.any(mid):
        rm = np.maximum(r[mid], 1e-300)
        a1 = np.arccos(np.clip((d * d + rm * rm - W * W) / (2 * d * rm), -1, 1))
        a2 = np.arccos(np.clip((d * d + W * W - rm * rm) / (2 * d * W), -1, 1))
        s = np.clip((-d + rm + W) * (d + rm - W) * (d - rm + W) * (d + rm + W),
                    0.0, None)
        out[mid] = rm * rm * a1 + W * W * a2 - 0.5 * np.sqrt(s)
    return out


def _signed_angle(x0, y0_, x1, y1):
    """Signed angle from (x0, y0_) to (x1, y1), wrapped to (-pi, pi]."""
    return np.arctan2(x0 * y1 - y0_ * x1, x0 * x1 + y0_ * y1)


def _polygon_clip_area(v_rel, r):
    """Area of polygon (vertices relative to the circle center) within radius r.

    Vectorized over r; Green's-theorem accumulation per edge with the pieces
    outside the circle replaced by arcs.
    """
    r = np.asarray(r, dtype=float)[:, None]        # (n, 1)
    a = v_rel[None, :, :]                          # (1, L, 2)
    b = np.roll(v_rel, -1, axis=0)[None, :, :]
    e = b - a
    ee = (e * e).sum(axis=2)
    ae = (a * e).sum(axis=2)
    aa = (a * a).sum(axis=2)
    disc = ae * ae - ee * (aa - r * r)             # (n, L)
    sq = np.sqrt(np.clip(disc, 0.0, None))
    t1 = np.clip((-ae - sq) / ee, 0.0, 1.0)
    t2 = np.clip((-ae + sq) / ee, 0.0, 1.0)
    t2 = np.maximum(t2, t1)
    no_hit = disc <= 0.0
    t1 = np.where(no_hit, 0.0, t1)
    t2 = np.where(no_hit, 0.0, t2)

    def point(t):
        return a + t[..., None] * e                # (n, L, 2)

    p0, p1c, p2c, p3 = a + 0 * r[..., None], point(t1), point(t2), b + 0 * r[..., None]
    # inside chord piece [t1, t2]
    inner = 0.5 * (p1c[..., 0] * p2c[..., 1] - p1c[..., 1] * p2c[..., 0])
    # outside pieces [0, t1] and [t2, 1] sweep arcs
    arc1 = 0.5 * r ** 2 * _signed_angle(
        p0[..., 0], p0[..., 1], p1c[..., 0], p1c[..., 1])
    arc2 = 0.5 * r ** 2 * _signed_angle(
        p2c[..., 0], p2c[..., 1], p3[..., 0], p3[..., 1])
    return (inner + arc1 + arc2).sum(axis=1)


def clip_cdf(region, y0, r):
    """P(R <= r) for the distance R from y0 to a uniform point of the
    region: the area of the region within radius r of y0, over its area.
    Takes a scalar or an array of radii and returns a float for a scalar."""
    y = _as_xy(y0)
    if not region_contains(region, y):
        raise InvalidParameterError("reference point lies outside the region")
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if region.kind == "disk":
        W = region.radius
        d = _disk_offset(region, y)
        out = np.clip(_disk_overlap_area(W, d, np.maximum(rr, 0.0))
                      / region.area, 0.0, 1.0)
        out[rr <= 0] = 0.0
    else:
        v, _, _, _, vdist = _side_frames(region, y)
        out = np.empty(rr.shape)
        big = rr >= float(vdist.max())
        small = rr <= 0
        mid = ~(big | small)
        out[big] = 1.0
        out[small] = 0.0
        if np.any(mid):
            out[mid] = np.clip(_polygon_clip_area(v, rr[mid]) / region.area,
                               0.0, 1.0)
    return out if np.ndim(r) else float(out[0])


def pdf_regular_polygon_center(num_sides, circumradius, r):
    """Distance pdf from the center of a regular polygon."""
    L = int(num_sides)
    W = float(circumradius)
    interior = math.pi * (L - 2) / L
    apothem = W * math.sin(interior / 2.0)
    area = 0.5 * L * W * W * math.sin(TWO_PI / L)
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inner = (r >= 0) & (r <= apothem)
    out[inner] = TWO_PI * r[inner] / area
    mid = (r > apothem) & (r <= W)
    rm = r[mid]
    out[mid] = (TWO_PI * rm
                - 2.0 * L * rm * np.arccos(apothem / rm)) / area
    return out


def segment_corner_pdf(region, y0, r):
    """Distance pdf via the circular-segment / corner-overlap decomposition.

    Independent cross-check of the arc-measure path. Polygon regions only;
    assumes overlaps of outside regions happen only at corners (true for
    non-degenerate convex polygons within the distance support).
    """
    if region.kind != "polygon":
        raise InvalidParameterError("segment/corner decomposition needs a polygon")
    y = _as_xy(y0)
    if not region_contains(region, y):
        raise InvalidParameterError("reference point lies outside the region")
    v, _, p, _, vdist = _side_frames(region, y)
    L = v.shape[0]
    r = np.asarray(r, dtype=float)
    rs = np.maximum(r, 1e-300)
    total = TWO_PI * np.asarray(r, dtype=float).copy()
    # circular segments beyond each side's line
    for i in range(L):
        seg = 2.0 * rs * np.arccos(np.clip(p[i] / rs, -1.0, 1.0))
        total -= np.where(rs > p[i], seg, 0.0)
    # corner overlaps; corner i sits at vertex i between sides i-1 and i
    edges = np.roll(v, -1, axis=0) - v
    elen = np.hypot(edges[:, 0], edges[:, 1])
    for i in range(L):
        prev = (i - 1) % L
        vert = v[i]
        vd = vdist[i]
        d1 = edges[prev] / elen[prev]          # extension of incoming side
        d2 = -edges[i] / elen[i]               # extension of outgoing side, reversed
        # nearest point of the corner wedge to y0 (origin of v-frame)
        cands = []
        for dvec in (d1, d2):
            t = max(0.0, -float(np.dot(vert, dvec)))
            cands.append(float(np.hypot(*(vert + t * dvec))))
        w = min(cands)
        u1 = -d1
        u2 = -d2
        delta = math.acos(np.clip(np.dot(u1, u2), -1.0, 1.0))
        far = rs > max(vd, 1e-300)
        mid = (rs > w) & ~far
        dc = np.zeros_like(rs)
        dc[mid] = 2.0 * rs[mid] * np.arccos(np.clip(w / rs[mid], -1.0, 1.0))
        dc[far] = rs[far] * (
            -math.pi + delta
            + np.arccos(np.clip(p[i] / rs[far], -1.0, 1.0))
            + np.arccos(np.clip(p[prev] / rs[far], -1.0, 1.0)))
        total += dc
    out = np.clip(total, 0.0, None) / region.area
    out[r > vdist.max()] = 0.0
    out[r < 0] = 0.0
    return out


def polygon_arc_measure_plain(p, phi, r_max, r):
    """theta at the radii of the 1-d array r, from the side frames (p, phi)
    of a reference point whose farthest vertex lies at r_max: one fresh
    array per step, with the masked store and take_along_axis gathers."""
    rs = np.maximum(r, 1e-300)
    ratio = np.clip(p[None, :] / rs[:, None], -1.0, 1.0)
    w = np.arccos(ratio)
    w[rs[:, None] <= p[None, :]] = 0.0
    s = np.mod(phi[None, :] - w, TWO_PI)
    e = s + 2.0 * w
    starts = np.concatenate([s, np.zeros_like(s)], axis=1)
    ends = np.concatenate([np.minimum(e, TWO_PI),
                           np.clip(e - TWO_PI, 0.0, None)], axis=1)
    order = np.argsort(starts, axis=1, kind="stable")
    starts = np.take_along_axis(starts, order, axis=1)
    ends = np.take_along_axis(ends, order, axis=1)
    run = np.maximum.accumulate(ends, axis=1)
    prev = np.concatenate([np.zeros((rs.size, 1)), run[:, :-1]], axis=1)
    covered = np.clip(ends - np.maximum(starts, prev), 0.0, None).sum(axis=1)
    theta = np.clip(TWO_PI - covered, 0.0, TWO_PI)
    theta[r > r_max] = 0.0
    theta[r < 0.0] = 0.0
    return theta


def sample_uniform_plain(region, rng, size=None):
    """Uniform points from whole-array formulas and np.column_stack."""
    n = 1 if size is None else int(size)
    if region.kind == "disk":
        r = region.radius * np.sqrt(rng.random(n))
        ang = rng.random(n) * (2.0 * np.pi)
        pts = np.column_stack([region.center[0] + r * np.cos(ang),
                               region.center[1] + r * np.sin(ang)])
    else:
        v = region.vertices
        a = v[0]
        b = v[1:-1]
        c = v[2:]
        areas = 0.5 * np.abs((b[:, 0] - a[0]) * (c[:, 1] - a[1])
                             - (b[:, 1] - a[1]) * (c[:, 0] - a[0]))
        cum = np.cumsum(areas)
        pick = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
        pick = np.minimum(pick, areas.size - 1)
        u = rng.random(n)
        w = rng.random(n)
        flip = u + w > 1.0
        u = np.where(flip, 1.0 - u, u)
        w = np.where(flip, 1.0 - w, w)
        pts = a + u[:, None] * (b[pick] - a) + w[:, None] * (c[pick] - a)
    return pts[0] if size is None else pts
