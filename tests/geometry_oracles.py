"""Oracles for the geometry and sampling tests.

The two distance pdfs are independent of the arc-measure path that
`distance_profile` uses: the regular-polygon-centre pdf is the textbook
closed form, and the polygon pdf comes from a circular-segment /
corner-overlap decomposition. The arc measure and the uniform sampler are
the plain-formula versions of `geometry._polygon_arc_measure` and
`sample_uniform_in_region`, which must reproduce them bit for bit (and the
sampler draw for draw).
"""

import math

import numpy as np

from finitenet.errors import InvalidParameterError
from finitenet.geometry import TWO_PI, _as_xy, _side_frames, region_contains


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
