"""Distance-pdf oracles for the geometry tests.

Both are independent of the arc-measure path that `distance_profile` uses:
the regular-polygon-centre pdf is the textbook closed form, and the polygon
pdf comes from a circular-segment / corner-overlap decomposition.
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
