"""Convex regions and receiver-to-node distance laws.

A network region is a disk or a strictly convex polygon. For a reference
point y0 in the closed region, the distance R from y0 to a uniformly
distributed node has density f_R(r) = r * theta(r) / |A|, where theta(r) is
the angular measure of directions phi with y0 + r*(cos phi, sin phi) still
inside the region. For polygons theta is computed as 2*pi minus the measure
of the union of per-side "outside" arcs. Both engines read the law only
through this pdf (and its constant-angle piece).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

TWO_PI = 2.0 * math.pi

# relative tolerances (scaled by the region's characteristic length)
CONTAINMENT_RTOL = 1e-12
BREAKPOINT_DEDUP_RTOL = 1e-12
_ZERO_DIST_RTOL = 1e-12      # below this, a side is treated as through y0
# polygon products, and the squared offsets of Monte Carlo, overflow past
# this coordinate
_MAX_COORD = 1e153


@dataclass(frozen=True, eq=False)
class Region:
    """A disk (center, radius) or a strictly convex CCW polygon (vertices)."""
    kind: str
    area: float
    scale: float
    center: np.ndarray = None
    radius: float = 0.0
    vertices: np.ndarray = None


@dataclass(frozen=True, eq=False)
class DistanceProfile:
    """Distance law from a reference point to a uniform node in the region.

    breakpoints: sorted radii where the pdf changes analytic form, ending
        with r_max. pdf/arc_measure take a scalar or an array of radii;
        the pdf is r * arc_measure(r) / area.
    constant_piece: (hi, theta), with [0, hi] the constant-angle piece:
        hi is the largest breakpoint at or below the contact radius, the
        nearest boundary point off the sides through the reference point.
        The inside-arc measure is the constant theta there, so
        f_R(r) = theta * r / area exactly and closed-form expectation
        formulas apply; beyond hi theta is arccos-shaped. None when the
        contact radius is within rounding of 0, or no breakpoint lies at or
        below it (a disk receiver within rounding of the rim).
    """
    r_max: float
    breakpoints: tuple
    area: float
    pdf: object
    arc_measure: object
    constant_piece: object


# ----- region constructors -----

def disk_region(center, radius):
    area = math.pi * radius * radius
    if not (radius > 0 and 0 < area < math.inf):
        raise InvalidParameterError(
            f"disk radius must be positive, with a positive finite area, got "
            f"{radius}")
    if not radius < _MAX_COORD:
        raise InvalidParameterError(
            f"disk radius must be below {_MAX_COORD:.0e}, got {radius}")
    c = np.array(center, dtype=float).reshape(2)
    if not np.all(np.abs(c) < _MAX_COORD):
        raise InvalidParameterError(
            f"disk centre must be finite and within {_MAX_COORD:.0e} of the "
            f"origin, got {c}")
    c.setflags(write=False)
    return Region(kind="disk", area=area, scale=float(radius), center=c,
                  radius=float(radius))


def polygon_region(vertices):
    v = np.array(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise InvalidParameterError("polygon needs at least 3 planar vertices")
    if not np.all(np.abs(v) < _MAX_COORD):
        raise InvalidParameterError(
            f"polygon vertices must be finite and within {_MAX_COORD:.0e} of "
            "the origin, for a finite area")
    edges = np.roll(v, -1, axis=0) - v
    scale = float(np.hypot(edges[:, 0], edges[:, 1]).max())
    cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] \
        - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
    if np.any(cross <= 1e-12 * scale * scale):
        raise InvalidParameterError(
            "vertices must describe a strictly convex counter-clockwise polygon")
    area = 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1)
                              - np.roll(v[:, 0], -1) * v[:, 1]))
    if area <= 0:
        raise InvalidParameterError("polygon vertices must be counter-clockwise")
    v = v.copy()
    v.setflags(write=False)
    return Region(kind="polygon", area=area, scale=scale, vertices=v)


def make_regular_polygon(num_sides, circumradius, center=(0.0, 0.0)):
    """Regular polygon with num_sides vertices on a circle of given radius."""
    if num_sides < 3:
        raise InvalidParameterError(f"need at least 3 sides, got {num_sides}")
    if not (math.isfinite(circumradius) and circumradius > 0):
        raise InvalidParameterError("circumradius must be positive and finite")
    ang = TWO_PI * np.arange(num_sides) / num_sides
    c = np.asarray(center, dtype=float)
    verts = c + circumradius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return polygon_region(verts)


def make_fig2_region(width):
    """Benchmark convex quadrilateral, parameterized by its short side W.

    Interior angles are pi/2, pi/4, 0.61725..pi, 0.63275..pi; with W = 100
    the area is about 13143 and the far vertices sit at (173.2, 0) and
    (50.73, 122.47).
    """
    if not (math.isfinite(width) and width > 0):
        raise InvalidParameterError("width must be positive and finite")
    s3 = math.sqrt(3.0)
    s6h = math.sqrt(6.0) / 2.0
    verts = width * np.array([
        [0.0, 0.0],
        [s3, 0.0],
        [s3 - s6h, s6h],
        [0.0, 1.0],
    ])
    return polygon_region(verts)


# ----- containment -----

def _as_xy(y0):
    return np.asarray(y0, dtype=float).reshape(2)


def region_contains(region, point):
    xy = _as_xy(point)
    tol = CONTAINMENT_RTOL * region.scale
    if region.kind == "disk":
        return np.hypot(*(xy - region.center)) <= region.radius + tol
    v = region.vertices
    edges = np.roll(v, -1, axis=0) - v
    # inward signed distance: cross(edge, point - vertex) / |edge|
    elen = np.hypot(edges[:, 0], edges[:, 1])
    d = (edges[:, 0] * (xy[1] - v[:, 1]) - edges[:, 1] * (xy[0] - v[:, 0])) / elen
    return bool(np.all(d >= -tol))


# ----- polygon side frames relative to y0 -----

def _side_frames(region, y0):
    """Per-side data relative to y0: outward normal direction angle phi,
    distance p >= 0 from y0 to the side's line, and vertex distances."""
    v = region.vertices - y0[None, :]
    edges = np.roll(v, -1, axis=0) - v
    elen = np.hypot(edges[:, 0], edges[:, 1])
    nx = edges[:, 1] / elen
    ny = -edges[:, 0] / elen
    p = v[:, 0] * nx + v[:, 1] * ny
    p = np.maximum(p, 0.0)            # y0 is inside; clip boundary round-off
    phi = np.arctan2(ny, nx)
    vdist = np.hypot(v[:, 0], v[:, 1])
    return v, np.stack([nx, ny], axis=1), p, phi, vdist


def inside_arc_measure(region, y0, r):
    """Angular measure theta(r) of directions that stay inside the region.

    Vectorized over r. theta(r) = 2*pi for r below the distance to the
    nearest boundary feature and 0 beyond the farthest vertex.
    """
    return distance_profile(region, y0).arc_measure(r)


def _disk_offset(region, y):
    """Receiver offset from the disk centre, in [0, W]: a rim receiver
    accepted within the containment tolerance can round to an offset just
    past W, and one within the zero-distance tolerance is the centre."""
    d = min(float(np.hypot(*(y - region.center))), region.radius)
    return 0.0 if d <= _ZERO_DIST_RTOL * region.scale else d


def _disk_arc_measure(W, d, r):
    """theta at the radii of the 1-d array r for a receiver at offset d in
    [0, W] from the centre of a disk of radius W."""
    out = np.full(r.shape, TWO_PI)
    if d == 0.0:
        out[r > W] = 0.0
    else:
        out[r >= W + d] = 0.0
        mid = (r > W - d) & (r < W + d)
        rm = r[mid]
        arg = (rm * rm + d * d - W * W) / (2.0 * d * rm)
        out[mid] = 2.0 * np.arccos(np.clip(arg, -1.0, 1.0))
    out[r < 0.0] = 0.0
    return out


def _polygon_arc_measure(p, phi, r_max, r):
    """theta at the radii of the 1-d array r, from the side frames (p, phi)
    of a reference point whose farthest vertex lies at r_max.

    Side i leaves an outside arc of half-width arccos(p_i/r) about phi_i,
    none while r <= p_i (the ratio clips to 1 and arccos(1) is +0.0). Arcs
    that wrap past 2*pi are split at 0, and the union is measured in one
    sweep over the arcs sorted by start."""
    n, L = r.size, p.size
    rs = np.maximum(r, 1e-300)
    # arccos runs on a fresh contiguous array, as in the plain formulas, so
    # both take the same numpy loop and agree to the last bit
    w = p[None, :] / rs[:, None]
    np.minimum(w, 1.0, out=w)
    np.arccos(w, out=w)
    starts = np.zeros((n, 2 * L))
    ends = np.empty((n, 2 * L))
    s = starts[:, :L]
    np.subtract(phi, w, out=s)
    np.mod(s, TWO_PI, out=s)
    e = np.add(s, 2.0 * w, out=w)
    np.minimum(e, TWO_PI, out=ends[:, :L])
    np.subtract(e, TWO_PI, out=ends[:, L:])
    np.maximum(ends[:, L:], 0.0, out=ends[:, L:])
    rows = np.arange(n)[:, None]
    order = np.argsort(starts, axis=1, kind="stable")
    starts = starts[rows, order]
    ends = ends[rows, order]
    # each arc counts from the furthest end among the arcs before it
    gap = np.zeros((n, 2 * L))
    np.maximum.accumulate(ends[:, :-1], axis=1, out=gap[:, 1:])
    np.maximum(starts, gap, out=gap)
    np.subtract(ends, gap, out=gap)
    covered = np.maximum(gap, 0.0, out=gap).sum(axis=1)
    theta = np.clip(TWO_PI - covered, 0.0, TWO_PI)
    theta[r > r_max] = 0.0
    theta[r < 0.0] = 0.0
    return theta


# ----- closed-form disk pdf -----

def pdf_disk_closed_form(W, d, r):
    """Distance pdf for a disk of radius W, receiver offset d from center."""
    if not (0 <= d <= W):
        raise InvalidParameterError(f"offset must lie in [0, W], got {d}")
    r = np.asarray(r, dtype=float)
    return np.where(r < 0, 0.0,
                    r * _disk_arc_measure(W, d, r) / (math.pi * W * W))


# ----- distance profile assembly -----

def _line_pair_distances(v, nrm, p, r_max, scale):
    """Distances from y0 to the intersection points of side-line pairs.

    Radii where two outside arcs start or stop overlapping; adjacent pairs
    reproduce the vertex distances."""
    L = v.shape[0]
    out = []
    for i in range(L):
        for j in range(i + 1, L):
            det = nrm[i, 0] * nrm[j, 1] - nrm[i, 1] * nrm[j, 0]
            if abs(det) < 1e-12:
                continue
            x = (p[i] * nrm[j, 1] - p[j] * nrm[i, 1]) / det
            y = (nrm[i, 0] * p[j] - nrm[j, 0] * p[i]) / det
            dist = math.hypot(x, y)
            if 1e-12 * scale < dist < r_max * (1.0 - 1e-12):
                out.append(dist)
    return out


def _dedup_sorted(values, tol):
    out = []
    for val in sorted(values):
        if not out or val - out[-1] > tol:
            out.append(val)
    return out


def _contact_radius(v, p, vdist, p_zero_tol):
    """Distance from y0 (the origin of the side frames) to the nearest
    boundary point off the sides through y0.

    A side's nearest point is the foot of the perpendicular when that foot
    lies on the side, and otherwise the side's nearer vertex."""
    nxt = np.roll(v, -1, axis=0)
    e = nxt - v
    foot_inside = ((v * e).sum(axis=1) <= 0.0) & ((nxt * e).sum(axis=1) >= 0.0)
    reach = np.where(foot_inside, p, np.minimum(vdist, np.roll(vdist, -1)))
    return float(reach[p > p_zero_tol].min())


def _scalar_or_array(f):
    """Lift f, which maps a 1-d float array of radii to an array, to take a
    scalar or an array of radii and return a float for a scalar."""
    def call(r):
        out = f(np.atleast_1d(np.asarray(r, dtype=float)))
        return out if np.ndim(r) else float(out[0])
    return call


def distance_profile(region, y0):
    """Build the distance law (pdf, arc measure, breakpoints) for a
    reference point."""
    y = _as_xy(y0)
    if not region_contains(region, y):
        raise InvalidParameterError(
            f"reference point {y.tolist()} lies outside the region")
    area = region.area

    if region.kind == "disk":
        W = region.radius
        d = _disk_offset(region, y)
        r_max = W + d
        tol = BREAKPOINT_DEDUP_RTOL * region.scale
        breaks = [W + d] if d == 0.0 or W - d <= tol else [W - d, W + d]

        def arc_measure(r):
            return _disk_arc_measure(W, d, r)

        def pdf(r):
            return pdf_disk_closed_form(W, d, r)

        # the circle stays inside the disk up to the rim's nearest point
        contact = W - d
    else:
        v, nrm, p, phi, vdist = _side_frames(region, y)
        r_max = float(vdist.max())
        scale = region.scale
        raw = [float(x) for x in p if x > 1e-12 * scale]
        raw += [float(x) for x in vdist if x > 1e-12 * scale]
        raw += _line_pair_distances(v, nrm, p, r_max, scale)
        raw = [x for x in raw if x < r_max * (1 - 1e-12)]
        tol = BREAKPOINT_DEDUP_RTOL * max(r_max, scale)
        breaks = _dedup_sorted(raw, tol)
        breaks.append(r_max)

        def arc_measure(r):
            return _polygon_arc_measure(p, phi, r_max, r)

        def pdf(r):
            out = r * arc_measure(r) / area
            out[r < 0] = 0.0
            return out

        # Below the contact radius the circle meets only sides through y0,
        # whose outside arcs keep a half-width of pi/2, so theta is constant
        # there; beyond it theta decreases. The contact radius is itself a
        # breakpoint.
        contact = _contact_radius(v, p, vdist, 1e-12 * scale)

    his = [b for b in breaks if b <= contact]
    piece = None
    if contact > tol and his:
        hi = his[-1]
        piece = (hi, float(arc_measure(np.array([0.5 * hi]))[0]))
    return DistanceProfile(
        r_max=r_max, breakpoints=tuple(breaks), area=area,
        pdf=_scalar_or_array(pdf),
        arc_measure=_scalar_or_array(arc_measure), constant_piece=piece)
