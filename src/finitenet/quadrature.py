"""Batched adaptive Gauss-Kronrod quadrature.

The integrators here evaluate a whole family of integrands (the "rows") that
share the same integration variable in a single vectorized call. Subdivision
is global: an interval is split while any row's accumulated error estimate
sits above that row's tolerance. This is what keeps the outage integrals fast:
one call integrates the inner distance expectation for hundreds of outer
quadrature nodes at once instead of running scalar quadpack in a loop.
"""

import numpy as np

from .errors import NumericFailure

# ----- Gauss-Kronrod 15/7 pair (standard QUADPACK abscissae on [-1, 1]) -----

_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:-1:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_SPLIT_FRACTION = 0.25   # split every panel whose score is within 4x of the worst


def _eval_panels(f, lo, hi):
    """Gauss-Kronrod 15 on a batch of panels.

    Returns (integrals, error_estimates), both shaped (rows, panels).
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _XGK[None, :]).ravel()
    y = np.asarray(f(x))
    if y.ndim == 1:
        y = y[None, :]
    y = y.reshape(y.shape[0], lo.size, 15)
    k = (y * _WGK).sum(axis=2) * half
    g = (y * _WG).sum(axis=2) * half
    return k, np.abs(k - g)


def adaptive_rows_quad(f, a, b, *, breakpoints=(), rel_tol=1e-10, abs_tol=0.0,
                       max_panels=4096):
    """Integrate every row of ``f`` over [a, b] to the requested tolerance.

    ``f`` maps an abscissa array of shape (n,) to values of shape (rows, n)
    (a 1-d return is treated as a single row). Real and complex values are
    both fine. ``breakpoints`` are radii/abscissae where the integrand changes
    analytic form; they seed the initial panels. Each row is converged when
    its summed error estimate is below max(abs_tol, rel_tol * |integral|).

    Returns (integrals, error_estimates) with shape (rows,).
    Raises NumericFailure if the panel budget is exhausted first.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise NumericFailure(f"empty integration range [{a}, {b}]")
    pts = np.unique(np.concatenate([[a, b], np.asarray(breakpoints, dtype=float)]))
    pts = pts[(pts >= a) & (pts <= b)]
    lo = pts[:-1].copy()
    hi = pts[1:].copy()
    vals, errs = _eval_panels(f, lo, hi)
    min_width = 1e-15 * (b - a)
    while True:
        total = vals.sum(axis=1)
        total_err = errs.sum(axis=1)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        bad = total_err > tol
        if not bad.any():
            return total, total_err
        if lo.size >= max_panels:
            worst = float((total_err / np.maximum(tol, 1e-300)).max())
            raise NumericFailure(
                f"quadrature did not converge within {max_panels} panels "
                f"(worst error {worst:.3g}x tolerance)")
        score = (errs[bad] / np.maximum(tol[bad, None], 1e-300)).max(axis=0)
        split = score >= _SPLIT_FRACTION * score.max()
        split &= (hi - lo) > min_width
        if not split.any():
            raise NumericFailure("quadrature stalled: panel width underflow")
        slo, shi = lo[split], hi[split]
        smid = 0.5 * (slo + shi)
        new_vals, new_errs = _eval_panels(
            f, np.concatenate([slo, smid]), np.concatenate([smid, shi]))
        lo = np.concatenate([lo[~split], slo, smid])
        hi = np.concatenate([hi[~split], smid, shi])
        vals = np.concatenate([vals[:, ~split], new_vals], axis=1)
        errs = np.concatenate([errs[:, ~split], new_errs], axis=1)

