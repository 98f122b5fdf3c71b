"""Batched adaptive Gauss-Kronrod quadrature.

The integrators here evaluate a whole family of integrands (the "rows") that
share the same integration variable in a single vectorized call. Subdivision
is global: an interval is split while any row's accumulated error estimate
sits above that row's tolerance. This is what keeps the outage integrals fast:
one call integrates the inner distance expectation for hundreds of outer
quadrature nodes at once instead of running scalar quadpack in a loop.
_grouped_rows_quad runs several such integrals in lockstep, each with its
own panels, through one integrand call per round; adaptive_rows_quad is
its one-integral case.
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
_ONE_RUN = np.zeros(1, dtype=np.intp)   # where a lone integral's panels start


def _eval_panels(f, lo, hi, owner):
    """Gauss-Kronrod 15 on a batch of panels, owner[j] the integral of the
    j-th abscissa (see _grouped_rows_quad).

    Returns (integrals, error_estimates), each shaped (rows, panels).
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _XGK[None, :]).ravel()
    y = np.asarray(f(x, owner))
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
    vals, errs = _grouped_rows_quad(
        lambda x, owner: f(x), a, b, 1, breakpoints=breakpoints,
        rel_tol=rel_tol, abs_tol=abs_tol, max_panels=max_panels)
    return vals[0], errs[0]


def _grouped_rows_quad(f, a, b, groups, *, breakpoints=(), rel_tol=1e-10,
                       abs_tol=0.0, max_panels=4096):
    """Integrate ``groups`` independent row families over [a, b] in
    lockstep, each one as adaptive_rows_quad integrates it alone.

    Every integral starts from the same panels and keeps its own, with its
    own tolerance test, split rule and panel budget. Each refinement round
    evaluates the new panels of all live integrals through one call
    f(x, owner), which returns y as adaptive_rows_quad's f does, for all
    of x. x holds each integral's new abscissae in one contiguous run, in
    the order a call with that integral alone passes them, the integrals
    in ascending order; owner[j] is the integral of x[j]. Each integral
    sums only its own panels, so it gets the bits of a call with it alone.

    A row whose new panels evaluate to NaN sums to NaN from that round on,
    np.maximum carries the NaN into its tolerance, and total_err > tol is
    False, so the row never asks for refinement. An integral whose rows
    all turn NaN finishes in that round with NaN: it is never refined
    again and never meets the panel budget. So f may write NaN where it
    cannot form an integral's values.

    Returns (integrals, error_estimates), each shaped (groups, rows). An
    integral that exhausts the panel budget, or whose panels can no longer
    be split, fails with NumericFailure. The lowest-numbered integral's
    failure is raised, once every integral below it has finished.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise NumericFailure(f"empty integration range [{a}, {b}]")
    pts = np.unique(np.concatenate([[a, b], np.asarray(breakpoints, dtype=float)]))
    pts = pts[(pts >= a) & (pts <= b)]
    min_width = 1e-15 * (b - a)
    # The live integrals in ascending order and their panel counts. Each
    # one's panels are contiguous in lo, hi, vals and errs: the panels it
    # kept, then the left halves, then the right halves of those it split.
    live = np.arange(groups)
    count = np.array([pts.size - 1] * groups)
    lo = np.concatenate([pts[:-1]] * groups)
    hi = np.concatenate([pts[1:]] * groups)
    vals, errs = _eval_panels(f, lo, hi, live.repeat(15 * count))
    integrals = np.empty((groups, vals.shape[0]), dtype=vals.dtype)
    errors = np.empty((groups, vals.shape[0]))
    failure = None
    while True:
        # an array a with one entry or row per live integral reaches each
        # panel as a[at]; a lone integral's broadcasts as it is
        several = live.size > 1
        if several:
            at = np.repeat(np.arange(live.size), count)
            starts = np.cumsum(count) - count
            runs = list(zip(starts.tolist(), (starts + count).tolist()))
            total = np.stack([vals[:, i:j].sum(axis=1) for i, j in runs])
            total_err = np.stack([errs[:, i:j].sum(axis=1) for i, j in runs])
        else:
            at, starts = slice(None), _ONE_RUN
            total = vals.sum(axis=1)[None, :]
            total_err = errs.sum(axis=1)[None, :]
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        bad = total_err > tol
        refine = bad.any(axis=1)
        refining = np.count_nonzero(refine)
        if refining < live.size:
            integrals[live[~refine]] = total[~refine]
            errors[live[~refine]] = total_err[~refine]
            if not refining:
                break
        # a panel's score: its worst error relative to the tolerance, over
        # the rows its integral has not met; split those within
        # _SPLIT_FRACTION of their integral's worst
        score = errs / np.maximum(tol, 1e-300)[at].T
        np.copyto(score, 0.0, where=~bad[at].T)
        score = score.max(axis=0)
        split = score >= (_SPLIT_FRACTION
                          * np.maximum.reduceat(score, starts)[at])
        split &= (hi - lo) > min_width
        added = np.add.reduceat(split, starts, dtype=np.intp)
        # an integral fails at the panel budget, or when it splits no
        # panel; the first test passes over most rounds at once
        if lo.size >= max_panels or np.count_nonzero(added) < live.size:
            over = count >= max_panels
            fail = refine & (over | (added == 0))
            if fail.any():
                first = fail.argmax()
                if over[first]:
                    worst = float((total_err[first]
                                   / np.maximum(tol[first], 1e-300)).max())
                    failure = NumericFailure(
                        f"quadrature did not converge within {max_panels} "
                        f"panels (worst error {worst:.3g}x tolerance)")
                else:
                    failure = NumericFailure(
                        "quadrature stalled: panel width underflow")
                refine[first:] = False   # only a lower one can fail first
                if not refine.any():
                    break
        if several:
            panels = refine[at]
            split &= panels
            keep = panels & ~split
            key = at[split]
            live, count, added = live[refine], count[refine], added[refine]
        else:
            keep = ~split
        count = count + added
        slo, shi = lo[split], hi[split]
        smid = 0.5 * (slo + shi)
        new_lo = np.concatenate([slo, smid])
        new_hi = np.concatenate([smid, shi])
        if live.size > 1:
            # into each integral's left halves, then its right halves
            key = np.concatenate([key, key])
            order = np.argsort(key, kind="stable")
            new_lo, new_hi = new_lo[order], new_hi[order]
            order = np.argsort(np.concatenate([at[keep], key[order]]),
                               kind="stable")
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        new_vals, new_errs = _eval_panels(
            f, new_lo, new_hi, live.repeat(30 * added))
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        errs = np.concatenate([errs[:, keep], new_errs], axis=1)
        if live.size > 1:
            lo, hi = lo[order], hi[order]
            vals = vals.take(order, axis=1)   # C order, as the sums need
            errs = errs.take(order, axis=1)
    if failure is not None:
        raise failure
    return integrals, errors
