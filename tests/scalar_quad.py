"""Scalar quadrature for test oracles.

The engines integrate batches of rows with quadrature.adaptive_rows_quad;
the tests often need one plain integral, which this wraps.
"""

import numpy as np

from finitenet.quadrature import adaptive_rows_quad


def adaptive_quad(f, a, b, *, breakpoints=(), rel_tol=1e-10, abs_tol=0.0,
                  max_panels=4096):
    """Scalar convenience wrapper: one row, returns (integral, error_estimate)."""
    vals, errs = adaptive_rows_quad(
        lambda x: np.asarray(f(x))[None, :], a, b,
        breakpoints=breakpoints, rel_tol=rel_tol, abs_tol=abs_tol,
        max_panels=max_panels)
    return vals[0], errs[0]
