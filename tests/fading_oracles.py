"""Oracles for the fading tests: the Nakagami power-gain laws.

The engines never evaluate these laws directly: the transform engine
averages the gamma gain analytically inside its radial kernel, and the
series engine uses the integer-shape CDF's exponential polynomial. The
tests check those routes against the plain density and the regularized
lower gamma function here.
"""

import math

import numpy as np

from finitenet.errors import InvalidParameterError


def nakagami_power_gain_pdf(m, g):
    """Density of the unit-mean Gamma power gain: m^m g^(m-1) e^(-m g)/Gamma(m)."""
    if m < 0.5:
        raise InvalidParameterError(f"shape must be >= 0.5, got {m}")
    g_arr = np.asarray(g, dtype=float)
    out = np.zeros(np.atleast_1d(g_arr).shape)
    ga = np.atleast_1d(g_arr)
    pos = ga > 0
    out[pos] = np.exp(m * math.log(m) + (m - 1.0) * np.log(ga[pos])
                      - m * ga[pos] - math.lgamma(m))
    if m == 1.0:
        out[ga == 0] = 1.0
    return out if g_arr.ndim else float(out[0])


def nakagami_reference_cdf(m0, x):
    """CDF of the reference power gain: regularized lower gamma P(m0, m0 x)."""
    if m0 < 0.5:
        raise InvalidParameterError(f"shape must be >= 0.5, got {m0}")
    from scipy import special as _sp
    x_arr = np.asarray(x, dtype=float)
    return _sp.gammainc(m0, m0 * np.clip(x_arr, 0.0, None))
