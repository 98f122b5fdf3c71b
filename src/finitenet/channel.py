"""Fading channel models: Nakagami power gains and the exponential-polynomial
CDF family that the reference-link-power framework accepts."""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, ModelInconsistencyError,
                     UnsupportedModelError)

_CDF_CLAMP = 1e-14
# Past this exponent e^(-x) nears the subnormal range and e^x the overflow.
_EXP_RANGE = 700.0
_INTEGER_TOL = 1e-9

# The largest whole-number input (an interferer count, a series order, a
# power): every integer up to it is exactly a float, which is how the
# engines carry them.
MAX_WHOLE = 2 ** 53


@dataclass(frozen=True)
class NakagamiChannel:
    """Nakagami fading on both link types; power gains are unit-mean Gamma.

    m0: shape of the reference link, m: shape of every interferer link.
    approximates: set when the channel was built as a stand-in for another
    fading family ("hoyt" or "rice"); such channels are approximations.
    """
    m0: float
    m: float
    approximates: str = None

    def __post_init__(self):
        if not (self.m0 >= 0.5 and self.m >= 0.5):
            raise InvalidParameterError(
                f"Nakagami shapes need m >= 0.5, got m0={self.m0} m={self.m}")

    @staticmethod
    def from_hoyt(q0, q):
        """Approximate a Hoyt(q) channel; valid mapping for q in (0, 1]."""
        return NakagamiChannel(m0=_hoyt_shape(q0), m=_hoyt_shape(q),
                               approximates="hoyt")

    @staticmethod
    def from_rice(n0, n):
        """Approximate a Rice(n) channel (n is the LOS/diffuse ratio)."""
        return NakagamiChannel(m0=_rice_shape(n0), m=_rice_shape(n),
                               approximates="rice")


def _hoyt_shape(q):
    if not 0 < q <= 1:
        raise InvalidParameterError(f"Hoyt parameter must be in (0, 1], got {q}")
    return (1 + q * q) ** 2 / (2.0 * (1 + 2 * q ** 4))


def _rice_shape(n):
    if n < 0:
        raise InvalidParameterError(f"Rice parameter must be >= 0, got {n}")
    return (1 + n * n) ** 2 / (1 + 2 * n * n)


@dataclass(frozen=True)
class GeneralFadingCdf:
    """Reference gain CDF of the form F(g) = 1 - sum_n e^(-n g) sum_k a_nk g^k.

    terms: tuple of (n, k, a_nk) with decay rates n > 0, integer powers
    k >= 0. The family covers integer-shape Nakagami exactly and many other
    fading laws; coefficients are validated to give a monotone CDF in [0, 1].
    """
    terms: tuple


def integer_shape(x):
    """The positive integer within 1e-9 of x, or None.

    The one rule for "is this shape an integer": the series engine, the
    exponential-polynomial family and the CLI's `auto` routing all use it."""
    if math.isfinite(x):
        n = round(x)
        if n >= 1 and abs(x - n) <= _INTEGER_TOL:
            return int(n)
    return None


def _is_whole(x):
    """x is an integer, or a finite float with an integral value, and not a
    bool. Integers are tested first, so one too large for a float is still
    whole.

    The one rule for "is this input a whole number": interferer counts,
    series orders, powers, sample sizes, trial counts and seeds all use it."""
    if isinstance(x, bool):
        return False
    return isinstance(x, numbers.Integral) or (
        isinstance(x, numbers.Real) and math.isfinite(x) and x == int(x))


def nakagami_terms(m0):
    """(k, m0**k / k!) for k < m0, the polynomial of the integer-shape
    reference CDF P(m0, m0 g) = 1 - e^(-m0 g) sum_k a_k g^k. Integer powers
    and factorials, so each coefficient is correctly rounded."""
    return [(k, m0 ** k / math.factorial(k)) for k in range(m0)]


def general_fading_cdf(terms, check_grid=None):
    """Validate coefficients and build a GeneralFadingCdf.

    The default check grid reaches past the tail of every term: a term
    g^k e^(-n g) peaks at k/n and has spread about sqrt(k+1)/n."""
    cleaned = []
    for n, k, a in terms:
        rate = integer_shape(n)
        if rate is None:
            raise ModelInconsistencyError(
                f"decay rate must be a positive integer, got {n}")
        if not (_is_whole(k) and 0 <= k <= MAX_WHOLE):
            raise ModelInconsistencyError(
                f"power must be an integer in [0, {MAX_WHOLE}], got {k}")
        cleaned.append((float(rate), int(k), float(a)))
    cdf = GeneralFadingCdf(terms=tuple(cleaned))
    if check_grid is None:
        end = max((k + 12.0 * math.sqrt(k + 1.0) + 40.0) / n
                  for n, k, _ in cleaned)
        check_grid = np.linspace(0.0, end, 2001)
    vals = general_cdf_eval(cdf, check_grid)
    if np.any(np.diff(vals) < -1e-12):
        raise ModelInconsistencyError("coefficients give a decreasing CDF")
    if abs(vals[-1] - 1.0) > 1e-6:
        raise ModelInconsistencyError(
            f"CDF does not approach 1 (tail value {vals[-1]:.6g})")
    return cdf


def general_cdf_eval(cdf, g):
    """Evaluate the exponential-polynomial CDF, guarding round-off.

    Each term is the product a e^(-n g) g^k, or a e^(k ln g - n g) where
    e^(-n g) would underflow or g^k overflow, so no term turns NaN; a zero
    coefficient adds nothing. (The log form everywhere would cost about
    |k ln g| ulps per term: the Gamma(101, 1) CDF would read -1.2e-14 at
    g = 40.8, past the clamp below.)
    Values in [-1e-14, 0) clamp to 0 and values in (1, 1+1e-14] clamp to 1;
    anything farther outside [0, 1], or not finite, raises
    ModelInconsistencyError."""
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    if not np.all(g_arr >= 0):
        raise InvalidParameterError("power gain argument must be >= 0")
    inner = (g_arr > 0) & np.isfinite(g_arr)
    gi = g_arr[inner]
    log_g = np.log(gi)
    acc = np.zeros(g_arr.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, k, a in cdf.terms:
            if a == 0.0:
                continue
            if k == 0:
                acc += a * np.exp(-n * g_arr)
                continue
            far = (n * gi > _EXP_RANGE) | (k * log_g > _EXP_RANGE)
            acc[inner] += np.where(far, a * np.exp(k * log_g - n * gi),
                                   a * np.exp(-n * gi) * gi ** k)
    vals = 1.0 - acc
    if not np.all(np.isfinite(vals)):
        raise ModelInconsistencyError(
            "CDF value is not finite: coefficients are inconsistent")
    if np.any(vals < -_CDF_CLAMP) or np.any(vals > 1.0 + _CDF_CLAMP):
        bad = vals[(vals < -_CDF_CLAMP) | (vals > 1.0 + _CDF_CLAMP)][0]
        raise ModelInconsistencyError(
            f"CDF value {bad!r} outside [0, 1]: coefficients are inconsistent")
    vals = np.clip(vals, 0.0, 1.0)
    return vals if np.ndim(g) else float(vals[0])


def nakagami_as_general_cdf(m0):
    """Integer-shape Nakagami reference CDF as an exponential-polynomial law.

    P(m0, m0 g) = 1 - e^(-m0 g) sum_{k<m0} (m0 g)^k / k!; needs integer m0."""
    mi = integer_shape(m0)
    if mi is None:
        raise UnsupportedModelError(
            f"the exponential-polynomial family needs integer shape, got {m0}")
    return general_fading_cdf([(float(mi), k, a)
                               for k, a in nakagami_terms(mi)])
