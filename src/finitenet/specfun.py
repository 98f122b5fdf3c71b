"""Special functions and combinatorial helpers used by the outage frameworks."""

import math
import threading
from collections import Counter
from dataclasses import dataclass

from .errors import InvalidParameterError, NumericFailure

_SERIES_MAX_TERMS = 5000
_PFAFF_RATIO_MAX = 0.9       # |z/(z-1)| where the transformed series is still fast
_INVERSE_Z_MIN = 2.0
_DEGENERATE_GAP = 0.05       # distance of b-a from an integer below which the
                             # 1/z linear transformation is ill-conditioned


# ----- gamma-family wrappers -----

def ln_gamma(x):
    """Natural log of the gamma function for x > 0."""
    if not x > 0:
        raise InvalidParameterError(f"ln_gamma needs x > 0, got {x}")
    return math.lgamma(x)


# ----- Gauss hypergeometric function -----

def _series_2f1(a, b, c, z):
    """Maclaurin sum of 2F1; caller guarantees |z| is comfortably below 1."""
    term = complex(1.0)
    total = complex(1.0)
    for n in range(_SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
    raise NumericFailure(
        f"2F1 series stalled at a={a} b={b} c={c} |z|={abs(z):.3g}")


def _inverse_z_2f1(a, b, c, z):
    """DLMF 15.8.2 continuation in 1/z; needs b-a away from the integers."""
    from scipy import special as _sp
    iz = 1.0 / z
    coef1 = _sp.gamma(c) * _sp.gamma(b - a) * _sp.rgamma(b) * _sp.rgamma(c - a)
    coef2 = _sp.gamma(c) * _sp.gamma(a - b) * _sp.rgamma(a) * _sp.rgamma(c - b)
    t1 = coef1 * (-z) ** (-a) * _series_2f1(a, a - c + 1.0, a - b + 1.0, iz)
    t2 = coef2 * (-z) ** (-b) * _series_2f1(b, b - c + 1.0, b - a + 1.0, iz)
    return t1 + t2


# mpmath's working precision is process-global state; serialize access so
# library callers that run the series engine from threads of their own
# cannot race on it.
_MPMATH_LOCK = threading.Lock()


def _mpmath_2f1(a, b, c, z):
    import mpmath
    with _MPMATH_LOCK:
        with mpmath.workdps(30):
            val = mpmath.hyp2f1(a, b, c, mpmath.mpmathify(z))
    return complex(val)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) with real parameters.

    Tuned for the arguments the closed-form distance expectations produce:
    z real nonpositive or complex with Re z <= 0, |z| from 0 up to ~1e10.
    Maclaurin series for small |z|, the z/(z-1) Pfaff transformation for
    moderate |z|, the 1/z linear transformation for large |z|; parameter
    patterns where b-a sits (near) an integer fall back to library
    evaluation of the degenerate expansion.
    """
    a = float(a)
    b = float(b)
    c = float(c)
    if abs(c - round(c)) < 1e-12 and round(c) <= 0:
        raise InvalidParameterError(f"c={c} is a nonpositive integer")
    z = complex(z)
    if z.imag == 0.0 and z.real >= 1.0:
        raise InvalidParameterError(f"z={z} lies on the branch cut [1, inf)")
    if z == 0:
        return complex(1.0)
    try:
        if abs(z) <= 0.5:
            return _series_2f1(a, b, c, z)
        w = z / (z - 1.0)
        if abs(w) <= _PFAFF_RATIO_MAX:
            return (1.0 - z) ** (-a) * _series_2f1(a, c - b, c, w)
        if abs(z) >= _INVERSE_Z_MIN and \
                abs(b - a - round(b - a)) >= _DEGENERATE_GAP:
            return _inverse_z_2f1(a, b, c, z)
    except NumericFailure:
        pass
    val = _mpmath_2f1(a, b, c, z)
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise NumericFailure(f"2F1 evaluation failed at a={a} b={b} c={c} z={z}")
    return val


# ----- integer partitions with placement counts -----

@dataclass(frozen=True)
class PartitionTerm:
    """One partition of j, with the bookkeeping the interference sum needs.

    parts: the positive parts, weakly decreasing.
    arrangement_count: number of ways to assign the parts to M labeled nodes
        (the remaining nodes take exponent zero).
    multinomial_weight: j! / prod(parts!), the multinomial coefficient shared
        by every composition that collapses onto this partition.
    """
    parts: tuple
    arrangement_count: int
    multinomial_weight: int


def _partitions_desc(j, largest):
    if j == 0:
        yield ()
        return
    for first in range(min(j, largest), 0, -1):
        for rest in _partitions_desc(j - first, first):
            yield (first,) + rest


def enumerate_weighted_partitions(j, num_nodes):
    """All partitions of j into at most num_nodes positive parts.

    The identity served by the weights: summing
    multinomial_weight * arrangement_count * prod(f(t) for t in parts)
    * f(0)**(num_nodes - len(parts)) over the returned partitions equals the
    sum of j!/(t_1!..t_M!) * prod f(t_i) over all compositions of j into
    num_nodes nonnegative parts.
    """
    if j < 0 or num_nodes < 0:
        raise InvalidParameterError(f"bad partition request j={j} M={num_nodes}")
    out = []
    for parts in _partitions_desc(j, j if j else 1):
        k = len(parts)
        if k > num_nodes:
            continue
        arrangements = math.perm(num_nodes, k)
        for mult in Counter(parts).values():
            arrangements //= math.factorial(mult)
        weight = math.factorial(j)
        for t in parts:
            weight //= math.factorial(t)
        out.append(PartitionTerm(tuple(parts), arrangements, weight))
    return out
