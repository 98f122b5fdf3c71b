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


# Gamma and 1/Gamma as Cephes (S. L. Moshier) computes them, in the same
# operation order, so that the 1/z branch below, which cancels, gives the
# same bits as the Cephes-based library routines. The coefficient tables
# are Cephes' own.
_GAMMA_P = (1.60119522476751861407E-4, 1.19135147006586384913E-3,
            1.04213797561761569935E-2, 4.76367800457137231464E-2,
            2.07448227648435975150E-1, 4.94214826801497100753E-1,
            9.99999999999999996796E-1)
_GAMMA_Q = (-2.31581873324120129819E-5, 5.39605580493303397842E-4,
            -4.45641913851797240494E-3, 1.18139785222060435552E-2,
            3.58236398605498653373E-2, -2.34591795718243348568E-1,
            7.14304917030273074085E-2, 1.00000000000000000320E0)
_STIRLING = (7.87311395793093628397E-4, -2.29549961613378126380E-4,
             -2.68132617805781232825E-3, 3.47222221605458667310E-3,
             8.33333333333482257126E-2)
_SQRT_2PI = 2.50662827463100050242E0
_STIRLING_SPLIT = 143.01608    # above this x^(x - 1/2) overflows; split it
_GAMMA_OVERFLOW = 171.624376956302725
_RGAMMA_CHEB = (3.13173458231230000000E-17, -6.70718606477908000000E-16,
                2.20039078172259550000E-15, 2.47691630348254132600E-13,
                -6.60074100411295197440E-12, 5.13850186324226978840E-11,
                1.08965386454418662084E-9, -3.33964630686836942556E-8,
                2.68975996440595483619E-7, 2.96001177518801696639E-6,
                -8.04814124978471142852E-5, 4.16609138709688864714E-4,
                5.06579864028608725080E-3, -6.41925436109158228810E-2,
                -4.98558728684003594785E-3, 1.27546015610523951063E-1)


def _polevl(x, coefs):
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _stirling_gamma(x):
    """Gamma(x) for 33 < x by Stirling's series."""
    if x >= _GAMMA_OVERFLOW:
        return math.inf
    w = 1.0 / x
    w = 1.0 + w * _polevl(w, _STIRLING)
    y = math.exp(x)
    if x > _STIRLING_SPLIT:
        v = math.pow(x, 0.5 * x - 0.25)
        y = v * (v / y)
    else:
        y = math.pow(x, x - 0.5) / y
    return _SQRT_2PI * y * w


def _gamma(x):
    """Gamma(x) for a float: inf with the sign of a zero x, nan at the
    negative integers, +-inf or +-0 where the value leaves float range.
    Below -2^31 the sign of that zero follows the parity of floor(-x),
    where the C routine's int conversion has no defined value."""
    if not math.isfinite(x):
        return x if x > 0 else math.nan
    if x == 0.0:
        return math.copysign(math.inf, x)
    q = abs(x)
    if q > 33.0:
        if x > 0.0:
            return _stirling_gamma(x)
        p = float(math.floor(q))
        if p == q:
            return math.nan
        sign = -1.0 if int(p) % 2 == 0 else 1.0
        z = q - p
        if z > 0.5:
            p += 1.0
            z = q - p
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return sign * math.inf
        return sign * (math.pi / (abs(z) * _stirling_gamma(q)))
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 0.0:
        if x > -1e-9:
            return _gamma_small(x, z)
        z /= x
        x += 1.0
    while x < 2.0:
        if x < 1e-9:
            return _gamma_small(x, z)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def _gamma_small(x, z):
    """z * Gamma(x) for a reduced argument |x| < 1e-9; x = 0 is a pole."""
    if x == 0.0:
        return math.nan
    return z / ((1.0 + 0.5772156649015329 * x) * x)


def _rgamma(x):
    """1/Gamma(x): 0 at the poles, the Cephes Chebyshev form on |x| <= 4
    and 1/_gamma(x) beyond."""
    if x == 0.0 or math.isnan(x):
        return x
    if math.isinf(x) or (x < 0.0 and x == math.floor(x)):
        return 0.0
    if abs(x) > 4.0:
        g = _gamma(x)
        return math.copysign(math.inf, g) if g == 0.0 else 1.0 / g
    z = 1.0
    w = x
    while w > 1.0:
        w -= 1.0
        z *= w
    while w < 0.0:
        z /= w
        w += 1.0
    if w == 0.0:
        return 0.0
    if w == 1.0:
        return 1.0 / z
    t = 4.0 * w - 2.0
    b0, b1 = _RGAMMA_CHEB[0], 0.0
    for c in _RGAMMA_CHEB[1:]:
        b2, b1 = b1, b0
        b0 = t * b1 - b2 + c
    return w * (1.0 + 0.5 * (b0 - b2)) / z


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
    """DLMF 15.8.2 continuation in 1/z; needs b-a away from the integers.

    A gamma factor that leaves float range makes the sum inf or nan; that
    is a NumericFailure, so the caller can fall back.
    """
    iz = 1.0 / z
    gamma_c = _gamma(c)
    coef1 = gamma_c * _gamma(b - a) * _rgamma(b) * _rgamma(c - a)
    coef2 = gamma_c * _gamma(a - b) * _rgamma(a) * _rgamma(c - b)
    t1 = coef1 * (-z) ** (-a) * _series_2f1(a, a - c + 1.0, a - b + 1.0, iz)
    t2 = coef2 * (-z) ** (-b) * _series_2f1(b, b - c + 1.0, b - a + 1.0, iz)
    val = t1 + t2
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise NumericFailure(
            f"2F1 1/z continuation is not finite at a={a} b={b} c={c}")
    return val


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
# The partition form of the interference moment sums: the reference that the
# series engine's truncated power series is tested against.

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
