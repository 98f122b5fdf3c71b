"""Outage probability for real-valued fading shapes via Laplace inversion.

The distribution of the noise-plus-interference functional is recovered from
its Laplace transform by Euler-summed Bromwich sampling (the Abate-Whitt
method). This route works for any fading shape >= 0.5 on both the reference
link and the interferers, at the price of a double quadrature per transform
node.
"""

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import scenario as _scenario
from .errors import InvalidParameterError, NumericFailure
from .quadrature import adaptive_rows_quad
from .scenario import OutageResult
from .specfun import gauss_2f1, ln_gamma

_LN10 = math.log(10.0)

# Gain values whose images u = g/(1+g) seed the outer panels; the gamma
# weight can concentrate anywhere in this span depending on the shape.
_G0_KNOTS = (1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


@dataclass(frozen=True)
class EulerInversionParams:
    """Knobs of the Euler-summed inversion.

    A fixes the discretization error (roughly e^{-A}), C is the plain
    truncation of the Bromwich series and B the order of the binomial tail
    average. For an absolute accuracy of about 10^{-digits} use
    ``from_accuracy_digits``; the defaults aim at 1e-8. They aim at it
    rather than bound it: A = digits*ln(10) puts the alias bound
    e^{-A}/(1-e^{-A}) on the aim itself, so the exponential CDF at z = 1
    comes out 1.015e-8 off.

    A sum counts as settled when its last two estimates agree to within
    e^{-A/2} (half of the aimed-at digits): at first the order-B and
    order-(B-1) binomial averages of the same partial sums. An unsettled sum
    is retried with B and C doubled, sampling only the new nodes, and then
    compared with the estimate before the doubling; after four doublings
    (_MAX_DOUBLINGS) it raises NumericFailure. The check bounds a difference, not
    the error: a sum accepted at the first try can be off by about e^{-A/2}
    (a gamma CDF of shape 200 at 1.2 times its mean comes out 8.9e-5 off).
    """

    A: float = 8.0 * _LN10
    B: int = 11
    C: int = 14

    def __post_init__(self):
        if not (np.isfinite(self.A) and self.A > 0):
            raise InvalidParameterError(
                f"discretization parameter must be positive, got {self.A}")
        for name in ("B", "C"):
            v = getattr(self, name)
            if v != int(v) or v < 1:
                raise InvalidParameterError(
                    f"{name} must be a positive integer, got {v}")
            object.__setattr__(self, name, int(v))

    @classmethod
    def from_accuracy_digits(cls, digits):
        if not digits > 0:
            raise InvalidParameterError(
                f"accuracy digits must be positive, got {digits}")
        return cls(A=digits * _LN10,
                   B=max(1, math.ceil(1.243 * digits - 1.0)),
                   C=max(1, math.ceil(1.467 * digits)))

    @property
    def accuracy_digits(self):
        return self.A / _LN10


def _bromwich_nodes(z, params):
    c = np.arange(params.B + params.C + 1)
    return (params.A + 2j * np.pi * c) / (2.0 * z)


def _binomial_average(partial, start, order):
    binom = np.array([math.comb(order, b) for b in range(order + 1)],
                     dtype=float)
    return float((binom * partial[start:start + order + 1]).sum()) \
        * 0.5 ** order


def _euler_cdf_from_samples(vals, s, z, params):
    """Assemble the binomially averaged alternating sum from transform
    samples vals[c] = L_f(s_c), c = 0..B+C. The c=0 term carries half
    weight. Returns the order-B estimate and its distance from the
    order-(B-1) average of the same partial sums.
    """
    h = (vals / s).real
    h = h.copy()
    h[0] *= 0.5
    signs = np.where(np.arange(h.size) % 2 == 0, 1.0, -1.0)
    partial = np.cumsum(signs * h)
    scale = math.exp(0.5 * params.A) / z
    est = scale * _binomial_average(partial, params.C, params.B)
    if not math.isfinite(est):
        raise NumericFailure("inversion sum is not finite")
    return est, abs(est - scale * _binomial_average(partial, params.C,
                                                    params.B - 1))


# An unsettled Euler sum is retried with B and C doubled at most this many
# times (up to 16 times the nodes) before it is refused.
_MAX_DOUBLINGS = 4


def _invert_cdf(sample, z, params):
    """CDF at z from transform samples, sample(nodes) -> complex array.

    Applies the settling rule of EulerInversionParams. The nodes of a
    doubled (B, C) extend the ones already sampled, so every distinct node
    is sampled once.
    """
    limit = math.exp(-0.5 * params.A)
    s = _bromwich_nodes(z, params)
    vals = sample(s)
    est, change = _euler_cdf_from_samples(vals, s, z, params)
    for _ in range(_MAX_DOUBLINGS):
        if change <= limit:
            break
        params = replace(params, B=2 * params.B, C=2 * params.C)
        s = _bromwich_nodes(z, params)
        vals = np.concatenate([vals, sample(s[vals.size:])])
        prev = est
        est, change = _euler_cdf_from_samples(vals, s, z, params)
        change = max(change, abs(est - prev))
    if not change <= limit:
        raise NumericFailure(
            f"inversion sum did not settle at z={z:.6g}: after {s.size} "
            f"transform nodes its last two estimates differ by {change:.3g}")
    return min(1.0, max(0.0, est))


def euler_invert_cdf(laplace_of_pdf, z, params=None):
    """Evaluate a CDF at z > 0 given the Laplace transform of its density.

    ``laplace_of_pdf`` must be analytic for Re(s) > 0. It is called once per
    distinct Bromwich node s_c = (A + 2*pi*i*c) / (2z), c = 0..B+C, and on
    more nodes only if the Euler sum does not settle (see
    EulerInversionParams). A CDF with a jump, such as the unit point mass
    e^{-s}, needs the extra nodes.

    The result aims at, but is not bounded by, 10^{-digits} of ``params``.
    Raises NumericFailure if the transform returns non-finite values or the
    Euler sum has not settled after the last doubling.
    """
    if params is None:
        params = EulerInversionParams()
    if not (np.isfinite(z) and z > 0):
        raise InvalidParameterError(f"evaluation point must be positive, got {z}")

    def sample(nodes):
        vals = np.array([complex(laplace_of_pdf(sc)) for sc in nodes])
        if not np.all(np.isfinite(vals)):
            raise NumericFailure("Laplace transform returned non-finite values")
        return vals

    return _invert_cdf(sample, z, params)


def _radial_mixture_rows(profile, m, alpha, q, rel_tol, abs_tol=1e-14):
    """E_R{ m^m R^{alpha m} (m R^alpha + q)^{-m} } for a batch of complex q.

    This is the fading-averaged attenuation kernel: averaging the gamma gain
    analytically leaves this single radial integral. Log-space evaluation
    keeps very large shapes (m -> infinity limit checks) from overflowing;
    the principal branch is safe because Re(q) >= 0 keeps the base away from
    the negative real axis.
    """
    qcol = np.asarray(q, dtype=complex).reshape(-1, 1)

    def rows(r):
        rrow = r[None, :]
        logw = m * (math.log(m) + alpha * np.log(rrow)
                    - np.log(m * rrow ** alpha + qcol))
        return np.exp(logw) * profile.pdf(r)[None, :]

    vals, _ = adaptive_rows_quad(rows, 0.0, profile.r_max,
                                 breakpoints=profile.breakpoints,
                                 rel_tol=rel_tol, abs_tol=abs_tol)
    return vals.reshape(np.shape(q))


def phi_closed_form(theta, upsilon, m, alpha, r0, s, g0, area):
    """Closed form of the radial kernel integral over a piece [0, upsilon]
    of the distance density where the in-region arc angle is the constant
    theta (density theta*r/area there).

    Raises NumericFailure if the hypergeometric evaluation fails; callers
    fall back to quadrature on the same piece.
    """
    if upsilon == 0.0:
        return 0.0 + 0.0j
    q = (r0 ** alpha) * complex(s) / g0
    am = alpha * m
    f21 = gauss_2f1(m, 2.0 / alpha + m, 1.0 + 2.0 / alpha + m,
                    -m * upsilon ** alpha / q)
    logw = m * math.log(m) + (2.0 + am) * math.log(upsilon) - m * np.log(q)
    return theta / (area * (2.0 + am)) * np.exp(logw) * f21


def _inner_rel_tol(rel_tol):
    # Inner errors are amplified by ~e^{A/2} in the Euler sum, so keep the
    # inner tolerance two orders below the outer one.
    return min(1e-12, rel_tol * 1e-2)


def _kernel_key(scenario, inner_rel):
    reg = scenario.region
    geometry = (reg.kind, reg.radius,
                None if reg.center is None else reg.center.tobytes(),
                None if reg.vertices is None else reg.vertices.tobytes())
    return (geometry, scenario.receiver.tobytes(), scenario.channel.m,
            scenario.alpha, inner_rel)


def _tabled_pdf(pdf):
    """pdf with a table from each abscissa array (its shape and bytes) to
    its values, stored read-only.

    Every radial batch restarts its adaptive quadrature on the same
    breakpoint panels and bisects the same dyadic tree, so most abscissa
    arrays of one kernel repeat whole. Threads that miss on the same array
    at once each compute the same values, and the table keeps the first.
    """
    table = {}

    def tabled(r):
        r = np.asarray(r, dtype=float)
        key = (r.shape, r.tobytes())
        vals = table.get(key)
        if vals is None:
            vals = np.asarray(pdf(r))
            vals.setflags(write=False)
            vals = table.setdefault(key, vals)
        return vals

    return tabled


class _RadialKernel:
    """The radial kernel rows of one distance profile, interferer shape m,
    path-loss exponent and inner tolerance, each q batch computed once.

    The rows depend on nothing else: the interferer count M and the SNR
    rho0 leave them unchanged, and r0 and s enter through q. So every
    outage_mgf call that differs only in M, rho0, r0, beta or the inversion
    parameters can share one kernel, and a batch it has seen comes back
    bit-identical without another radial integral. Threads share it too:
    the first to ask for a batch computes it and the others wait for that
    result (or its exception). The distance pdf is tabulated per abscissa
    array (_tabled_pdf), since the batches evaluate it on the same panels.

    Batches are memoised whole, by their bytes: the adaptive quadrature
    refines all rows of a batch together, so a row's value depends on the
    batch it came in.
    """

    def __init__(self, scenario, inner_rel):
        self.key = _kernel_key(scenario, inner_rel)
        profile = scenario.profile()
        self._profile = replace(profile, pdf=_tabled_pdf(profile.pdf))
        self._m = scenario.channel.m
        self._alpha = scenario.alpha
        self._inner_rel = inner_rel
        self._memo = {}

    def rows(self, q):
        q = np.ascontiguousarray(q, dtype=complex)
        mine = Future()
        shared = self._memo.setdefault((q.shape, q.tobytes()), mine)
        if shared is mine:
            try:
                vals = _radial_mixture_rows(self._profile, self._m,
                                            self._alpha, q, self._inner_rel)
                vals.setflags(write=False)
                mine.set_result(vals)
            except BaseException as exc:
                mine.set_exception(exc)
        return shared.result()


def radial_kernel(scenario, rel_tol=1e-10):
    """A radial kernel for outage_mgf(..., rel_tol=rel_tol, kernel=...) on
    this scenario and on any copy of it with another num_interferers, rho0,
    r0 or beta. Reusing it changes no number; it only skips the radial
    integrals an earlier call already did, which a scan over
    num_interferers or rho0 repeats most of. It holds every batch it has
    computed, so keep it for one scan, not for the whole program.
    """
    return _RadialKernel(scenario, _inner_rel_tol(rel_tol))


def _sample_nodes(transform, svals):
    """[transform(s) for s in svals] as a complex array.

    The first node runs on the calling thread, so a failure there costs no
    other node; the rest run on a pool of scenario._CPU_WORKERS threads, so
    the width changes no number (each node's outer integral is
    self-contained and the radial batches are memoised). A failure
    is re-raised unchanged in node order, as the plain loop would, and the
    nodes still queued behind it are cancelled.
    """
    out = np.empty(svals.size, dtype=complex)
    out[0] = transform(svals[0])
    with ThreadPoolExecutor(max_workers=_scenario._CPU_WORKERS) as pool:
        out[1:] = list(pool.map(transform, svals[1:]))
    return out


def outage_mgf(scenario, params=None, rel_tol=1e-10, *, kernel=None):
    """Outage probability by inverting the Laplace transform of the
    noise-plus-interference functional at 1/beta.

    Valid for any fading shapes m0, m >= 0.5. Each Bromwich node needs one
    outer integral over the reference gain (substituted onto (0,1), where
    the integrand vanishes at both ends) whose integrand carries the M-th
    power of the inner distance expectation; inner values are computed for
    all outer nodes of a panel batch in one vectorized call. The nodes'
    outer integrals run on a pool as wide as the CPUs the process may use
    (_sample_nodes); the result is bit-identical for any width.

    The reported abs_error 10^{-digits} is what the inversion aims at, not a
    bound: an accepted sum can be off by about e^{-A/2} (see
    EulerInversionParams). A sum that does not settle is retried on more
    nodes, each one more outer integral, and then raises NumericFailure, as
    in euler_invert_cdf.

    ``kernel`` (from radial_kernel) lets a scan over M or rho0 share the
    radial integrals; by default each call builds its own. A kernel built
    for another region, receiver, m, alpha or inner tolerance raises
    InvalidParameterError.
    """
    if params is None:
        params = EulerInversionParams()
    if kernel is None:
        kernel = radial_kernel(scenario, rel_tol)
    elif kernel.key != _kernel_key(scenario, _inner_rel_tol(rel_tol)):
        raise InvalidParameterError(
            "radial kernel was built for another region, receiver, m, alpha "
            "or rel_tol")
    m0 = scenario.channel.m0
    alpha = scenario.alpha
    r0 = scenario.r0
    num_interferers = scenario.num_interferers
    rho0 = scenario.rho0
    z = 1.0 / scenario.beta

    u_breaks = tuple(g / (1.0 + g) for g in _G0_KNOTS)
    lgamma_m0 = ln_gamma(m0)
    log_m0 = math.log(m0)

    def transform(s):

        def grand(u):
            g0 = u / (1.0 - u)
            logw = ((m0 - 1.0) * np.log(g0) + m0 * log_m0 - m0 * g0
                    - lgamma_m0 - 2.0 * np.log1p(-u))
            vals = np.exp(logw - s / (rho0 * g0))
            if num_interferers:
                q = (r0 ** alpha) * s / g0
                inner = kernel.rows(q)
                vals = vals * inner ** num_interferers
            return vals[None, :]

        val, _ = adaptive_rows_quad(grand, 0.0, 1.0, breakpoints=u_breaks,
                                    rel_tol=rel_tol, abs_tol=1e-13)
        return val[0]

    cdf = _invert_cdf(lambda svals: _sample_nodes(transform, svals), z,
                      params)
    eps = min(1.0, max(0.0, 1.0 - cdf))
    return OutageResult(outage=eps, method="mgf",
                        abs_error=10.0 ** (-params.accuracy_digits))
