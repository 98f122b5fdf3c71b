"""Outage probability for real-valued fading shapes via Laplace inversion.

The distribution of the noise-plus-interference functional is recovered from
its Laplace transform by Euler-summed Bromwich sampling (the Abate-Whitt
method). This route works for any fading shape >= 0.5 on both the reference
link and the interferers, at the price of a double quadrature per transform
node.
"""

import math
import threading
from concurrent.futures import Future
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import scenario as _scenario
from .channel import MAX_WHOLE, _is_whole
from .errors import InvalidParameterError, NumericFailure
from .quadrature import adaptive_rows_quad
from .scenario import OutageResult
from .specfun import ln_gamma

_LN10 = math.log(10.0)

# The outer quadrature's relative tolerance when the caller (or the scenario
# file's quadrature_rel_tol) gives none; the inner one derives from it.
QUADRATURE_REL_TOL = 1e-10

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
        _check_discretization(self.A)
        for name in ("B", "C"):
            v = getattr(self, name)
            if not (_is_whole(v) and 1 <= v <= MAX_WHOLE):
                raise InvalidParameterError(
                    f"{name} must be an integer in [1, {MAX_WHOLE}], got {v}")
            object.__setattr__(self, name, int(v))

    @classmethod
    def from_accuracy_digits(cls, digits):
        if not digits > 0:
            raise InvalidParameterError(
                f"accuracy digits must be positive, got {digits}")
        A = digits * _LN10
        _check_discretization(A)   # before B and C, which it keeps finite
        return cls(A=A,
                   B=max(1, math.ceil(1.243 * digits - 1.0)),
                   C=max(1, math.ceil(1.467 * digits)))

    @property
    def accuracy_digits(self):
        return self.A / _LN10


def _check_discretization(A):
    """Refuse an A that is not positive or whose Euler sum scale e^{A/2}
    overflows (A past about 1419.6, 616.5 accuracy digits)."""
    try:
        ok = A > 0 and math.exp(0.5 * A) < math.inf
    except OverflowError:
        ok = False
    if not ok:
        raise InvalidParameterError(
            f"discretization parameter must be positive with e^(A/2) "
            f"finite, got {A}")


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


def _radial_mixture_rows(profile, m, alpha, q, rel_tol):
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
                                 rel_tol=rel_tol, abs_tol=1e-14)
    return vals.reshape(np.shape(q))


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


class _Miss(Exception):
    """A held-only lookup (see _array_memo) found no finished result."""


def _array_memo(fn, dtype, sizes):
    """fn of one array, each result computed once per argument array (its
    shape and bytes as the given dtype) and stored read-only; each array
    stored appends its bytes and its result's (as large) to the list sizes.

    Threads share the table: the first to miss on an array computes it and
    the others wait for that result, or its exception. A hit reads the
    stored result and builds nothing. An exception is not stored, so a
    later call computes the array again.

    A held-only lookup, memoised(x, held_only=True), returns a result only
    if it is already finished and raises _Miss otherwise: it never
    computes, stores or waits, also not on an array another thread is
    still computing. memoised.stored() counts the arrays stored or in
    progress.
    """
    memo = {}

    def memoised(x, held_only=False):
        x = np.ascontiguousarray(x, dtype=dtype)
        key = (x.shape, x.tobytes())
        done = memo.get(key)
        if held_only:
            if done is None or not done.done() or done.exception() is not None:
                raise _Miss
            return done.result()
        if done is None:
            mine = Future()
            done = memo.setdefault(key, mine)
            if done is mine:
                try:
                    vals = np.asarray(fn(x))
                    vals.setflags(write=False)
                    sizes.append(2 * x.nbytes)
                    mine.set_result(vals)
                except BaseException as exc:
                    del memo[key]
                    mine.set_exception(exc)
        return done.result()

    memoised.stored = memo.__len__
    return memoised


class _RadialKernel:
    """The radial kernel rows of one _kernel_key (distance profile, m,
    alpha, inner tolerance), each q batch computed once: M, rho0 and m0 do
    not enter the rows, and r0, beta and s enter through q. The q batches
    and the pdf's abscissa arrays (every batch evaluates the pdf on the same
    panels and bisections) go through _array_memo. Batches are memoised
    whole, by their bytes: the adaptive quadrature refines a batch's rows
    together, so a row's value depends on the batch it came in.
    """

    def __init__(self, scenario, inner_rel):
        self.key = _kernel_key(scenario, inner_rel)
        self.sizes = []
        prof = scenario.profile()
        self._profile = prof = replace(
            prof, pdf=_array_memo(prof.pdf, float, self.sizes))
        m, alpha = scenario.channel.m, scenario.alpha
        self.rows = _array_memo(
            lambda q: _radial_mixture_rows(prof, m, alpha, q, inner_rel),
            complex, self.sizes)


# The process holds one radial kernel, which every outage_mgf call on its
# key shares; a call on another key, or one that finds the kernel's memo
# past _KERNEL_BUDGET bytes of arrays, replaces it. A point stores about
# 0.25 MB of arrays (0.5 MB with the table's objects), so about 30 points.
_KERNEL_BUDGET = 8 << 20
_KERNEL_LOCK = threading.Lock()
_held_kernel = None


def _shared_kernel(scenario, rel_tol):
    """The held kernel, or a new one built after the old one is let go."""
    global _held_kernel
    inner_rel = _inner_rel_tol(rel_tol)
    with _KERNEL_LOCK:
        kernel = _held_kernel
        if (kernel is None or kernel.key != _kernel_key(scenario, inner_rel)
                or sum(kernel.sizes) > _KERNEL_BUDGET):
            _held_kernel = kernel = None
            _held_kernel = kernel = _RadialKernel(scenario, inner_rel)
        return kernel


def outage_mgf(scenario, params=None, rel_tol=QUADRATURE_REL_TOL):
    """Outage probability by inverting the Laplace transform of the
    noise-plus-interference functional at 1/beta; any shapes m0, m >= 0.5.

    Each Bromwich node needs one outer integral over the reference gain
    (substituted onto (0,1)) whose integrand carries the M-th power of the
    radial kernel row, computed for all outer nodes of a panel batch at
    once. The rows come from the process's held kernel (_shared_kernel),
    so calls that differ only in M, rho0, r0, beta, m0 or the inversion
    skip the batches an earlier one computed, and no number changes.

    The nodes are sampled in two passes. The first runs each node on the
    calling thread with held-only row lookups (see _array_memo): a node
    whose batches the kernel has all finished completes there, and one
    that meets a batch it lacks is dropped at that batch. Such a node does
    no new numerical work, so on a pool it would only contend for the GIL.
    The dropped nodes then run through scenario._run_calls at width
    scenario._CPU_WORKERS, under the CPU bound the Monte Carlo chunks
    share. A call with interferers on a kernel that holds no row batch
    yet would drop every node, so it skips the first pass, for its retried
    nodes too. No pass or width changes a number: each node's outer
    integral is self-contained and the radial batches are memoised.

    abs_error is the inversion's aim 10^{-digits}, not a bound (see
    EulerInversionParams). An unsettled sum or a path loss r^alpha that
    overflows raises NumericFailure.
    """
    if params is None:
        params = EulerInversionParams()
    kernel = _shared_kernel(scenario, rel_tol)
    scenario.check_path_loss(kernel._profile.r_max)
    m0, rho0 = scenario.channel.m0, scenario.rho0
    num_interferers = scenario.num_interferers
    r0_alpha = scenario.r0 ** scenario.alpha
    z = 1.0 / scenario.beta

    u_breaks = tuple(g / (1.0 + g) for g in _G0_KNOTS)
    lgamma_m0 = ln_gamma(m0)
    log_m0 = math.log(m0)

    def transform(s, rows):

        def grand(u):
            g0 = u / (1.0 - u)
            logw = ((m0 - 1.0) * np.log(g0) + m0 * log_m0 - m0 * g0
                    - lgamma_m0 - 2.0 * np.log1p(-u))
            vals = np.exp(logw - s / (rho0 * g0))
            if num_interferers:
                q = r0_alpha * s / g0
                inner = rows(q)
                vals = vals * inner ** num_interferers
            return vals[None, :]

        val, _ = adaptive_rows_quad(grand, 0.0, 1.0, breakpoints=u_breaks,
                                    rel_tol=rel_tol, abs_tol=1e-13)
        return val[0]

    held_first = not num_interferers or kernel.rows.stored() > 0
    held_rows = partial(kernel.rows, held_only=True)

    def sample(svals):
        vals = np.empty(len(svals), dtype=complex)
        missed = list(range(len(svals)))
        if held_first:
            missed = []
            for i, s in enumerate(svals):
                try:
                    vals[i], = _scenario._run_calls(
                        [partial(transform, s, held_rows)], 1)
                except _Miss:
                    missed.append(i)
        if missed:
            vals[missed] = _scenario._run_calls(
                [partial(transform, svals[i], kernel.rows) for i in missed],
                _scenario._CPU_WORKERS)
        return vals

    cdf = _invert_cdf(sample, z, params)
    return OutageResult(outage=1.0 - cdf, method="mgf",
                        abs_error=10.0 ** (-params.accuracy_digits))
