"""Outage probability via the reference-link power-gain expansion.

When the reference link's fading shape is a positive integer, the gain's CDF
is an exponential polynomial, and averaging it over the aggregate
interference reduces the outage probability to a finite combination of
per-interferer moments E{Omega_t}. Each moment is a single radial integral
against the distance density: closed form (Gauss hypergeometric) on the
piece where the in-region arc angle is constant, adaptive quadrature
elsewhere.
"""

import cmath
import math
import warnings

import numpy as np

from .channel import NakagamiChannel, integer_shape, nakagami_terms
from .errors import NumericFailure, UnsupportedModelError
from .geometry import disk_region
from .quadrature import adaptive_rows_quad
from .scenario import (OutageResult, Scenario, _interferer_count,
                       _profile_key)
from .specfun import gauss_2f1, ln_gamma
# no product path enumerates partitions: the benchmark's tracer wraps this
# name as its specfun.partitions hook
from .specfun import enumerate_weighted_partitions  # noqa: F401

_CLAMP_SLACK = 1e-9
_OMEGA_REL_TOL = 1e-11
# Conservative absolute-accuracy figure for the assembled result: the moment
# integrals are solved to 1e-11 relative and the power series of the moment
# sums adds positive terms only (a few ulps), so round-off in the
# alternating-sign assembly dominates.
_RLPG_ABS_ERROR = 1e-9
# the largest j whose j! is a float: the highest aggregate moment S_j the
# power series forms
_MAX_ORDER = 170


def _kernel_lead(ts, m):
    """log(Gamma(m+t)/Gamma(m) m^m) for each exponent t, as a column: the
    part of the kernel's logarithm that does not depend on r."""
    lg = np.array([ln_gamma(m + t) - ln_gamma(m) for t in ts])[:, None]
    return lg + m * math.log(m)


def _kernel_rows(r, ts, lead, m, alpha, c):
    """Gamma-averaged moment kernel, one row per exponent t, with lead from
    _kernel_lead(ts, m).

    Log-space form of Gamma(m+t)/Gamma(m) m^m r^{alpha m} (m r^alpha + c)
    ^{-(m+t)}; the raw r^{-alpha t} form is hostile near r=0.
    """
    rrow = r[None, :]
    tcol = ts[:, None]
    logw = (lead + alpha * m * np.log(rrow)
            - (m + tcol) * np.log(m * rrow ** alpha + c))
    return np.exp(logw)


def _constant_piece(theta, hi, t, m, alpha, c, area):
    """Moment contribution of the constant-angle piece [0, hi] (density
    theta*r/area there), for a real or complex tilt c with Re c >= 0, as a
    complex number: the Gauss hypergeometric closed form. Raises
    NumericFailure if the hypergeometric evaluation or its weight fails."""
    if hi <= 0.0:
        return 0j
    am = alpha * m
    f21 = gauss_2f1(2.0 / alpha + m, m + t, 1.0 + 2.0 / alpha + m,
                    -m * hi ** alpha / c)
    # a real tilt keeps math.log's bits, which cmath.log does not always
    log_c = complex(math.log(abs(c)), cmath.phase(c))
    logw = (ln_gamma(m + t) - ln_gamma(m) + m * math.log(m)
            + (2.0 + am) * math.log(hi) - (m + t) * log_c)
    try:
        return theta / (area * (2.0 + am)) * cmath.exp(logw) * f21
    except OverflowError:   # at a huge hi; the quadrature takes over
        raise NumericFailure(f"closed-form weight overflows at {hi}") from None


def _omega_values(profile, ts, m, alpha, c):
    """E{Omega_t} for each exponent in ts, sharing one pass over the profile.

    The constant-angle piece [0, lo] is evaluated in closed form; the rest,
    [lo, r_max] with its arccos-shaped angle, goes through one adaptive
    quadrature split at the breakpoints. If the closed form fails, lo = 0
    and the quadrature covers the whole range.
    """
    ts = np.asarray(list(ts), dtype=int)
    total = np.zeros(ts.size)
    lo = 0.0
    if profile.constant_piece is not None:
        hi, theta = profile.constant_piece
        try:
            total = np.array([_constant_piece(theta, hi, t, m, alpha, c,
                                              profile.area).real
                              for t in ts])
            lo = hi
        except NumericFailure:
            pass
    if lo < profile.r_max:
        lead = _kernel_lead(ts, m)

        def rows(r):
            return (_kernel_rows(r, ts, lead, m, alpha, c)
                    * profile.pdf(r)[None, :])

        vals, _ = adaptive_rows_quad(rows, lo, profile.r_max,
                                     breakpoints=profile.breakpoints,
                                     rel_tol=_OMEGA_REL_TOL)
        total += vals
    return total


def _moment_values(profile, scenario, rate, count):
    """E{Omega_t} for t < count at the tilt c = rate * beta * r0^alpha,
    checked positive and finite; a count the moment sums would refuse is
    refused before any moment is formed."""
    scenario.check_path_loss(profile.r_max)
    _check_order(count - 1)
    c = scenario.beta * scenario.r0 ** scenario.alpha * rate
    vals = _omega_values(profile, range(count), scenario.channel.m,
                         scenario.alpha, c)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise NumericFailure(f"moment table is not positive finite: {vals}")
    return tuple(float(v) for v in vals)


# The key and the table of the last omega_expectation_table call.
_held_table = None


def omega_expectation_table(scenario):
    """Moments E{Omega_t}, t < m0, of an integer-shape scenario: computed
    once and reused across every term of the outage assembly. Each entry is
    positive and finite and the first never exceeds 1.

    The last table is kept with its key: the region's geometry, the
    receiver, m, alpha, r0, beta and m0, the only fields it depends on. So
    the calls of one count search, and the points of a sweep over the SNR
    or the interferer count, build it once. Threads that race on the slot
    may each build their own key's table; none gets another key's."""
    global _held_table
    m0 = integer_shape(scenario.channel.m0)
    if m0 is None:
        raise UnsupportedModelError(
            f"reference fading shape {scenario.channel.m0} is not a positive "
            "integer; use outage_mgf for real-valued shapes")
    key = (_profile_key(scenario), scenario.channel.m, scenario.alpha,
           scenario.r0, scenario.beta, m0)
    held = _held_table
    if held is None or held[0] != key:
        held = _held_table = (
            key, _moment_values(scenario.profile(), scenario, m0, m0))
    return held[1]


def _check_order(max_j):
    if max_j > _MAX_ORDER:
        raise NumericFailure(
            f"moment sums up to order {max_j} need {max_j}! past the float "
            f"range; the series engine takes orders up to {_MAX_ORDER} "
            f"(m0 <= {_MAX_ORDER + 1})")


def _truncated_product(a, b):
    """Coefficients of a(x) b(x) up to the degree of a, for a and b of equal
    length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _interference_moment_sums(values, num_interferers, max_j):
    """S_j = E{ exp(-c I) I^j } for j <= max_j, I the aggregate of
    num_interferers i.i.d. terms whose moments E{ exp(-c T) T^t } are
    values[t]: S_j = e0^M j! [x^j] (1 + sum_t values[t] x^t / (e0 t!))^M,
    e0 = values[0], with the power taken by binary powering truncated at
    degree max_j. Every coefficient is positive, so nothing cancels. The
    j! are floats, so max_j is at most 170 (reference shape m0 <= 171)."""
    _check_order(max_j)
    e0 = values[0]
    try:
        lead = e0 ** num_interferers
    except OverflowError:   # a quadrature e0 a few ulps above 1, M huge
        lead = math.inf
    base = [1.0] + [values[t] / (e0 * math.factorial(t))
                    for t in range(1, max_j + 1)]
    coefs = [1.0] + [0.0] * max_j
    n = num_interferers
    while n:
        if n & 1:
            coefs = _truncated_product(coefs, base)
        n >>= 1
        if n:
            base = _truncated_product(base, base)
    out = [lead * (c * math.factorial(j)) for j, c in enumerate(coefs)]
    if not all(map(math.isfinite, out)):
        raise NumericFailure(f"moment sums over {num_interferers} "
                             "interferers exceed the float range")
    return out


def _tilted_average(values, num_interferers, rate, terms, br, ba):
    """E{ e^{-rate X} sum_k a_k X^k } over X = br + ba * I, for the (k, a_k)
    pairs in terms, where I is the aggregate of num_interferers i.i.d. nodes
    whose moment table (at tilt rate * ba) is values. Each X^k is a binomial
    combination of the aggregate moments S_j; those reduce to the per-node
    table via exchangeability."""
    svals = _interference_moment_sums(values, num_interferers,
                                      max(k for k, _ in terms))
    return math.exp(-rate * br) * sum(
        a * sum(math.comb(k, j) * br ** (k - j) * ba ** j * svals[j]
                for j in range(k + 1))
        for k, a in terms)


def _clamp_unit(raw, context):
    if math.isnan(raw):
        raise NumericFailure(f"{context} produced nan")
    if raw < 0.0:
        if raw >= -_CLAMP_SLACK:
            warnings.warn(f"{context}: {raw:.3e} clipped to 0 (round-off)")
            return 0.0
        raise NumericFailure(f"{context} produced {raw}, beyond round-off")
    if raw > 1.0:
        if raw <= 1.0 + _CLAMP_SLACK:
            warnings.warn(f"{context}: {raw!r} clipped to 1 (round-off)")
            return 1.0
        raise NumericFailure(f"{context} produced {raw}, beyond round-off")
    return raw


def _series_outages(scenario, groups, counts):
    """1 - sum over groups of E{ e^{-rate X} sum_k a_k X^k }, with
    X = beta/rho0 + beta r0^alpha I, for each interferer count in counts:
    the outage when the reference gain's CDF is 1 - that sum at X. Each
    group is (rate, terms, moment table at that rate's tilt)."""
    br = scenario.beta / scenario.rho0
    ba = scenario.beta * scenario.r0 ** scenario.alpha
    out = []
    for num in counts:
        num = _interferer_count(num)
        acc = 0.0
        for rate, terms, table in groups:
            acc += _tilted_average(table, num, rate, terms, br, ba)
        out.append(_clamp_unit(1.0 - acc, "outage assembly"))
    return out


def outage_rlpg(scenario):
    """Outage probability for integer reference shape m0.

    The exponential-polynomial CDF of the reference gain turns the outage
    average into m0 threshold powers of the aggregate interference.
    """
    outage, = outage_rlpg_for_counts(scenario, [scenario.num_interferers])
    return OutageResult(outage=outage, method="rlpg",
                        abs_error=_RLPG_ABS_ERROR)


def outage_rlpg_for_counts(scenario, counts):
    """Outage at several interferer counts, reusing one moment table (the
    table does not depend on the count). Returns a list of floats."""
    table = omega_expectation_table(scenario)
    m0 = len(table)
    return _series_outages(scenario, [(m0, nakagami_terms(m0), table)],
                           counts)


def outage_disk_center(W, r0, M, m0, m, alpha, beta, rho0):
    """Receiver at the center of a disk of radius W. The arc angle is 2*pi
    over the whole range, so every moment is a single closed-form
    evaluation."""
    return outage_rlpg(Scenario(
        region=disk_region((0.0, 0.0), W), receiver=(0.0, 0.0), r0=r0,
        num_interferers=M, channel=NakagamiChannel(m0=m0, m=m), alpha=alpha,
        beta=beta, rho0=rho0))


def outage_general_family(scenario, reference_cdf):
    """Outage when the reference gain follows an exponential-polynomial CDF
    1 - sum_n e^{-n g} sum_k a_nk g^k; interferers keep the scenario's gamma
    fading. One moment table per decay rate n (the moments depend on n
    through the exponential tilt)."""
    prof = scenario.profile()
    by_rate = {}
    for n, k, a in reference_cdf.terms:
        by_rate.setdefault(n, []).append((k, a))
    groups = [(n, terms, _moment_values(prof, scenario, n,
                                        max(k for k, _ in terms) + 1))
              for n, terms in sorted(by_rate.items())]
    outage, = _series_outages(scenario, groups, [scenario.num_interferers])
    return OutageResult(outage=outage, method="rlpg",
                        abs_error=_RLPG_ABS_ERROR)
