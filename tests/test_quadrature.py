"""Batched Gauss-Kronrod integrator against integrals with known values."""

import math

import numpy as np
import pytest

from finitenet import NumericFailure
from finitenet.quadrature import _grouped_rows_quad, adaptive_rows_quad

from scalar_quad import adaptive_quad


def test_exponential_integral():
    val, err = adaptive_quad(np.exp, 0.0, 1.0, rel_tol=1e-13)
    assert abs(val - (math.e - 1.0)) < 1e-13
    assert err < 1e-12


def test_oscillatory_integral():
    # int_0^{10.5 pi} cos = sin(10.5 pi) = 1, many sign changes on the way
    val, _ = adaptive_quad(np.cos, 0.0, 10.5 * math.pi, rel_tol=1e-12)
    assert abs(val - 1.0) < 1e-11


def test_row_family_of_power_integrals():
    powers = np.arange(7.0)

    def rows(x):
        return x[None, :] ** powers[:, None]

    vals, errs = adaptive_rows_quad(rows, 0.0, 1.0, rel_tol=1e-13)
    truth = 1.0 / (powers + 1.0)
    assert np.all(np.abs(vals - truth) < 1e-13)
    assert np.all(errs < 1e-12)


def test_breakpoint_seeds_capture_kink():
    # |x - 1/3| on [0, 1]: integral is (1/9 + 4/9) / 2 = 5/18
    val, _ = adaptive_quad(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                           breakpoints=(1.0 / 3.0,), rel_tol=1e-13)
    assert abs(val - 5.0 / 18.0) < 1e-14


def test_kink_converges_without_seed_too():
    val, _ = adaptive_quad(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                           rel_tol=1e-12)
    assert abs(val - 5.0 / 18.0) < 1e-11


def test_complex_integrand():
    # int_0^1 e^{ix} dx = sin 1 + i (1 - cos 1)
    val, _ = adaptive_quad(lambda x: np.exp(1j * x), 0.0, 1.0, rel_tol=1e-13)
    truth = math.sin(1.0) + 1j * (1.0 - math.cos(1.0))
    assert abs(val - truth) < 1e-13


def test_requested_tolerance_is_met():
    truth = 2.0 / 3.0  # int_0^1 sqrt(x)
    for rtol in (1e-4, 1e-8, 1e-12):
        val, err = adaptive_quad(lambda x: np.sqrt(x), 0.0, 1.0, rel_tol=rtol)
        assert abs(val - truth) <= rtol * truth
        assert err <= rtol * abs(val)


def test_panel_budget_exhaustion_raises():
    with pytest.raises(NumericFailure):
        adaptive_quad(lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.pi)),
                      0.0, 1.0, rel_tol=1e-13, max_panels=8)


def test_empty_range_raises():
    with pytest.raises(NumericFailure):
        adaptive_quad(np.exp, 1.0, 1.0)
    with pytest.raises(NumericFailure):
        adaptive_quad(np.exp, 2.0, 1.0)


def test_scalar_wrapper_matches_row_form():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    v1, _ = adaptive_quad(f, 0.0, 4.0, rel_tol=1e-12)
    v2, _ = adaptive_rows_quad(lambda x: f(x)[None, :], 0.0, 4.0,
                               rel_tol=1e-12)
    assert v1 == v2[0]


def test_rows_converge_independently():
    # one smooth row, one needing refinement; both must hit their tolerance
    def rows(x):
        return np.vstack([np.ones_like(x), 1.0 / (1e-4 + (x - 0.5) ** 2)])

    vals, _ = adaptive_rows_quad(rows, 0.0, 1.0, rel_tol=1e-11)
    assert abs(vals[0] - 1.0) < 1e-11
    truth = 2.0 / 1e-2 * math.atan(0.5 / 1e-2)
    assert abs(vals[1] - truth) < 1e-6 * truth


# ----- integrals in lockstep -----

def _family(k):
    """Row family k of the lockstep tests: three rows whose peaks sit at
    their own places, so the families refine their panels apart."""
    centres = np.array([0.1, 0.45, 0.8])[:, None] + 0.03 * k
    width = 10.0 ** -(2 + k % 3)

    def rows(x):
        return (1.0 / (width + (x[None, :] - centres) ** 2)
                * np.exp(1j * (k + 1) * x[None, :]))
    return rows


def _lockstep(families, passes, spoil=None):
    """The families in lockstep; each call's abscissa runs are logged to
    passes, and family k's values are NaN where spoil(k, x) is True."""
    def f(x, owner):
        cuts = np.flatnonzero(np.diff(owner)) + 1
        runs = list(zip([0, *cuts], [*cuts, x.size]))
        passes.append([(int(owner[i]), x[i:j].copy()) for i, j in runs])
        y = np.empty((3, x.size), dtype=complex)
        for i, j in runs:
            k = int(owner[i])
            y[:, i:j] = families[k](x[i:j])
            if spoil is not None and spoil(k, x[i:j]):
                y[:, i:j] = np.nan
        return y
    return f


def test_lockstep_gives_each_integral_the_bits_of_its_own_call():
    breaks = (0.25, 0.5)
    for groups in (1, 4):
        families = [_family(k) for k in range(groups)]
        passes = []
        vals, errs = _grouped_rows_quad(
            _lockstep(families, passes), 0.0, 1.0, groups,
            breakpoints=breaks, rel_tol=1e-11, abs_tol=1e-14)
        assert np.isfinite(vals).all() and np.isfinite(errs).all()
        for k, rows in enumerate(families):
            alone = []

            def logged(x, rows=rows):
                alone.append(x.copy())
                return rows(x)

            v, e = adaptive_rows_quad(logged, 0.0, 1.0, breakpoints=breaks,
                                      rel_tol=1e-11, abs_tol=1e-14)
            assert np.array_equal(vals[k], v) and np.array_equal(errs[k], e)
            # each round passed this integral's abscissae as its own call
            # does, in one run, and in the order of the integrals
            mine = [x for run in passes for owner, x in run if owner == k]
            assert len(mine) == len(alone)
            assert all(np.array_equal(a, b) for a, b in zip(mine, alone))
        for run in passes:
            owners = [owner for owner, _ in run]
            assert owners == sorted(set(owners))
    # the families need different numbers of rounds
    assert len({sum(owner == k for run in passes for owner, _ in run)
                for k in range(4)}) > 1


def test_nan_integral_finishes_that_round_and_the_rest_keep_their_bits():
    families = [_family(k) for k in range(3)]
    passes = []
    spoil = lambda k, x: k == 1 and len(passes) == 3   # at the third round
    vals, errs = _grouped_rows_quad(
        _lockstep(families, passes, spoil), 0.0, 1.0, 3, rel_tol=1e-11)
    assert np.isnan(vals).all(axis=1).tolist() == [False, True, False]
    assert np.isnan(vals[1]).all() and np.isnan(errs[1]).all()
    assert not any(owner == 1 for run in passes[3:] for owner, _ in run)
    for k in (0, 2):
        v, e = adaptive_rows_quad(families[k], 0.0, 1.0, rel_tol=1e-11)
        assert np.array_equal(vals[k], v) and np.array_equal(errs[k], e)


def test_nan_integrand_gives_nan_after_one_round_and_does_not_raise():
    # a NaN total fails no tolerance test, so neither the panel budget
    # nor the width floor is ever reached
    for budget in (2, 4096):
        calls = []

        def nan_rows(x):
            calls.append(x.size)
            return np.full((2, x.size), np.nan)

        vals, errs = adaptive_rows_quad(nan_rows, 0.0, 1.0,
                                        breakpoints=(0.25, 0.5),
                                        rel_tol=1e-17, max_panels=budget)
        assert np.isnan(vals).all() and np.isnan(errs).all()
        assert calls == [3 * 15], calls


def _failure(call, *args, **kwargs):
    with pytest.raises(NumericFailure) as info:
        call(*args, **kwargs)
    return str(info.value)


def test_lockstep_failures_are_the_one_integral_messages():
    singular = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.pi))
    step = lambda x: (x < 1.0 / math.pi).astype(float)
    smooth = np.exp

    def alone(g, **kwargs):
        return _failure(adaptive_rows_quad, g, 0.0, 1.0, **kwargs)

    def lockstep(gs, **kwargs):
        def f(x, owner):
            y = np.empty(x.size)
            for k, g in enumerate(gs):
                y[owner == k] = g(x[owner == k])
            return y
        return _failure(_grouped_rows_quad, f, 0.0, 1.0, len(gs), **kwargs)

    budget = dict(rel_tol=1e-13, max_panels=8)
    over = alone(singular, **budget)
    assert over.startswith("quadrature did not converge within 8 panels")
    assert lockstep([smooth, singular], **budget) == over
    stall = dict(rel_tol=1e-17, abs_tol=0.0)
    stalled = alone(step, **stall)
    assert stalled == "quadrature stalled: panel width underflow"
    assert lockstep([step, smooth], **stall) == stalled
    # the lowest-numbered failure is raised, also when a higher integral
    # fails rounds before it: here the budget failure comes first
    oscillating = lambda x: np.cos(2000.0 * x)
    tight = dict(rel_tol=1e-17, abs_tol=0.0, max_panels=200)
    assert alone(step, **tight) == stalled
    assert alone(oscillating, **tight).startswith(
        "quadrature did not converge within 200 panels")
    assert lockstep([step, oscillating], **tight) == stalled
    assert lockstep([oscillating, step], **tight) == alone(oscillating,
                                                           **tight)
