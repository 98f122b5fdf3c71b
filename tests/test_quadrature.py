"""Batched Gauss-Kronrod integrator against integrals with known values."""

import math

import numpy as np
import pytest

from finitenet import NumericFailure
from finitenet.quadrature import adaptive_rows_quad

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
