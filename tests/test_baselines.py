"""Infinite-field Poisson baseline for Rayleigh links."""

import math
from dataclasses import fields

import pytest

from finitenet import InvalidParameterError, outage_ppp_rayleigh


def _reference(density, r0, alpha, beta, rho0):
    spatial = (density * math.pi * r0 ** 2 * beta ** (2.0 / alpha)
               * (2.0 * math.pi / alpha) / math.sin(2.0 * math.pi / alpha))
    return 1.0 - math.exp(-beta / rho0) * math.exp(-spatial)


def test_matches_closed_form():
    for density, r0, alpha, beta, rho0 in [
        (1e-3, 5.0, 4.0, 1.0, 100.0),
        (10.0 / 13143.131398684654, 5.0, 2.5, 1.0, 100.0),
        (2e-4, 3.0, 3.0, 0.5, 10.0),
        (5e-3, 1.0, 6.0, 4.0, 1e6),
    ]:
        res = outage_ppp_rayleigh(density=density, r0=r0, alpha=alpha,
                                  beta=beta, rho0=rho0)
        assert res.outage == pytest.approx(
            _reference(density, r0, alpha, beta, rho0), rel=1e-14)


def test_zero_density_is_noise_only():
    res = outage_ppp_rayleigh(density=0.0, r0=5.0, alpha=3.0, beta=1.0,
                              rho0=100.0)
    assert res.outage == pytest.approx(1.0 - math.exp(-0.01), rel=1e-14)


def test_outage_increases_with_density():
    prev = -1.0
    for density in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
        cur = outage_ppp_rayleigh(density=density, r0=5.0, alpha=3.5,
                                  beta=1.0, rho0=100.0).outage
        assert cur > prev
        prev = cur


def test_result_metadata():
    res = outage_ppp_rayleigh(density=1e-4, r0=5.0, alpha=3.0, beta=1.0,
                              rho0=100.0)
    assert res.method == "ppp"
    assert [f.name for f in fields(res)] == ["outage", "method", "abs_error"]


def test_alpha_two_diverges_and_is_rejected():
    # the spatial factor has sin(2*pi/alpha) -> 0 as alpha -> 2
    with pytest.raises(InvalidParameterError):
        outage_ppp_rayleigh(density=1e-4, r0=5.0, alpha=2.0, beta=1.0,
                            rho0=100.0)


def test_invalid_arguments():
    good = dict(density=1e-4, r0=5.0, alpha=3.0, beta=1.0, rho0=100.0)
    # a NaN density used to give outage 0
    for key, bad in [("density", -1e-4), ("density", math.nan),
                     ("density", math.inf), ("r0", 0.0), ("r0", -2.0),
                     ("r0", math.nan), ("r0", math.inf),
                     ("alpha", 1.5), ("beta", 0.0),
                     ("beta", -1.0), ("rho0", 0.0)]:
        kw = dict(good)
        kw[key] = bad
        with pytest.raises(InvalidParameterError):
            outage_ppp_rayleigh(**kw)
