"""Infinite-field Poisson baseline for Rayleigh links."""

import math
from dataclasses import fields

import pytest

from finitenet import (InvalidParameterError, NakagamiChannel, Scenario,
                       disk_region, outage_ppp_rayleigh, outage_rlpg)


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


def test_binomial_field_tends_to_the_poisson_baseline():
    # M = round(lambda pi W^2) Rayleigh interferers in a disk of radius W
    # around the receiver approach the Poisson field of density
    # M / (pi W^2) as W grows. The series engine shares no radial code with
    # the closed form. Each doubling of W shrinks the gap by 2^(alpha - 2)
    # (the field beyond W) until the binomial-versus-Poisson O(1/M) term,
    # a factor 4, takes over past alpha = 4.
    for alpha in (2.5, 3.0, 4.0, 6.0):
        gaps = []
        for W in (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0):
            M = round(1e-3 * math.pi * W * W)
            sc = Scenario(region=disk_region((0.0, 0.0), W),
                          receiver=(0.0, 0.0), r0=5.0, num_interferers=M,
                          channel=NakagamiChannel(m0=1.0, m=1.0),
                          alpha=alpha, beta=1.0, rho0=100.0)
            ppp = outage_ppp_rayleigh(M / (math.pi * W * W), 5.0, alpha, 1.0,
                                      100.0)
            gaps.append(outage_rlpg(sc).outage - ppp.outage)
        expected = 2.0 ** min(alpha - 2.0, 2.0)
        for wide, wider in zip(gaps, gaps[1:]):
            assert abs(wide / wider / expected - 1.0) < 0.1, (alpha, gaps)
