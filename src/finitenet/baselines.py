"""Infinite-network reference results used for comparison plots."""

import math

from .errors import InvalidParameterError
from .scenario import OutageResult


def outage_ppp_rayleigh(density, r0, alpha, beta, rho0):
    """Outage of a reference link in an infinite homogeneous Poisson field
    of Rayleigh interferers (the classic stationary result; no boundary
    effects, so it is location independent).

    Requires alpha > 2: the interference functional of an infinite field
    has no finite Laplace exponent at alpha = 2.
    """
    if not (math.isfinite(density) and density >= 0):
        raise InvalidParameterError(
            f"density must be finite and >= 0, got {density}")
    if not (math.isfinite(r0) and r0 > 0):
        raise InvalidParameterError(
            f"link distance must be positive and finite, got {r0}")
    if not (beta > 0 and rho0 > 0):
        raise InvalidParameterError("threshold and SNR must be positive")
    if not alpha > 2.0:
        raise InvalidParameterError(
            f"path-loss exponent must exceed 2 for an infinite field, got {alpha}")
    x = 2.0 * math.pi / alpha
    interference_exponent = (density * math.pi * r0 * r0
                             * beta ** (2.0 / alpha) * x / math.sin(x))
    eps = 1.0 - math.exp(-beta / rho0) * math.exp(-interference_exponent)
    return OutageResult(outage=min(1.0, max(0.0, eps)), method="ppp")
