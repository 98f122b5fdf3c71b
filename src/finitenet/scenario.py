"""Scenario and result containers shared by the outage methods."""

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .channel import NakagamiChannel
from .errors import InvalidParameterError
from .geometry import Region, distance_profile, region_contains

ALPHA_MIN = 2.0
ALPHA_MAX = 6.0

# The width of the engines' thread pools (the mgf transform nodes and the
# Monte Carlo chunks): one thread per CPU the process may run on. The pools
# read it through this module when they start, so one setting moves both.
# No width changes a number.
_CPU_WORKERS = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One outage computation: where the receiver sits and who interferes.

    region: the network area containing the interferers.
    receiver: receiver coordinates inside the closed region; validated once
        here and stored as a read-only float array of shape (2,).
    r0: reference-transmitter distance (the intended link length), finite.
    num_interferers: number of uniformly placed interfering nodes; any
        integral value is stored as a Python int.
    channel: Nakagami shapes for the reference and interferer links.
    alpha: path-loss exponent in [2, 6].
    beta: SINR threshold, linear scale, finite.
    rho0: mean SNR of the reference link at distance r0, linear scale;
        inf is a noiseless link.
    """
    region: Region
    receiver: np.ndarray
    r0: float
    num_interferers: int
    channel: NakagamiChannel
    alpha: float
    beta: float
    rho0: float

    def __post_init__(self):
        if not (ALPHA_MIN <= self.alpha <= ALPHA_MAX):
            raise InvalidParameterError(
                f"path-loss exponent must lie in [2, 6], got {self.alpha}")
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise InvalidParameterError(
                f"r0 must be positive and finite, got {self.r0}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise InvalidParameterError(
                f"beta must be positive and finite, got {self.beta}")
        if not self.rho0 > 0:
            raise InvalidParameterError(f"rho0 must be positive, got {self.rho0}")
        count = self.num_interferers
        if not (isinstance(count, numbers.Real) and math.isfinite(count)
                and count >= 0 and count == int(count)):
            raise InvalidParameterError(
                f"number of interferers must be an integer >= 0, "
                f"got {count}")
        object.__setattr__(self, "num_interferers", int(count))
        xy = np.array(self.receiver, dtype=float).reshape(2)
        if not region_contains(self.region, xy):
            raise InvalidParameterError(
                f"receiver {xy.tolist()} lies outside the region")
        xy.setflags(write=False)
        object.__setattr__(self, "receiver", xy)

    def profile(self):
        return distance_profile(self.region, self.receiver)


@dataclass(frozen=True)
class OutageResult:
    """Outage probability with provenance and accuracy metadata.

    method: "mgf", "rlpg", "mc", or "ppp".
    abs_error: best-effort absolute error bound (inversion target, quadrature
        estimate, or Monte Carlo standard error).
    std_error/trials: populated for Monte Carlo estimates only.
    """
    outage: float
    method: str
    abs_error: float = 0.0
    std_error: float = None
    trials: int = None
