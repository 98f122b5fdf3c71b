"""Scenario and result containers shared by the outage methods."""

import math
import os
import sys
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .channel import MAX_WHOLE, NakagamiChannel, _is_whole
from .errors import InvalidParameterError, NumericFailure
from .geometry import Region, distance_profile, region_contains

ALPHA_MIN = 2.0
ALPHA_MAX = 6.0

# The number of CPUs the process may run on. It is the default width of
# the engines' thread pools (the mgf transform nodes and the Monte Carlo
# chunks), which read it through this module when they start, and the
# number of _CPU_SLOTS. No width changes a number.
_CPU_WORKERS = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# Every call of _run_calls (a transform node or a Monte Carlo chunk) holds
# one slot while it runs, so no more of them compute at once in the whole
# process than there are CPUs, whatever the pools and the callers' threads.
_CPU_SLOTS = threading.BoundedSemaphore(_CPU_WORKERS)


def _run_calls(calls, width):
    """[call() for call in calls], in order: on the calling thread at width
    1, otherwise on a pool of min(width, len(calls)) threads, each call
    holding one of the _CPU_SLOTS. The first call to fail cancels every
    call still queued, and the first failure in call order is re-raised
    once the running calls have finished."""
    def bounded(call):
        with _CPU_SLOTS:
            return call()

    width = min(width, len(calls))
    if width <= 1:
        return [bounded(call) for call in calls]
    with ThreadPoolExecutor(max_workers=width) as pool:
        futures = [pool.submit(bounded, call) for call in calls]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()
    # the pool takes calls in order, so every call before a cancelled one
    # has run, and a failure is reached before any cancelled call
    return [future.result() for future in futures]


# The largest interferer count: the engines carry M as a float.
MAX_INTERFERERS = MAX_WHOLE


def _interferer_count(count):
    """count as an int; the one rule for an interferer count, which must be
    a whole number in [0, MAX_INTERFERERS]."""
    if not (_is_whole(count) and 0 <= count <= MAX_INTERFERERS):
        raise InvalidParameterError(
            f"number of interferers must be an integer in "
            f"[0, {MAX_INTERFERERS}], got {count}")
    return int(count)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One outage computation: where the receiver sits and who interferes.

    region: the network area containing the interferers.
    receiver: receiver coordinates inside the closed region; validated once
        here and stored as a read-only float array of shape (2,).
    r0: reference-transmitter distance (the intended link length), finite.
    num_interferers: number of uniformly placed interfering nodes, at most
        MAX_INTERFERERS; any integral value is stored as a Python int.
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
        object.__setattr__(self, "num_interferers",
                           _interferer_count(self.num_interferers))
        xy = np.array(self.receiver, dtype=float).reshape(2)
        if not region_contains(self.region, xy):
            raise InvalidParameterError(
                f"receiver {xy.tolist()} lies outside the region")
        xy.setflags(write=False)
        object.__setattr__(self, "receiver", xy)

    def profile(self):
        return distance_profile(self.region, self.receiver)

    def check_path_loss(self, r_max):
        """Raise NumericFailure where the path loss as the engines form it,
        m r^alpha (m > 1 the interferer shape), overflows at r0 or r_max,
        or where the reference loss r0^alpha or its threshold multiple
        beta r0^alpha is not a positive normal float (as on a tiny region,
        or at a tiny beta)."""
        far = float(max(self.r0, r_max))
        try:
            loss = max(self.channel.m, 1.0) * far ** self.alpha
        except OverflowError:
            loss = math.inf
        if loss == math.inf:
            raise NumericFailure(
                f"path loss m r^alpha overflows at r = {far:.6g}")
        r0a = self.r0 ** self.alpha
        for name, val in (("r0^alpha", r0a),
                          ("beta r0^alpha", self.beta * r0a)):
            if not sys.float_info.min <= val < math.inf:
                raise NumericFailure(
                    f"path loss {name} = {val:.6g} at r0 = {self.r0:.6g} is "
                    "not a positive normal float")


def _profile_key(scenario):
    """What the scenario's distance profile depends on, the region's
    geometry and the receiver, as a hashable key: the part of a cached
    table's key the engines share."""
    reg = scenario.region
    geometry = (reg.kind, reg.radius,
                None if reg.center is None else reg.center.tobytes(),
                None if reg.vertices is None else reg.vertices.tobytes())
    return geometry, scenario.receiver.tobytes()


@dataclass(frozen=True)
class OutageResult:
    """Outage probability of an analytic engine, with its provenance.

    method: "mgf", "rlpg" or "ppp". Monte Carlo (simulate_outage) returns a
        McEstimate instead, which carries its standard error and trials.
    abs_error: best-effort absolute error (the inversion's aim or the series
        engine's fixed figure); 0.0 for the closed-form baseline.
    """
    outage: float
    method: str
    abs_error: float = 0.0
