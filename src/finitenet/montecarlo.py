"""Simulation oracle: uniform node placement, gamma fading, SINR trials.

Trials are processed in fixed-size chunks, each driven by a counter-based
generator keyed on (seed, chunk index). Chunk results are combined in chunk
order, so the estimate is bit-identical no matter how many worker threads
run the chunks.
"""

import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import scenario as _scenario
from .errors import InvalidParameterError
from .geometry import _as_xy

CHUNK_TRIALS = 1 << 17

# No more chunks compute at once in the whole process than there are CPUs,
# whatever the pools and the callers' threads (a sweep runs several points
# at once): each live chunk keeps one CPU busy and holds its own arrays of
# positions and gains, n trials by M interferers.
_LIVE_CHUNKS = threading.BoundedSemaphore(_scenario._CPU_WORKERS)


@dataclass(frozen=True)
class McEstimate:
    """Bernoulli outage estimate; std_error = sqrt(p(1-p)/trials)."""
    outage_mean: float
    std_error: float
    trials: int
    seed: int


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Right-continuous step CDF from sorted samples."""
    samples: np.ndarray

    def __call__(self, x):
        return np.searchsorted(self.samples, x, side="right") / self.samples.size


def _is_whole(x):
    return isinstance(x, numbers.Integral) or (
        isinstance(x, numbers.Real) and math.isfinite(x) and x == int(x))


def _check_count(name, value):
    if not (_is_whole(value) and value >= 1):
        raise InvalidParameterError(
            f"{name} must be a positive integer, got {value}")
    return int(value)


def _check_seed(seed):
    if not (_is_whole(seed) and 0 <= seed < 2 ** 64):
        raise InvalidParameterError(f"seed must be an integer in [0, 2^64), got {seed}")
    return int(seed)


def _check_workers(workers):
    if workers is None:
        return _scenario._CPU_WORKERS
    if not (isinstance(workers, numbers.Integral)
            and not isinstance(workers, bool) and workers >= 1):
        raise InvalidParameterError(
            f"workers must be None or a positive integer, got {workers!r}")
    return int(workers)


def _rng_for_chunk(seed, chunk):
    return np.random.Generator(np.random.Philox(key=[seed, chunk]))


def _chunk_spans(trials):
    spans = []
    done = 0
    idx = 0
    while done < trials:
        n = min(CHUNK_TRIALS, trials - done)
        spans.append((idx, n))
        done += n
        idx += 1
    return spans


def _map_chunks(chunk, trials, workers):
    """[chunk(idx, n) for each chunk of `trials`], in chunk order, on a pool
    of up to `workers` threads; at width 1 they run on the calling thread.
    Every chunk body holds _LIVE_CHUNKS."""
    spans = _chunk_spans(trials)
    width = min(workers, len(spans))

    def bounded(span):
        with _LIVE_CHUNKS:
            return chunk(*span)

    if width == 1:
        return [bounded(span) for span in spans]
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(bounded, spans))


def sample_uniform_in_region(region, rng, size=None):
    """Exactly uniform points: disk via sqrt-radius scaling, polygon via fan
    triangulation with area-weighted triangle choice and a barycentric flip
    (no rejection, so the draw count per sample is fixed).

    The result is the transpose of one (2, n) buffer, so each coordinate
    column is contiguous; the coordinates are built in place with the same
    floating-point operations, in the same order, as the plain formulas in
    the comments."""
    n = 1 if size is None else int(size)
    xy = np.empty((2, n))
    if region.kind == "disk":
        # center + radius * sqrt(U) * (cos, sin)(2 pi U')
        r = rng.random(n)
        np.sqrt(r, out=r)
        r *= region.radius
        ang = rng.random(n)
        ang *= 2.0 * np.pi
        for k, trig in enumerate((np.cos, np.sin)):
            trig(ang, out=xy[k])
            xy[k] *= r
            xy[k] += region.center[k]
    else:
        # a + u (b[pick] - a) + w (c[pick] - a) over the fan triangles
        v = region.vertices
        a = v[0]
        ab = v[1:-1] - a
        ac = v[2:] - a
        areas = 0.5 * np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
        cum = np.cumsum(areas)
        pick = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
        np.minimum(pick, areas.size - 1, out=pick)
        u = rng.random(n)
        w = rng.random(n)
        flip = u + w > 1.0
        np.subtract(1.0, u, out=u, where=flip)
        np.subtract(1.0, w, out=w, where=flip)
        step = np.empty(n)
        for k in range(2):
            np.take(ab[:, k], pick, out=xy[k])
            xy[k] *= u
            xy[k] += a[k]
            np.take(ac[:, k], pick, out=step)
            step *= w
            xy[k] += step
    pts = xy.T
    return pts[0] if size is None else pts


def simulate_outage(scenario, trials, seed, workers=None):
    """Estimate the outage probability from `trials` independent network
    realizations: per trial draw the interferer positions and all gains,
    form the SINR and count threshold crossings.

    The trials run in chunks on a pool of `workers` threads, by default one
    per CPU the process may use; the estimate is bit-identical for any
    width."""
    trials = _check_count("trials", trials)
    seed = _check_seed(seed)
    workers = _check_workers(workers)
    y0 = scenario.receiver
    m0 = scenario.channel.m0
    m = scenario.channel.m
    num = scenario.num_interferers
    alpha = scenario.alpha
    beta = scenario.beta
    noise = 1.0 / scenario.rho0
    r0a = scenario.r0 ** scenario.alpha
    region = scenario.region

    def chunk_count(idx, n):
        rng = _rng_for_chunk(seed, idx)
        g0 = rng.gamma(m0, 1.0 / m0, n)
        if num:
            # sum over interferers of gain * |x - y0|^-alpha, in place
            dx, dy = sample_uniform_in_region(region, rng, size=n * num).T
            dx -= y0[0]
            dy -= y0[1]
            dist = np.hypot(dx, dy, out=dx).reshape(n, num)
            np.power(dist, -alpha, out=dist)
            gains = rng.gamma(m, 1.0 / m, (n, num))
            gains *= dist
            sinr = g0 / (noise + r0a * gains.sum(axis=1))
        else:
            # a noiseless link (noise 0) never fails without interferers
            with np.errstate(divide="ignore"):
                sinr = g0 / noise
        return int(np.count_nonzero(sinr < beta))

    p = sum(_map_chunks(chunk_count, trials, workers)) / trials
    return McEstimate(outage_mean=p,
                      std_error=math.sqrt(p * (1.0 - p) / trials),
                      trials=trials, seed=seed)


def simulate_distance_distribution(region, y0, samples, seed):
    """Empirical CDF of the distance from y0 to a uniform point."""
    samples = _check_count("samples", samples)
    seed = _check_seed(seed)
    ref = _as_xy(y0)

    def chunk_distances(idx, n):
        dx, dy = sample_uniform_in_region(region, _rng_for_chunk(seed, idx),
                                          size=n).T
        dx -= ref[0]
        dy -= ref[1]
        return np.hypot(dx, dy, out=dx)

    parts = _map_chunks(chunk_distances, samples, _scenario._CPU_WORKERS)
    return EmpiricalCdf(samples=np.sort(np.concatenate(parts)))
