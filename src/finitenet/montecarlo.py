"""Simulation oracle: uniform node placement, gamma fading, SINR trials.

Trials are processed in fixed-size chunks, each driven by a counter-based
generator keyed on (seed, chunk index). Chunk results are combined in chunk
order, so the estimate is bit-identical no matter how many worker threads
run the chunks.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .geometry import _as_xy

CHUNK_TRIALS = 1 << 17


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


def _check_seed(seed):
    if seed != int(seed) or not 0 <= int(seed) < 2 ** 64:
        raise InvalidParameterError(f"seed must be an integer in [0, 2^64), got {seed}")
    return int(seed)


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


def sample_uniform_in_region(region, rng, size=None):
    """Exactly uniform points: disk via sqrt-radius scaling, polygon via fan
    triangulation with area-weighted triangle choice and a barycentric flip
    (no rejection, so the draw count per sample is fixed)."""
    n = 1 if size is None else int(size)
    if region.kind == "disk":
        r = region.radius * np.sqrt(rng.random(n))
        ang = rng.random(n) * (2.0 * np.pi)
        pts = np.column_stack([region.center[0] + r * np.cos(ang),
                               region.center[1] + r * np.sin(ang)])
    else:
        v = region.vertices
        a = v[0]
        b = v[1:-1]
        c = v[2:]
        areas = 0.5 * np.abs((b[:, 0] - a[0]) * (c[:, 1] - a[1])
                             - (b[:, 1] - a[1]) * (c[:, 0] - a[0]))
        cum = np.cumsum(areas)
        pick = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
        pick = np.minimum(pick, areas.size - 1)
        u = rng.random(n)
        w = rng.random(n)
        flip = u + w > 1.0
        u = np.where(flip, 1.0 - u, u)
        w = np.where(flip, 1.0 - w, w)
        pts = a + u[:, None] * (b[pick] - a) + w[:, None] * (c[pick] - a)
    return pts[0] if size is None else pts


def simulate_outage(scenario, trials, seed, workers=None):
    """Estimate the outage probability from `trials` independent network
    realizations: per trial draw the interferer positions and all gains,
    form the SINR and count threshold crossings."""
    if trials != int(trials) or trials < 1:
        raise InvalidParameterError(f"trials must be a positive integer, got {trials}")
    seed = _check_seed(seed)
    trials = int(trials)
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
            pts = sample_uniform_in_region(region, rng, size=n * num)
            dist = np.hypot(pts[:, 0] - y0[0],
                            pts[:, 1] - y0[1]).reshape(n, num)
            gains = rng.gamma(m, 1.0 / m, (n, num))
            agg = (gains * dist ** -alpha).sum(axis=1)
            sinr = g0 / (noise + r0a * agg)
        else:
            sinr = g0 / noise
        return int(np.count_nonzero(sinr < beta))

    spans = _chunk_spans(trials)
    if workers is not None and workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(lambda t: chunk_count(*t), spans))
    else:
        counts = [chunk_count(*t) for t in spans]
    p = sum(counts) / trials
    return McEstimate(outage_mean=p,
                      std_error=math.sqrt(p * (1.0 - p) / trials),
                      trials=trials, seed=seed)


def simulate_distance_distribution(region, y0, samples, seed):
    """Empirical CDF of the distance from y0 to a uniform point."""
    if samples != int(samples) or samples < 1:
        raise InvalidParameterError(f"samples must be a positive integer, got {samples}")
    seed = _check_seed(seed)
    ref = _as_xy(y0)
    parts = []
    for idx, n in _chunk_spans(int(samples)):
        rng = _rng_for_chunk(seed, idx)
        pts = sample_uniform_in_region(region, rng, size=n)
        parts.append(np.hypot(pts[:, 0] - ref[0], pts[:, 1] - ref[1]))
    return EmpiricalCdf(samples=np.sort(np.concatenate(parts)))
