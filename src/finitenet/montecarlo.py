"""Simulation oracle: uniform node placement, gamma fading, SINR trials.

Trials are processed in fixed-size chunks, each driven by a counter-based
generator keyed on (seed, chunk index). Chunk results are combined in chunk
order, so the estimate is bit-identical no matter how many worker threads
run the chunks. Several estimates (the Monte Carlo points of a sweep) can
share one pool of chunks. The chunks run through scenario._run_calls, so
they and the transform engine's nodes share one process-wide bound: no
more of them compute at once than there are CPUs. A live chunk holds its
n reference gains and one block of draws.

A chunk draws its reference gains whole, then its interferers in blocks of
at most BLOCK_DRAWS draws, so its memory grows neither with trials times
interferers nor with the interferer count: a block holds whole trials
while a trial's interferers fit in it, and part of one trial's
interferers past that. Each block reads its positions and gains through
cursors on the chunk's own stream, placed where one draw of the whole
chunk would read them, so every block gets the same bits. A trial whose
interferers span sub-blocks sums their interference sub-block by
sub-block, so the count can depend on the block size only where a trial's
SINR lies within rounding of the threshold.

A block forms each interferer's squared offset |x - y0|^2 from the
sampler's draws (see _squared_offsets), then its path loss as that offset
to the power -alpha/2, and reduces gain times loss to each trial's
interference in one pass. On a polygon the interferers are placed exactly
(see _polygon_points), with no per-draw branch and in buffers the sampler
reuses, and their offsets squared in place. On a disk no position
is formed: the offset comes from the polar draws by a half-angle formula,
within 1e-12 relative of a long-double distance from the same draws (at
most 5.5e-14 measured over six disks, against 2.0e-10 for the squared
offsets of the sampled points). Region coordinates stay below
geometry._MAX_COORD, so no squared offset overflows; a loss may, where an
interferer is far closer than the reference transmitter, and then reads as
infinite, an outage (exact unless beta r0^alpha is near its least normal
value, see the chunk). A trial's outage can differ from the distance
formulas only where its SINR lies that close to the threshold.
"""

import math
import numbers
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import scenario as _scenario
from .channel import _is_whole
from .errors import InvalidParameterError

CHUNK_TRIALS = 1 << 17
# a chunk draws its interferers in blocks of max(1, BLOCK_DRAWS // M)
# trials, each trial's in sub-blocks of at most BLOCK_DRAWS, so its arrays
# stay near this many draws whatever n and M
BLOCK_DRAWS = 1 << 15

@dataclass(frozen=True)
class McEstimate:
    """Bernoulli outage estimate; std_error = sqrt(p(1-p)/trials)."""
    outage_mean: float
    std_error: float
    trials: int
    seed: int


def _check_trials(trials):
    if not (_is_whole(trials) and trials >= 1):
        raise InvalidParameterError(
            f"trials must be a positive integer, got {trials}")
    return int(trials)


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
    """(chunk index, trials in the chunk) for each chunk of `trials`."""
    return [(idx, min(CHUNK_TRIALS, trials - start))
            for idx, start in enumerate(range(0, trials, CHUNK_TRIALS))]


def sample_uniform_in_region(region, rng, size=None):
    """Exactly uniform points: disk via sqrt-radius scaling, polygon via fan
    triangulation with area-weighted triangle choice and a barycentric flip
    (no rejection, so the draw count per sample is fixed).

    The result is the transpose of one (2, n) array, so each coordinate
    column is contiguous. A polygon's coordinates are built in place, with
    no per-draw branch, from the same draws and with the same
    floating-point results as the plain formula in _polygon_points."""
    if not (size is None or (_is_whole(size) and size >= 0)):
        raise InvalidParameterError(
            f"size must be None or a whole number >= 0, got {size!r}")
    n = 1 if size is None else int(size)
    if region.kind == "disk":
        r = region.radius * np.sqrt(rng.random(n))
        phi = 2.0 * np.pi * rng.random(n)
        xy = region.center[:, None] + r * np.stack((np.cos(phi), np.sin(phi)))
    else:
        xy = _polygon_points(region, (rng, rng, rng), n)
    pts = xy.T
    return pts[0] if size is None else pts


def _polygon_points(region, streams, n):
    """(2, n) uniform points of a polygon, whose n triangle draws t, then n
    draws u, then n draws w come from the three generators of `streams`
    (one generator three times for the sampler's own draw order).

    Each point is a + u (b[pick] - a) + w (c[pick] - a) over the fan
    triangles, with u, w flipped where u + w > 1."""
    t_rng, u_rng, w_rng = streams
    xy = np.empty((2, n))
    x, y = xy
    v = region.vertices
    a = v[0]
    ab = v[1:-1] - a
    ac = v[2:] - a
    areas = 0.5 * np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    cum = np.cumsum(areas)
    t = t_rng.random(n)
    t *= cum[-1]
    # the gathers' clip mode caps the pick at the last triangle
    pick = np.searchsorted(cum, t, side="right")
    u = u_rng.random(out=t)
    w = w_rng.random(out=x)
    # the flip: with f = 1.0 where u + w > 1 and 0.0 elsewhere,
    # |f - u| is exactly 1 - u or u
    f = np.add(u, w, out=y)
    np.greater(f, 1.0, out=f)
    np.abs(np.subtract(f, u, out=u), out=u)
    np.abs(np.subtract(f, w, out=w), out=w)
    # y first, while w still sits in x. Each coordinate is
    # ((b[pick] - a) u + a) + (c[pick] - a) w; y adds the two terms the
    # other way round, which gives the same bits
    step = np.empty(n)
    np.take(ac[:, 1], pick, out=y, mode="clip")
    y *= w
    np.take(ab[:, 1], pick, out=step, mode="clip")
    step *= u
    step += a[1]
    y += step
    np.take(ac[:, 0], pick, out=step, mode="clip")
    step *= w
    np.take(ab[:, 0], pick, out=x, mode="clip")
    x *= u
    x += a[0]
    x += step
    return xy


def _squared_offsets(region, y0, streams, size):
    """|x - y0|^2 for `size` uniform points x of the region, whose draws
    come from the generators of `streams`: radii then angles on a disk,
    t, u then w on a polygon, each read as sample_uniform_in_region reads
    its one generator for that stream.

    On a disk the points are never formed. With rho = W sqrt(U) and
    phi = 2 pi U' the sampler's polar draws, and delta, psi the polar offset
    of y0 from the centre,
        |x - y0|^2 = (rho - delta)^2 + 4 rho delta sin^2((phi - psi) / 2),
    which needs one sine, not a cosine and a sine, and does not cancel near
    y0 as rho^2 + delta^2 - 2 rho delta cos(phi - psi) does. On a polygon
    the offsets of the sampled points are squared in place."""
    if region.kind == "disk":
        radii, angles = streams
        ox = y0[0] - region.center[0]
        oy = y0[1] - region.center[1]
        delta = math.hypot(ox, oy)
        sq = radii.random(size)
        np.sqrt(sq, out=sq)
        sq *= region.radius
        # (phi - psi) / 2 as pi U' - psi / 2: halving is exact, so these
        # are the same bits
        arc = angles.random(size)
        arc *= np.pi
        arc -= 0.5 * math.atan2(oy, ox)
        np.sin(arc, out=arc)
        arc *= arc
        arc *= sq
        arc *= 4.0 * delta
        sq -= delta
        sq *= sq
        sq += arc
        return sq
    dx, dy = _polygon_points(region, streams, size)
    dx -= y0[0]
    dy -= y0[1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _next_draw(rng):
    """Index of the next raw 64-bit draw of rng's Philox stream (a double
    takes one); the stream makes four per counter step."""
    state = rng.bit_generator.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


def _cursor(rng, j):
    """A generator on rng's Philox stream whose next raw draw is draw j."""
    bits = np.random.Philox(counter=j // 4,
                            key=rng.bit_generator.state["state"]["key"])
    bits.random_raw(j % 4)
    return np.random.Generator(bits)


def _outage_trials(scenario, trials, seed):
    """One estimate's validated inputs, (chunk, trials, seed), where
    chunk(idx, n) counts the outages among the n trials of chunk idx: per
    trial it draws the interferers' squared offsets from the receiver and
    all gains, forms the SINR and compares it with the threshold. Raises
    NumericFailure where the reference path loss r0^alpha overflows."""
    trials = _check_trials(trials)
    seed = _check_seed(seed)
    scenario.check_path_loss(scenario.r0)
    y0 = scenario.receiver
    m0 = scenario.channel.m0
    m = scenario.channel.m
    num = scenario.num_interferers
    half_alpha = 0.5 * scenario.alpha
    beta = scenario.beta
    noise = 1.0 / scenario.rho0
    r0a = scenario.r0 ** scenario.alpha
    region = scenario.region
    positions = 2 if region.kind == "disk" else 3   # streams per position

    def chunk_count(idx, n):
        rng = _rng_for_chunk(seed, idx)
        g0 = rng.gamma(m0, 1.0 / m0, n)
        if not num:
            # a noiseless link (noise 0) never fails without interferers
            with np.errstate(divide="ignore"):
                return int(np.count_nonzero(g0 / noise < beta))
        # After g0 the chunk's stream holds, in turn, n * num draws of each
        # position stream, then the gains. One cursor per stream reads its
        # stretch block by block, so every block gets the bits a draw of
        # the whole chunk would give it, and no array outgrows a block
        size = n * num
        start = _next_draw(rng)
        *streams, gain_rng = [_cursor(rng, start + i * size)
                              for i in range(positions + 1)]
        rows = max(1, BLOCK_DRAWS // num)
        cols = min(num, BLOCK_DRAWS)   # < num only where rows is 1
        count = 0
        for lo in range(0, n, rows):
            k = min(rows, n - lo)
            # sum over interferers of gain * |x - y0|^(-alpha), with the
            # losses formed in place in the squared offsets; one sub-block
            # per block unless one trial's interferers exceed BLOCK_DRAWS.
            # A loss past DBL_MAX reads as infinite and its trial as an
            # outage. That is the true outcome wherever
            # g0 <= beta r0^alpha DBL_MAX gain; at the least beta r0^alpha
            # check_path_loss allows (2.2e-308) it can err only where
            # g0 > 4 gain
            interference = 0.0
            for at in range(0, num, cols):
                w = min(cols, num - at)
                sq = _squared_offsets(region, y0, streams, k * w)
                gains = gain_rng.gamma(m, 1.0 / m, (k, w))
                with np.errstate(over="ignore", divide="ignore"):
                    loss = np.power(sq, -half_alpha, out=sq).reshape(k, w)
                    interference = interference + np.einsum(
                        "ij,ij->i", gains, loss)
            with np.errstate(over="ignore", divide="ignore"):
                sinr = g0[lo:lo + k] / (noise + r0a * interference)
            count += int(np.count_nonzero(sinr < beta))
        return count

    return chunk_count, trials, seed


def _estimate_outages(runs, workers=None):
    """McEstimate of each (chunk, trials, seed) from _outage_trials in runs,
    in order. The chunks of all runs share one pool of `workers` threads,
    by default one per CPU the process may use; each estimate is
    bit-identical for any width and for any company it runs in."""
    workers = _check_workers(workers)
    calls = [partial(chunk, idx, n) for chunk, trials, _ in runs
             for idx, n in _chunk_spans(trials)]
    counts = iter(_scenario._run_calls(calls, workers))
    out = []
    for _, trials, seed in runs:
        p = sum(islice(counts, len(_chunk_spans(trials)))) / trials
        out.append(McEstimate(outage_mean=p,
                              std_error=math.sqrt(p * (1.0 - p) / trials),
                              trials=trials, seed=seed))
    return out


def simulate_outage(scenario, trials, seed, workers=None):
    """Estimate the outage probability from `trials` independent network
    realizations: per trial draw the interferer positions and all gains,
    form the SINR and count threshold crossings.

    The trials run in chunks on a pool of `workers` threads, by default one
    per CPU the process may use; the estimate is bit-identical for any
    width."""
    run = _outage_trials(scenario, trials, seed)
    return _estimate_outages([run], workers)[0]
