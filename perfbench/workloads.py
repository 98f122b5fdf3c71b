"""Seeded workload inputs for the benchmark and the checks on their outputs.

A workload is a list of passes; pass k is generated from (seed, workload,
k) alone, so the same seed always gives the same inputs. Pass 0 holds the
ROADMAP baseline scenarios unchanged. Later passes perturb the transform-
engine points and draw fresh grid points, so a cache that only serves exact
repeats gains nothing across passes there. Two groups repeat unchanged on
every pass: the three series-engine baseline runs of rlpg-grid (3 of 175
runs, kept exact so their named figures stay comparable) and the CLI Monte
Carlo runs (fixed so their 3-sigma check is a verified comparison).

Every operation carries its own output check. References are computed with
the library, from a scenario the benchmark builds itself (not through the
CLI's scenario assembly): the series engine for transform-engine points
(the two engines must agree to 1e-6), the series engine within three
standard errors for Monte Carlo, and for series-engine points the library
result through an independent scenario build, plus the disk-centre closed
form and the transform engine on two points per run.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from finitenet import (NakagamiChannel, Scenario, disk_region,
                       make_fig2_region, make_regular_polygon, outage_disk_center,
                       outage_mgf, outage_rlpg, polygon_region, simulate_outage)
from finitenet.montecarlo import CHUNK_TRIALS

ENGINE_TOL = 1e-6        # ROADMAP: the two analytic engines agree to 1e-6
CLI_TOL = 1e-10          # CSV carries 12 significant digits of the library value
MC_SIGMAS = 3.0

WORKLOADS = ("mgf-distinct", "mgf-shared", "rlpg-grid", "mc")

BASE = {"r0": 5.0, "M": 10, "m0": 1, "m": 1, "alpha": 4.0,
        "beta_db": 0.0, "snr_db": 20.0}


@dataclass
class Op:
    """One operation: a CLI invocation (`argv` without --scenario/--out)
    on `scenario`, or a library call `call()`. `check(output)` returns an
    error message or None; it may record the engine gap in `gaps`."""
    label: str
    kind: str                      # run | sweep | maxm | simulate
    points: int                    # outage values the operation produces
    check: object
    argv: tuple = ()
    scenario: dict = None
    call: object = None
    trials: int = 0
    mc_workers: int = 0            # 1 for the CLI path, 2 for the library call
    baseline: str = None
    gaps: list = field(default_factory=list)


# ----- scenario files and the benchmark's own scenario build -----

def scen(region, receiver, **overrides):
    out = {"region": region, "receiver": receiver}
    out.update(BASE)
    out.update(overrides)
    return out


def disk(radius=100.0):
    return {"type": "disk", "params": {"radius": radius}}


def regular(sides, circumradius=100.0):
    return {"type": "regular_polygon",
            "params": {"num_sides": sides, "circumradius": circumradius}}


def fig2(width=100.0):
    return {"type": "fig2", "params": {"width": width}}


def polygon(vertices):
    return {"type": "polygon",
            "params": {"vertices": [[float(x), float(y)] for x, y in vertices]}}


def _region(spec):
    p = spec["params"]
    if spec["type"] == "disk":
        return disk_region((0.0, 0.0), p["radius"])
    if spec["type"] == "regular_polygon":
        return make_regular_polygon(p["num_sides"], p["circumradius"])
    if spec["type"] == "fig2":
        return make_fig2_region(p["width"])
    return polygon_region(p["vertices"])


def library_scenario(s, **overrides):
    s = dict(s, **overrides)
    region = _region(s["region"])
    rec = s["receiver"]
    mode = rec["mode"]
    if mode == "coords":
        xy = tuple(rec["coords"])
    elif mode == "disk_offset_d":
        xy = (rec["d"], 0.0)
    elif mode == "center":
        xy = (0.0, 0.0)
    else:
        v = region.vertices
        i = rec["index"]
        j = i if mode == "vertex_index" else (i + 1) % len(v)
        xy = (0.5 * (v[i, 0] + v[j, 0]), 0.5 * (v[i, 1] + v[j, 1]))
    return Scenario(region=region, receiver=xy, r0=s["r0"],
                    num_interferers=s["M"],
                    channel=NakagamiChannel(m0=float(s["m0"]), m=float(s["m"])),
                    alpha=s["alpha"], beta=10.0 ** (s["beta_db"] / 10.0),
                    rho0=10.0 ** (s["snr_db"] / 10.0))


def rlpg_ref(s, **overrides):
    return outage_rlpg(library_scenario(s, **overrides)).outage


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _run_row(text):
    header, rows = _csv_rows(text)
    if len(rows) != 1:
        raise ValueError(f"expected one row, got {len(rows)}")
    return dict(zip(header, rows[0]))


def _integer(x):
    return float(x) == int(x)


# ----- checks -----

def check_rlpg_run(s, crosscheck_mgf=False):
    def check(op, text):
        row = _run_row(text)
        got = float(row["outage"])
        if row["method"] != "rlpg":
            return f"method {row['method']}"
        ref = rlpg_ref(s)
        if abs(got - ref) > CLI_TOL:
            return f"outage {got!r} != library {ref!r}"
        if s["receiver"]["mode"] == "disk_offset_d" and s["receiver"]["d"] == 0:
            closed = outage_disk_center(
                s["region"]["params"]["radius"], s["r0"], s["M"], s["m0"],
                s["m"], s["alpha"], 10.0 ** (s["beta_db"] / 10.0),
                10.0 ** (s["snr_db"] / 10.0)).outage
            if abs(got - closed) > ENGINE_TOL:
                return f"outage {got!r} != disk-centre closed form {closed!r}"
        if crosscheck_mgf:
            other = outage_mgf(library_scenario(s)).outage
            op.gaps.append(abs(got - other))
            if abs(got - other) > ENGINE_TOL:
                return f"rlpg {got!r} vs mgf {other!r}"
        return None
    return check


def _check_mgf_value(op, s, got):
    m0 = float(s["m0"])
    if _integer(m0):
        ref = rlpg_ref(s)
        op.gaps.append(abs(got - ref))
        if abs(got - ref) > ENGINE_TOL:
            return f"mgf {got!r} vs rlpg {ref!r}"
        return None
    # half-integer reference shape: the outage lies between its integer
    # neighbours (the acceptance suite's betweenness property)
    lo = rlpg_ref(s, m0=math.floor(m0))
    hi = rlpg_ref(s, m0=math.ceil(m0))
    if not min(lo, hi) < got < max(lo, hi):
        return f"mgf {got!r} not between {lo!r} and {hi!r}"
    return None


def check_mgf_run(s):
    def check(op, text):
        row = _run_row(text)
        if row["method"] != "mgf":
            return f"method {row['method']}"
        return _check_mgf_value(op, s, float(row["outage"]))
    return check


def check_mc_run(s):
    def check(op, text):
        row = _run_row(text)
        got, err = float(row["outage"]), float(row["std_error"])
        ref = rlpg_ref(s)
        if not abs(got - ref) <= MC_SIGMAS * err:
            return f"mc {got!r} +- {err!r} vs rlpg {ref!r}"
        return None
    return check


def check_sweep(s, variable, values, method):
    def check(op, text):
        header, rows = _csv_rows(text)
        if header[:3] != ["scenario", variable, "outage_" + method]:
            return f"header {header}"
        if [float(r[1]) for r in rows] != [float(v) for v in values]:
            return "grid order"
        for r in rows:
            point = dict(s)
            if variable == "d":
                point["receiver"] = {"mode": "disk_offset_d", "d": float(r[1])}
            else:
                point[variable] = float(r[1])
            got = float(r[2])
            if method == "mgf":
                err = _check_mgf_value(op, point, got)
            else:
                ref = rlpg_ref(point)
                err = None if abs(got - ref) <= CLI_TOL else \
                    f"{variable}={r[1]}: {got!r} != library {ref!r}"
            if err:
                return err
        return None
    return check


def reference_max_interferers(s, target):
    """Linear scan with the series engine, rounded to the nearest count the
    way the CLI documents it (ties keep the count that meets the target)."""
    prev = rlpg_ref(s, M=0)
    if prev > target:
        return 0
    count = 1
    while True:
        eps = rlpg_ref(s, M=count)
        if eps > target:
            return count - 1 if target - prev <= eps - target else count
        prev = eps
        count += 1


def check_maxm(s, target, method):
    def check(op, text):
        row = _run_row(text)
        if row["method"] != method or row["feasible"] != "true":
            return f"method {row['method']} feasible {row['feasible']}"
        got = int(row["max_interferers"])
        ref = reference_max_interferers(s, target)
        if got != ref:
            return f"M* {got} ({method}) != {ref} (rlpg scan)"
        return None
    return check


# ----- operation constructors -----

def run_op(label, s, method, check, baseline=None):
    return Op(label=label, kind="run", points=1, check=check, scenario=s,
              argv=("run", "--method", method), baseline=baseline)


def rlpg_run(label, s, baseline=None, crosscheck_mgf=False):
    return run_op(label, s, "rlpg", check_rlpg_run(s, crosscheck_mgf), baseline)


def mgf_run(label, s, baseline=None):
    return run_op(label, s, "mgf", check_mgf_run(s), baseline)


def sweep_op(label, s, variable, values, method):
    grid = ",".join(repr(float(v)) for v in values)
    return Op(label=label, kind="sweep", points=len(values), scenario=s,
              argv=("sweep", "--method", method, "--variable", variable,
                    "--values", grid),
              check=check_sweep(s, variable, values, method))


def maxm_op(label, s, target, method, baseline=None):
    return Op(label=label, kind="maxm", points=1, scenario=s,
              argv=("maxm", "--method", method, "--target", repr(target)),
              check=check_maxm(s, target, method), baseline=baseline)


# ----- seeded geometry -----

def _interior_point(rng, vertices):
    """A strictly interior point: Dirichlet-weighted vertex combination."""
    w = rng.dirichlet(np.full(len(vertices), 2.0))
    v = np.asarray(vertices, dtype=float)
    return [float(w @ v[:, 0]), float(w @ v[:, 1])]


def _convex_hexagon(rng):
    """Six points on an ellipse at jittered angles: strictly convex, CCW."""
    ang = 2.0 * np.pi * (np.arange(6) + rng.uniform(-0.3, 0.3, 6)) / 6.0
    return np.column_stack([120.0 * np.cos(ang), 90.0 * np.sin(ang)])


def _jitter(rng, k, scale):
    """1 on pass 0 (the baseline scenario), 1 +- scale afterwards."""
    return 1.0 if k == 0 else 1.0 + scale * rng.uniform(-1.0, 1.0)


# ----- workloads -----

def mgf_distinct(rng, k, smoke):
    """Transform engine on points that share no work: fig2 vertex and edge,
    a pentagon and a random hexagon interior, disk d=25 and a seeded disk
    offset; integer and half-integer reference shapes."""
    pent = make_regular_polygon(5, 100.0).vertices
    hexagon = _convex_hexagon(rng)
    ops = [
        mgf_run("fig2-vertex",
                scen(fig2(100.0 * _jitter(rng, k, 0.01)),
                     {"mode": "vertex_index", "index": 1}),
                baseline="fig2_vertex.mgf_s" if k == 0 else None),
        mgf_run("disk-d25",
                scen(disk(), {"mode": "disk_offset_d",
                              "d": 25.0 * _jitter(rng, k, 0.02)}),
                baseline="disk_d25.mgf_s" if k == 0 else None),
    ]
    if smoke:
        return ops
    ops += [
        mgf_run("fig2-edge",
                scen(fig2(100.0 * _jitter(rng, k, 0.01)),
                     {"mode": "edge_midpoint_index", "index": 0}, m0=1.5)),
        mgf_run("pentagon-interior",
                scen(regular(5), {"mode": "coords",
                                  "coords": _interior_point(rng, pent)}, m0=2)),
        mgf_run("hexagon-interior",
                scen(polygon(hexagon),
                     {"mode": "coords",
                      "coords": _interior_point(rng, hexagon)}, m0=2.5)),
        mgf_run("disk-offset",
                scen(disk(), {"mode": "disk_offset_d",
                              "d": float(rng.uniform(0.0, 100.0))}, m0=1.5)),
    ]
    return ops


MAXM_TARGET = 0.02        # M* = 5 on the rim, 0.0006 from the crossing
SMOKE_MAXM_TARGET = 0.0115  # M* = 1


def mgf_shared(rng, k, smoke):
    """One disk-rim geometry per pass (Rayleigh, alpha 4, 20 dB): `maxm`
    scans M = 0..M*+1 and a 4-point SNR sweep and a run all share
    (profile, m, alpha) -- the place where caching or count batching show."""
    W = 100.0 * _jitter(rng, k, 0.005)
    s = scen(disk(W), {"mode": "disk_offset_d", "d": W})
    snrs = [15.0, 18.0, 21.0, 24.0] if k == 0 else \
        sorted(float(x) for x in np.round(rng.uniform(12.0, 28.0, 4), 3))
    if smoke:
        return [maxm_op("disk-rim-maxm", s, SMOKE_MAXM_TARGET, "mgf"),
                sweep_op("disk-rim-snr-sweep", s, "snr_db", snrs[:2], "mgf"),
                mgf_run("disk-rim-run", dict(s, M=1))]
    return [
        maxm_op("disk-rim-maxm", s, MAXM_TARGET, "mgf",
                baseline="disk_rim.maxm_mgf_s" if k == 0 else None),
        sweep_op("disk-rim-snr-sweep", s, "snr_db", snrs, "mgf"),
        mgf_run("disk-rim-run", dict(s, M=5)),
    ]


def _link(rng, m0):
    return {"m0": m0, "m": float(np.round(rng.uniform(0.5, 3.0), 4)),
            "alpha": float(np.round(rng.uniform(2.0, 6.0), 4)),
            "M": int(rng.integers(1, 21))}


def _rlpg_block(rng, ops):
    """Stratified block: 12 disk points (d = 0 and d = W included), every
    regular polygon L = 3..9 at centre, vertex and edge midpoint, and 10 fig2
    receivers; m0 cycles 1..4 so every block has the same mix."""
    m0s = iter(np.tile([1, 2, 3, 4], 11))
    ds = [0.0, 100.0] + [float(np.round(x, 4)) for x in rng.uniform(0, 100, 10)]
    for d in ds:
        ops.append(rlpg_run("disk",
                            scen(disk(), {"mode": "disk_offset_d", "d": d},
                                 **_link(rng, int(next(m0s))))))
    for sides in range(3, 10):
        idx = int(rng.integers(sides))
        for rec in ({"mode": "center"},
                    {"mode": "vertex_index", "index": idx},
                    {"mode": "edge_midpoint_index", "index": idx}):
            ops.append(rlpg_run(f"polygon-L{sides}",
                                scen(regular(sides), rec,
                                     **_link(rng, int(next(m0s))))))
    quad = make_fig2_region(100.0).vertices
    recs = [{"mode": "vertex_index", "index": i} for i in range(4)]
    recs += [{"mode": "edge_midpoint_index", "index": i} for i in range(4)]
    recs += [{"mode": "coords", "coords": _interior_point(rng, quad)}
             for _ in range(2)]
    for rec in recs:
        ops.append(rlpg_run("fig2", scen(fig2(), rec,
                                         **_link(rng, int(next(m0s))))))


def rlpg_grid(rng, k, smoke):
    """Series engine on many cheap points: stratified blocks of `run`, one
    `sweep --variable d` and one `maxm`, plus the baseline runs (disk d=25
    with m0 = 1 and 4, fig2 vertex) on every pass."""
    ops = [
        rlpg_run("disk-d25", scen(disk(), {"mode": "disk_offset_d", "d": 25.0}),
                 baseline="disk_d25.rlpg_s"),
        rlpg_run("disk-d25-m4", scen(disk(), {"mode": "disk_offset_d",
                                              "d": 25.0}, m0=4),
                 baseline="disk_d25_m4.rlpg_s"),
        rlpg_run("fig2-vertex", scen(fig2(), {"mode": "vertex_index",
                                              "index": 1}),
                 baseline="fig2_vertex.rlpg_s"),
    ]
    for _ in range(1 if smoke else 4):
        _rlpg_block(rng, ops)
    if k == 0:
        # transform-engine cross-check on an off-centre disk point and a
        # pentagon point, once per run; untimed like every check
        for label in ("disk", "polygon-L5"):
            op = next(o for o in ops if o.label == label
                      and o.scenario["receiver"].get("d") != 0.0)
            op.check = check_rlpg_run(op.scenario, crosscheck_mgf=True)
    sweep_s = scen(disk(), {"mode": "disk_offset_d", "d": 0.0},
                   **_link(rng, int(rng.integers(1, 5))))
    ops.append(sweep_op("disk-d-sweep", sweep_s, "d",
                        [float(v) for v in np.linspace(0.0, 100.0, 11)], "rlpg"))
    # alpha 4 and Rayleigh interferers keep M* near the ROADMAP's 21
    maxm_s = scen(disk(), {"mode": "disk_offset_d",
                           "d": float(np.round(rng.uniform(0, 100), 4))},
                  m0=int(rng.integers(1, 5)), M=0)
    ops.append(maxm_op("disk-maxm", maxm_s, 0.05, "rlpg",
                       baseline="disk_maxm.rlpg_s" if k == 0 else None))
    return ops


MC_TRIALS = 8 * CHUNK_TRIALS          # equal chunks for both workers
SMOKE_MC_TRIALS = 2 * CHUNK_TRIALS


def _simulate_op(s, trials, seed):
    """Library Monte Carlo on two workers; must match one worker bit for
    bit (the one-worker reference is computed in the check, untimed)."""
    sc = library_scenario(s)

    def call():
        from finitenet import montecarlo
        return montecarlo.simulate_outage(sc, trials, seed, workers=2)

    def check(op, est):
        one = simulate_outage(sc, trials, seed)
        if (est.outage_mean, est.std_error) != (one.outage_mean, one.std_error):
            return f"workers=2 {est.outage_mean!r} != workers=1 {one.outage_mean!r}"
        return None
    return Op(label="disk-d25-workers2", kind="simulate", points=1,
              check=check, call=call, trials=trials, mc_workers=2,
              baseline="disk_d25.mc_w2_s")


def mc(rng, k, smoke):
    """Monte Carlo through the CLI (one worker; disk and polygon samplers)
    at the documented default seed 0, so the 3-sigma check against the
    series engine is a fixed, verified comparison rather than a coin with a
    0.3% chance of failing; plus the library on two workers at a seeded
    Monte Carlo seed, checked bit for bit against one worker."""
    trials = SMOKE_MC_TRIALS if smoke else MC_TRIALS
    mc_cfg = {"trials": trials, "seed": 0}
    disk_s = scen(disk(), {"mode": "disk_offset_d", "d": 25.0}, mc=mc_cfg)
    fig2_s = scen(fig2(), {"mode": "coords", "coords": [33.4, 80.7]}, mc=mc_cfg)
    ops = []
    for label, s, baseline in (("disk-d25", disk_s, "disk_d25.mc_s"),
                               ("fig2-interior", fig2_s, None)):
        op = run_op(label, s, "mc", check_mc_run(s), baseline)
        op.trials, op.mc_workers = trials, 1
        ops.append(op)
    ops.append(_simulate_op(disk_s, trials, int(rng.integers(0, 2 ** 32))))
    return ops


MAKERS = {"mgf-distinct": mgf_distinct, "mgf-shared": mgf_shared,
          "rlpg-grid": rlpg_grid, "mc": mc}


def make_pass(workload, seed, k, smoke=False):
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), k])
    return MAKERS[workload](rng, k, smoke)
