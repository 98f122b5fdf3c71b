"""Command-line front end: JSON scenario files in, deterministic CSV out.

Subcommands: `run` evaluates a single scenario, `sweep` varies one scenario
field over a grid, `maxm` searches for the interferer count at which the
outage curve crosses a target, rounded to the nearest count. Tables are
byte-stable for fixed inputs so they can serve as regression artifacts.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .baselines import outage_ppp_rayleigh
from .channel import MAX_WHOLE, NakagamiChannel, _is_whole, integer_shape
from .errors import (InvalidParameterError, ModelInconsistencyError,
                     NumericFailure, ScenarioParseError, UnsupportedModelError)
from .geometry import (disk_region, make_fig2_region, make_regular_polygon,
                       polygon_region)
from .mgf import QUADRATURE_REL_TOL, EulerInversionParams, outage_mgf
from .montecarlo import _estimate_outages, _outage_trials, simulate_outage
from .rlpg import outage_rlpg, outage_rlpg_for_counts
from .scenario import Scenario

_MAXM_CAP = 100000
# The most points a 'start:stop:count' grid may ask for.
_GRID_CAP = 100000
# Integer fields and M or L grid values stay within MAX_WHOLE; seeds may use
# all of Monte Carlo's [0, 2^64).
_SEED_MAX = 2 ** 64 - 1

REGION_TYPES = ("disk", "regular_polygon", "polygon", "fig2")
RECEIVER_MODES = ("coords", "center", "vertex_index", "edge_midpoint_index",
                  "disk_offset_d")
METHODS = ("auto", "mgf", "rlpg", "mc", "ppp")
SWEEP_VARIABLES = ("d", "snr_db", "alpha", "L", "M", "beta_db")

RUN_HEADER = ("scenario", "method", "region", "receiver_x", "receiver_y",
              "r0", "M", "m0", "m", "alpha", "beta_db", "snr_db",
              "outage", "std_error")
MAXM_HEADER = ("scenario", "method", "epsilon_target", "max_interferers",
               "outage_at_max", "feasible")


# ----- scenario file parsing -----

@dataclass(frozen=True)
class ScenarioConfig:
    """Normalized scenario file: geometry recipe, link parameters (dB as
    given), and evaluation settings. Sweeps derive modified copies."""
    region_type: str
    region_params: dict
    receiver_mode: str
    receiver_params: dict
    r0: float
    num_interferers: int
    m0: float
    m: float
    alpha: float
    beta_db: float
    snr_db: float
    method: str = "auto"
    inversion: EulerInversionParams = None
    quadrature_rel_tol: float = QUADRATURE_REL_TOL
    mc_trials: int = 1000000
    mc_seed: int = 0
    density: float = None

    @property
    def beta(self):
        return _from_db(self.beta_db)

    @property
    def rho0(self):
        return _from_db(self.snr_db)


def _from_db(db):
    """10^(db/10), or inf where that overflows (past about 3082.5 dB); the
    Scenario refuses an infinite beta and takes an infinite rho0 as a
    noiseless link."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _check_keys(obj, allowed, where):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ScenarioParseError(
            f"unknown field '{where}{unknown[0]}' "
            f"(allowed: {', '.join(sorted(allowed))})")


def _get(obj, key, where, required=True, default=None):
    if key not in obj:
        if required:
            raise ScenarioParseError(f"missing field '{where}{key}'")
        return default
    return obj[key]


def _obj(val, path):
    if not isinstance(val, dict):
        raise ScenarioParseError(f"field '{path}' must be an object")
    return val


def _num(val, path):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioParseError(f"field '{path}' must be a number, got {val!r}")
    try:
        return float(val)
    except OverflowError:
        raise ScenarioParseError(f"field '{path}' is out of range, got {val!r}")


def _int(val, path, minimum=None, maximum=MAX_WHOLE):
    """The exact integer in val: a JSON integer as it stands, or a float
    with an integral value."""
    if not _is_whole(val):
        raise ScenarioParseError(f"field '{path}' must be an integer, got {val!r}")
    n = int(val)
    if minimum is not None and n < minimum:
        raise ScenarioParseError(f"field '{path}' must be >= {minimum}, got {n}")
    if n > maximum:
        raise ScenarioParseError(f"field '{path}' must be <= {maximum}, got {n}")
    return n


def _xy(val, path):
    if not isinstance(val, (list, tuple)) or len(val) != 2:
        raise ScenarioParseError(f"field '{path}' must be a pair [x, y]")
    return (_num(val[0], path + "[0]"), _num(val[1], path + "[1]"))


def load_scenario(path):
    """Read and JSON-decode a scenario file, reporting position on failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError as exc:   # an integer literal past Python's digit limit
        raise ScenarioParseError(f"{path}: {exc}")
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{path}: top level must be an object")
    return raw


def _parse_region(raw):
    region = _obj(_get(raw, "region", ""), "region")
    _check_keys(region, ("type", "params"), "region.")
    rtype = _get(region, "type", "region.")
    if rtype not in REGION_TYPES:
        raise ScenarioParseError(
            f"field 'region.type' must be one of {', '.join(REGION_TYPES)}, "
            f"got {rtype!r}")
    params = _obj(_get(region, "params", "region."), "region.params")
    where = "region.params."
    if rtype == "disk":
        _check_keys(params, ("radius", "center"), where)
        out = {"radius": _num(_get(params, "radius", where), where + "radius"),
               "center": _xy(params.get("center", (0.0, 0.0)), where + "center")}
    elif rtype == "regular_polygon":
        _check_keys(params, ("num_sides", "circumradius", "area", "center"), where)
        if ("circumradius" in params) == ("area" in params):
            raise ScenarioParseError(
                "regular_polygon needs exactly one of "
                "'region.params.circumradius' or 'region.params.area'")
        out = {"num_sides": _int(_get(params, "num_sides", where),
                                 where + "num_sides", minimum=3),
               "circumradius": None, "area": None,
               "center": _xy(params.get("center", (0.0, 0.0)), where + "center")}
        if "circumradius" in params:
            out["circumradius"] = _num(params["circumradius"],
                                       where + "circumradius")
        else:
            out["area"] = _num(params["area"], where + "area")
    elif rtype == "polygon":
        _check_keys(params, ("vertices",), where)
        verts = _get(params, "vertices", where)
        if not isinstance(verts, list) or len(verts) < 3:
            raise ScenarioParseError(
                f"field '{where}vertices' must list at least 3 [x, y] pairs")
        out = {"vertices": tuple(_xy(v, f"{where}vertices[{i}]")
                                 for i, v in enumerate(verts))}
    else:
        _check_keys(params, ("width",), where)
        out = {"width": _num(_get(params, "width", where), where + "width")}
    return rtype, out


_RECEIVER_KEYS = {
    "coords": ("mode", "coords"),
    "center": ("mode",),
    "vertex_index": ("mode", "index"),
    "edge_midpoint_index": ("mode", "index"),
    "disk_offset_d": ("mode", "d"),
}


def _parse_receiver(raw):
    receiver = _obj(_get(raw, "receiver", ""), "receiver")
    mode = _get(receiver, "mode", "receiver.")
    if mode not in RECEIVER_MODES:
        raise ScenarioParseError(
            f"field 'receiver.mode' must be one of {', '.join(RECEIVER_MODES)}, "
            f"got {mode!r}")
    _check_keys(receiver, _RECEIVER_KEYS[mode], "receiver.")
    params = {}
    if mode == "coords":
        params["coords"] = _xy(_get(receiver, "coords", "receiver."),
                               "receiver.coords")
    elif mode in ("vertex_index", "edge_midpoint_index"):
        params["index"] = _int(_get(receiver, "index", "receiver."),
                               "receiver.index", minimum=0)
    elif mode == "disk_offset_d":
        params["d"] = _num(_get(receiver, "d", "receiver."), "receiver.d")
    return mode, params


def _parse_inversion(raw):
    inv = raw.get("inversion")
    if inv is None:
        return None
    inv = _obj(inv, "inversion")
    _check_keys(inv, ("zeta", "A", "B", "C"), "inversion.")
    if "zeta" in inv:
        if len(inv) != 1:
            raise ScenarioParseError(
                "field 'inversion' takes either zeta or A/B/C, not both")
        return EulerInversionParams.from_accuracy_digits(
            _num(inv["zeta"], "inversion.zeta"))
    return EulerInversionParams(A=_num(_get(inv, "A", "inversion."), "inversion.A"),
                                B=_int(_get(inv, "B", "inversion."), "inversion.B"),
                                C=_int(_get(inv, "C", "inversion."), "inversion.C"))


_TOP_KEYS = ("region", "receiver", "r0", "M", "m0", "m", "alpha", "beta_db",
             "snr_db", "method", "inversion", "quadrature_rel_tol", "mc",
             "density")


def parse_scenario_config(raw):
    """Validate a decoded scenario file and normalize it to ScenarioConfig."""
    _check_keys(raw, _TOP_KEYS, "")
    rtype, rparams = _parse_region(raw)
    mode, mparams = _parse_receiver(raw)
    method = raw.get("method", "auto")
    if method not in METHODS:
        raise ScenarioParseError(
            f"field 'method' must be one of {', '.join(METHODS)}, got {method!r}")
    rel_tol = raw.get("quadrature_rel_tol")
    if rel_tol is None:
        rel_tol = QUADRATURE_REL_TOL
    else:
        rel_tol = _num(rel_tol, "quadrature_rel_tol")
        if not rel_tol > 0:
            raise ScenarioParseError(
                f"field 'quadrature_rel_tol' must be positive, got {rel_tol}")
    mc = _obj(raw.get("mc", {}), "mc")
    _check_keys(mc, ("trials", "seed"), "mc.")
    density = raw.get("density")
    return ScenarioConfig(
        region_type=rtype,
        region_params=rparams,
        receiver_mode=mode,
        receiver_params=mparams,
        r0=_num(_get(raw, "r0", ""), "r0"),
        num_interferers=_int(_get(raw, "M", ""), "M", minimum=0),
        m0=_num(_get(raw, "m0", ""), "m0"),
        m=_num(_get(raw, "m", ""), "m"),
        alpha=_num(_get(raw, "alpha", ""), "alpha"),
        beta_db=_num(_get(raw, "beta_db", ""), "beta_db"),
        snr_db=_num(_get(raw, "snr_db", ""), "snr_db"),
        method=method,
        inversion=_parse_inversion(raw),
        quadrature_rel_tol=rel_tol,
        mc_trials=_int(mc.get("trials", 1000000), "mc.trials", minimum=1),
        mc_seed=_int(mc.get("seed", 0), "mc.seed", minimum=0,
                     maximum=_SEED_MAX),
        density=None if density is None else _num(density, "density"),
    )


def load_scenario_config(path):
    return parse_scenario_config(load_scenario(path))


# ----- scenario assembly -----

def _region_recipe(cfg):
    """(constructor, arguments) that build cfg's region. The arguments,
    flattened, are the region's part of the scenario fingerprint."""
    t, p = cfg.region_type, cfg.region_params
    if t == "disk":
        return disk_region, (p["center"], p["radius"])
    if t == "regular_polygon":
        L, R = p["num_sides"], p["circumradius"]
        if R is None:
            R = math.sqrt(2.0 * p["area"] / (L * math.sin(2.0 * math.pi / L)))
        return make_regular_polygon, (L, R, p["center"])
    if t == "polygon":
        return polygon_region, (p["vertices"],)
    return make_fig2_region, (p["width"],)


def build_region(cfg):
    make, args = _region_recipe(cfg)
    return make(*args)


def _polygon_centroid(v):
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cr = x * yn - xn * y
    area6 = 3.0 * cr.sum()
    return (float(((x + xn) * cr).sum() / area6),
            float(((y + yn) * cr).sum() / area6))


def resolve_receiver(cfg, region):
    """Resolve the receiver placement mode to explicit coordinates."""
    mode, p = cfg.receiver_mode, cfg.receiver_params
    if mode == "coords":
        return p["coords"]
    if mode == "disk_offset_d":
        if region.kind != "disk":
            raise ScenarioParseError(
                "receiver mode 'disk_offset_d' needs a disk region")
        return (region.center[0] + p["d"], region.center[1])
    if mode == "center":
        if region.kind == "disk":
            return (float(region.center[0]), float(region.center[1]))
        if cfg.region_type == "regular_polygon":
            return cfg.region_params["center"]
        return _polygon_centroid(region.vertices)
    if region.kind != "polygon":
        raise ScenarioParseError(f"receiver mode '{mode}' needs a polygonal region")
    v = region.vertices
    i = p["index"]
    if not i < len(v):
        raise ScenarioParseError(
            f"receiver index {i} out of range for {len(v)} vertices")
    if mode == "vertex_index":
        return (float(v[i, 0]), float(v[i, 1]))
    j = (i + 1) % len(v)
    return (float(0.5 * (v[i, 0] + v[j, 0])), float(0.5 * (v[i, 1] + v[j, 1])))


def build_scenario(cfg):
    region = build_region(cfg)
    return Scenario(region=region, receiver=resolve_receiver(cfg, region),
                    r0=cfg.r0, num_interferers=cfg.num_interferers,
                    channel=NakagamiChannel(m0=cfg.m0, m=cfg.m),
                    alpha=cfg.alpha, beta=cfg.beta, rho0=cfg.rho0)


def scenario_fingerprint(cfg, sc):
    """Short stable digest of the resolved scenario sc built from cfg
    (geometry and link parameters; evaluation settings excluded)."""
    xy = sc.receiver
    _, args = _region_recipe(cfg)
    payload = {
        "region": [cfg.region_type] + [float(v) for a in args
                                       for v in np.ravel(a)],
        "receiver": [float(xy[0]), float(xy[1])],
        "r0": cfg.r0, "M": cfg.num_interferers, "m0": cfg.m0, "m": cfg.m,
        "alpha": cfg.alpha, "beta_db": cfg.beta_db, "snr_db": cfg.snr_db,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# ----- method dispatch and evaluation -----

def resolve_method(cfg, override=None):
    """Pick the concrete engine; 'auto' sends integer reference shapes to the
    power-series framework and everything else to transform inversion."""
    name = cfg.method if override is None else override
    if name not in METHODS:
        raise ScenarioParseError(
            f"method must be one of {', '.join(METHODS)}, got {name!r}")
    if name != "auto":
        return name
    if integer_shape(cfg.m0) is not None:
        return "rlpg"
    return "mgf"


def evaluate_scenario(cfg, sc, method):
    """Evaluate the scenario sc built from cfg with one engine. Returns
    (outage, std_error); std_error is None for the non-statistical engines."""
    if method == "rlpg":
        return outage_rlpg(sc).outage, None
    if method == "mgf":
        return outage_mgf(sc, params=cfg.inversion,
                          rel_tol=cfg.quadrature_rel_tol).outage, None
    if method == "mc":
        est = simulate_outage(sc, cfg.mc_trials, cfg.mc_seed)
        return est.outage_mean, est.std_error
    if method == "ppp":
        if sc.channel.m0 != 1.0 or sc.channel.m != 1.0:
            raise UnsupportedModelError(
                "the infinite-network baseline covers Rayleigh links only "
                "(m0 = m = 1)")
        density = cfg.density
        if density is None:
            density = sc.num_interferers / sc.region.area
        return outage_ppp_rayleigh(density, sc.r0, sc.alpha,
                                   sc.beta, sc.rho0).outage, None
    raise ScenarioParseError(f"method {method!r} cannot be evaluated directly")


# ----- sweeps -----

def apply_sweep_value(cfg, variable, value):
    """Return a copy of cfg with one sweep variable replaced."""
    if variable == "d":
        if cfg.region_type != "disk":
            raise ScenarioParseError("sweep variable 'd' applies to disk regions only")
        return replace(cfg, receiver_mode="disk_offset_d",
                       receiver_params={"d": float(value)})
    if variable == "snr_db":
        return replace(cfg, snr_db=float(value))
    if variable == "beta_db":
        return replace(cfg, beta_db=float(value))
    if variable == "alpha":
        return replace(cfg, alpha=float(value))
    if variable == "M":
        return replace(cfg, num_interferers=int(value))
    if variable == "L":
        if cfg.region_type != "regular_polygon":
            raise ScenarioParseError(
                "sweep variable 'L' applies to regular_polygon regions only")
        params = dict(cfg.region_params)
        params["num_sides"] = int(value)
        return replace(cfg, region_params=params)
    raise ScenarioParseError(
        f"sweep variable must be one of {', '.join(SWEEP_VARIABLES)}, "
        f"got {variable!r}")


def parse_grid(text, variable):
    """Grid syntax: comma list 'a,b,c' or inclusive 'start:stop:count'.
    Empty text means an empty grid."""
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ScenarioParseError(
                f"grid must be 'a,b,c' or 'start:stop:count', got {text!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ScenarioParseError(f"malformed grid {text!r}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ScenarioParseError(f"grid bounds must be finite, got {text!r}")
        if not 1 <= count <= _GRID_CAP:
            raise ScenarioParseError(
                f"grid count must be in [1, {_GRID_CAP}], got {count}")
        values = [start] if count == 1 else \
            [float(v) for v in np.linspace(start, stop, count)]
    else:
        try:
            values = [float(tok) for tok in text.split(",")]
        except ValueError:
            raise ScenarioParseError(f"malformed grid {text!r}")
    if variable in ("M", "L"):
        for v in values:
            if not (v.is_integer() and abs(v) <= MAX_WHOLE):
                raise ScenarioParseError(
                    f"sweep variable '{variable}' needs integer values of "
                    f"at most {MAX_WHOLE} in size, got {v}")
        return [int(v) for v in values]
    return values


def sweep_rows(cfg, variable, values, methods):
    """Evaluate every grid point with every engine, one point after another
    on the calling thread; the engines' own pools (the mgf transform nodes,
    the Monte Carlo chunks) are the only parallel work, so a sweep computes
    on no more threads than there are CPUs. The Monte Carlo points are
    validated in turn and then estimated together, with the chunks of all
    of them on one pool, so points of fewer chunks than CPUs leave no CPU
    idle. Rows come back in grid order."""
    rows = []
    mc_runs = []
    for value in values:
        point = apply_sweep_value(cfg, variable, value)
        sc = build_scenario(point)
        row = [scenario_fingerprint(point, sc), value]
        for meth in methods:
            if meth == "mc":
                mc_runs.append((row, len(row), _outage_trials(
                    sc, point.mc_trials, point.mc_seed)))
                row.append(None)
            else:
                row.append(evaluate_scenario(point, sc, meth)[0])
        rows.append(row)
    estimates = _estimate_outages([run for _, _, run in mc_runs])
    for (row, col, _), est in zip(mc_runs, estimates):
        row[col] = est.outage_mean
        row.append(est.std_error)
    return rows


# ----- interferer-count search -----

def _nearest_crossing(under, eps_under, eps_over, target):
    # The outage curve crosses the target between `under` and `under + 1`;
    # report the count whose outage lands closer to the target (the crossing
    # rounded to the nearest integer). Ties keep the count that still meets
    # the constraint.
    if target - eps_under <= eps_over - target:
        return under, eps_under
    return under + 1, eps_over


def max_supported_interferers(cfg, sc, target, method):
    """Interferer count at which the (nondecreasing) outage curve of the
    scenario sc built from cfg crosses the target, rounded to the nearest
    count. Returns (m_star, outage_at_m_star, feasible); an infeasible target
    (outage above it already with zero interferers) reports
    (0, outage0, False)."""
    if not 0.0 < target < 1.0:
        raise ScenarioParseError(f"outage target must be in (0, 1), got {target}")
    if method == "rlpg":
        hi = 64
        eps = outage_rlpg_for_counts(sc, range(hi + 1))
        while eps[0] <= target and eps[-1] <= target:
            if hi >= _MAXM_CAP:
                raise NumericFailure(
                    f"count search exceeded {_MAXM_CAP} interferers")
            hi = min(2 * hi, _MAXM_CAP)
            eps = outage_rlpg_for_counts(sc, range(hi + 1))
    elif method == "mgf":
        eps = []
        while not eps or eps[-1] <= target:
            if len(eps) > _MAXM_CAP:
                raise NumericFailure(
                    f"count search exceeded {_MAXM_CAP} interferers")
            eps.append(evaluate_scenario(
                cfg, replace(sc, num_interferers=len(eps)), "mgf")[0])
    else:
        raise ScenarioParseError(
            "the interferer-count search needs an analytic method (rlpg or mgf)")
    if eps[0] > target:
        return 0, eps[0], False
    over = next(i for i, e in enumerate(eps) if e > target)
    m_star, eps_star = _nearest_crossing(over - 1, eps[over - 1], eps[over],
                                         target)
    return m_star, eps_star, True


# ----- CSV output -----

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def emit_csv(rows, path, header):
    """Write rows under a header; UTF-8, LF line ends, 12 significant digits
    so identical inputs give identical bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ----- subcommands -----

def _load_cfg(args):
    cfg = load_scenario_config(args.scenario)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, mc_seed=args.seed)
    return cfg


def cmd_run(args):
    cfg = _load_cfg(args)
    method = resolve_method(cfg, args.method)
    sc = build_scenario(cfg)
    outage, std = evaluate_scenario(cfg, sc, method)
    xy = sc.receiver
    row = [scenario_fingerprint(cfg, sc), method, cfg.region_type,
           xy[0], xy[1], cfg.r0, cfg.num_interferers, cfg.m0, cfg.m, cfg.alpha,
           cfg.beta_db, cfg.snr_db, outage, std]
    emit_csv([row], args.out, RUN_HEADER)
    extra = f" std_error={_fmt(std)}" if std is not None else ""
    print(f"outage={_fmt(outage)} method={method}{extra}")
    return 0


def cmd_sweep(args):
    cfg = _load_cfg(args)
    requested = (cfg.method if args.method is None else args.method).split(",")
    methods = []
    for name in requested:
        meth = resolve_method(cfg, name.strip())
        if meth not in methods:
            methods.append(meth)
    values = parse_grid(args.values, args.variable)
    header = ["scenario", args.variable] + [f"outage_{m}" for m in methods]
    if "mc" in methods:
        header.append("std_error")
    rows = sweep_rows(cfg, args.variable, values, methods)
    emit_csv(rows, args.out, header)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_maxm(args):
    cfg = _load_cfg(args)
    method = resolve_method(cfg, args.method)
    sc = build_scenario(cfg)
    m_star, outage, feasible = max_supported_interferers(cfg, sc, args.target,
                                                         method)
    row = [scenario_fingerprint(cfg, sc), method, args.target, m_star, outage,
           feasible]
    emit_csv([row], args.out, MAXM_HEADER)
    print(f"max_interferers={m_star} outage_at_max={_fmt(outage)} "
          f"feasible={_fmt(feasible)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finitenet",
        description="Outage probability of a reference link in a finite "
                    "wireless network (uniform interferers, Nakagami fading).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, methods_help):
        p.add_argument("--scenario", required=True,
                       help="path to a JSON scenario file")
        p.add_argument("--out", required=True, help="path of the output CSV")
        p.add_argument("--method", default=None, help=methods_help)
        p.add_argument("--seed", type=int, default=None,
                       help="override the Monte Carlo seed")

    p_run = sub.add_parser("run", help="evaluate one scenario")
    add_common(p_run, "engine override: auto, mgf, rlpg, mc or ppp")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="evaluate a scenario over a grid")
    add_common(p_sweep, "comma-separated engines, e.g. 'rlpg,mc'")
    p_sweep.add_argument("--variable", required=True, choices=SWEEP_VARIABLES,
                         help="scenario field to vary")
    p_sweep.add_argument("--values", required=True,
                         help="grid: 'a,b,c' or 'start:stop:count'")
    p_sweep.set_defaults(func=cmd_sweep)

    p_maxm = sub.add_parser(
        "maxm",
        help="interferer count nearest the crossing of an outage target")
    add_common(p_maxm, "engine override: auto, mgf or rlpg")
    p_maxm.add_argument("--target", required=True, type=float,
                        help="outage probability target in (0, 1)")
    p_maxm.set_defaults(func=cmd_maxm)
    return parser


@functools.cache
def _parser():
    """The parser of main, built on its first call and kept."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ScenarioParseError, InvalidParameterError,
            ModelInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
