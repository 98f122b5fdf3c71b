"""Outside-in layer tracing for the benchmark.

The tracer replaces public functions of finitenet at their call sites (the
module attribute a caller looks up at run time) with wrappers that record
spans and counts, and puts every original back on exit. Nothing in the
package changes; the traced run is separate from the timed run, and the
difference between the two is reported as the tracing overhead.

Spans are kept in memory as tuples and written out once, at the end. Each
thread keeps its own parent stack, since `sweep` evaluates its grid on a
4-thread pool and `simulate_outage(workers=2)` runs chunks on worker
threads; work on a pool thread is parented to the operation in flight,
which is global because the benchmark runs one operation at a time.
"""

import functools
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Per-layer metrics, each with the end-to-end metric (and workload) it
# should move. Counts are for one pass of the workload's inputs; times are
# self times: a span's duration minus the part its wrapped children cover.
PER_LAYER = (
    # run_p50_s on mgf-distinct; wall_s on mgf-shared; barely rlpg-grid
    ("quadrature.outer.calls", "count"),
    ("quadrature.outer.evals", "count"),
    ("quadrature.outer.self_s", "s"),
    ("quadrature.radial.calls", "count"),
    ("quadrature.radial.evals", "count"),
    ("quadrature.radial.self_s", "s"),
    # wall_s on mgf-shared (maxm); no change expected on mgf-distinct
    ("mgf.outage_mgf.calls", "count"),
    ("mgf.transform_nodes", "count"),
    ("mgf.outage_mgf.calls_per_maxm", "count"),
    ("mgf.euler_s", "s"),
    # run_p50_s on mgf-distinct (polygon pdf); not mgf-shared (disk pdf)
    ("geometry.pdf.calls", "count"),
    ("geometry.pdf.radii", "count"),
    ("geometry.pdf.self_s", "s"),
    # run_p50_s and points_per_s on rlpg-grid
    ("geometry.distance_profile.calls", "count"),
    ("geometry.distance_profile.self_s", "s"),
    ("geometry.region_contains.calls", "count"),
    ("specfun.gauss_2f1.series", "count"),
    ("specfun.gauss_2f1.pfaff", "count"),
    ("specfun.gauss_2f1.inverse_z", "count"),
    ("specfun.gauss_2f1.mpmath", "count"),
    ("specfun.gauss_2f1.self_s", "s"),
    ("specfun.partitions.calls", "count"),
    ("specfun.partitions.self_s", "s"),
    ("rlpg.omega_table.self_s", "s"),
    ("rlpg.assembly_s", "s"),
    ("rlpg.clamp_warnings", "count"),
    # run_p50_s on rlpg-grid; invisible on the mgf workloads
    ("cli.parse_s", "s"),
    ("cli.build_region.calls_per_run", "count"),
    ("cli.fingerprint_s", "s"),
    ("cli.emit_csv_s", "s"),
    ("cli.self_s", "s"),
    # mc_trials_per_s_w1 / _w2 on mc
    ("montecarlo.chunks", "count"),
    ("montecarlo.chunk_s", "s"),
    ("montecarlo.sample_uniform_s", "s"),
    # cost of the tracing itself
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class Tracer:
    """In-memory spans and counts around finitenet's layer boundaries."""

    def __init__(self):
        self.spans = []       # (span_id, parent_id, op_id, name, t0, t1)
        self.events = []      # (op_id, name, amount)
        self.op_kinds = {}    # op_id -> operation kind
        self.sequential_mc = set()   # span ids of simulate_outage on one worker
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_id = 0
        self._op_span = 0
        self._patches = []

    # ----- recording -----

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1][0] if stack else self._op_span
        sid = next(self._ids)
        stack.append((sid, name))
        t0 = perf_counter()
        try:
            yield sid
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self._op_id, name, t0, t1))

    @contextmanager
    def op(self, kind):
        """One benchmark operation; spans on any thread attach to it."""
        self._op_id += 1
        self.op_kinds[self._op_id] = kind
        with self.span("op." + kind) as sid:
            self._op_span = sid
            try:
                yield
            finally:
                self._op_span = 0

    def count(self, name, amount=1):
        # list.append is atomic, so pool threads need no lock here
        self.events.append((self._op_id, name, amount))

    def quad_depth(self):
        return sum(1 for _, name in self._stack()
                   if name.startswith("quadrature."))

    # ----- patching -----

    def wrap(self, module, attr, make):
        orig = getattr(module, attr)
        setattr(module, attr, functools.wraps(orig)(make(orig)))
        self._patches.append((module, attr, orig))

    def restore(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def timed(self, name):
        def make(orig):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return orig(*args, **kwargs)
            return wrapper
        return make

    def counted(self, name):
        def make(orig):
            def wrapper(*args, **kwargs):
                self.count(name)
                return orig(*args, **kwargs)
            return wrapper
        return make

    # ----- output -----

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op_id, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op_id,
                                     "name": name, "t0": t0, "t1": t1}))
                fh.write("\n")


def _quadrature_wrapper(tracer, split_outer):
    """Wrap adaptive_rows_quad; the integrand is wrapped to count
    abscissae x rows. At the mgf call site, depth 0 is the outer gain
    integral and depth 1 the radial kernel; rlpg only has radial ones."""
    def make(orig):
        def wrapper(f, a, b, **kwargs):
            outer = split_outer and tracer.quad_depth() == 0
            name = "quadrature.outer" if outer else "quadrature.radial"

            def counted_f(x):
                y = f(x)
                tracer.count(name + ".evals", int(np.size(y)))
                return y

            with tracer.span(name):
                return orig(counted_f, a, b, **kwargs)
        return wrapper
    return make


def _gauss_2f1_branch(specfun, a, b, z):
    """Branch region gauss_2f1 picks for these arguments (mirrors its
    dispatch); 'degenerate' regions end in the mpmath fallback."""
    z = complex(z)
    if z == 0 or abs(z) <= 0.5:
        return "series"
    if abs(z / (z - 1.0)) <= specfun._PFAFF_RATIO_MAX:
        return "pfaff"
    gap = abs(b - a - round(b - a))
    if abs(z) >= specfun._INVERSE_Z_MIN and gap >= specfun._DEGENERATE_GAP:
        return "inverse_z"
    return "degenerate"


def install(tracer):
    """Wrap every layer boundary; call tracer.restore() to undo."""
    import mpmath

    from finitenet import cli, geometry, mgf, montecarlo, rlpg, scenario, specfun

    t = tracer
    t.wrap(cli, "build_parser", t.timed("cli.parse"))
    t.wrap(cli, "load_scenario_config", t.timed("cli.parse"))
    t.wrap(cli, "build_region", t.counted("cli.build_region"))
    t.wrap(cli, "scenario_fingerprint", t.timed("cli.fingerprint"))
    t.wrap(cli, "emit_csv", t.timed("cli.emit_csv"))
    t.wrap(cli, "outage_rlpg", t.timed("rlpg.outage"))
    t.wrap(cli, "outage_rlpg_for_counts", t.timed("rlpg.outage"))
    t.wrap(cli, "outage_mgf", t.timed("mgf.outage_mgf"))

    def simulate(orig):
        def wrapper(*args, **kwargs):
            with t.span("montecarlo.simulate_outage") as sid:
                if (kwargs.get("workers") or 1) <= 1:
                    t.sequential_mc.add(sid)
                return orig(*args, **kwargs)
        return wrapper
    t.wrap(cli, "simulate_outage", simulate)
    t.wrap(montecarlo, "simulate_outage", simulate)
    t.wrap(montecarlo, "_rng_for_chunk", t.counted("montecarlo.chunks"))
    t.wrap(montecarlo, "sample_uniform_in_region",
           t.timed("montecarlo.sample_uniform"))

    t.wrap(mgf, "adaptive_rows_quad", _quadrature_wrapper(t, True))
    t.wrap(rlpg, "adaptive_rows_quad", _quadrature_wrapper(t, False))
    t.wrap(mgf, "_euler_cdf_from_samples", t.timed("mgf.euler"))

    def pdf(orig):
        def wrapper(*args):
            t.count("geometry.pdf.radii", int(np.size(args[-1])))
            with t.span("geometry.pdf"):
                return orig(*args)
        return wrapper
    t.wrap(geometry, "inside_arc_measure", pdf)
    t.wrap(geometry, "pdf_disk_closed_form", pdf)
    t.wrap(scenario, "distance_profile", t.timed("geometry.distance_profile"))
    t.wrap(geometry, "region_contains", t.counted("geometry.region_contains"))
    t.wrap(scenario, "region_contains", t.counted("geometry.region_contains"))

    def gauss(orig):
        def wrapper(a, b, c, z):
            branch = _gauss_2f1_branch(specfun, a, b, z)
            if branch != "degenerate":
                t.count("specfun.gauss_2f1." + branch)
            with t.span("specfun.gauss_2f1"):
                return orig(a, b, c, z)
        return wrapper
    t.wrap(rlpg, "gauss_2f1", gauss)
    t.wrap(mpmath, "hyp2f1", t.counted("specfun.gauss_2f1.mpmath"))
    t.wrap(rlpg, "enumerate_weighted_partitions", t.timed("specfun.partitions"))
    t.wrap(rlpg, "omega_expectation_table", t.timed("rlpg.omega_table"))

    def clamp(orig):
        def wrapper(raw, context):
            out = orig(raw, context)
            if out != raw:
                t.count("rlpg.clamp_warnings")
            return out
        return wrapper
    t.wrap(rlpg, "_clamp_unit", clamp)


def _self_times(spans):
    """span_id -> duration minus the union of its children's intervals."""
    children = {}
    for sid, parent, _, _, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, _, t0, t1 in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(tracer, traced_wall_s, untraced_wall_s):
    """Aggregate spans and counts of one traced pass into PER_LAYER values."""
    self_s = _self_times(tracer.spans)
    time_by = {}
    calls_by = {}
    for sid, _, _, name, _, _ in tracer.spans:
        time_by[name] = time_by.get(name, 0.0) + self_s[sid]
        calls_by[name] = calls_by.get(name, 0) + 1
    count_by = {}
    per_op = {}
    for op_id, name, amount in tracer.events:
        count_by[name] = count_by.get(name, 0) + amount
        per_op[(op_id, name)] = per_op.get((op_id, name), 0) + amount

    kinds = tracer.op_kinds
    runs = [op for op, kind in kinds.items() if kind == "run"]
    maxms = [op for op, kind in kinds.items() if kind == "maxm"]
    mgf_by_op = {}
    for _, _, op_id, name, _, _ in tracer.spans:
        if name == "mgf.outage_mgf":
            mgf_by_op[op_id] = mgf_by_op.get(op_id, 0) + 1
    seq_time = sum(t1 - t0 for sid, _, _, _, t0, t1 in tracer.spans
                   if sid in tracer.sequential_mc)
    seq_ops = {op for sid, _, op, _, _, _ in tracer.spans
               if sid in tracer.sequential_mc}
    seq_chunks = sum(per_op.get((op, "montecarlo.chunks"), 0) for op in seq_ops)
    mgf_calls = calls_by.get("mgf.outage_mgf", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "quadrature.outer.calls": calls_by.get("quadrature.outer", 0),
        "quadrature.outer.evals": count_by.get("quadrature.outer.evals", 0),
        "quadrature.outer.self_s": time_by.get("quadrature.outer", 0.0),
        "quadrature.radial.calls": calls_by.get("quadrature.radial", 0),
        "quadrature.radial.evals": count_by.get("quadrature.radial.evals", 0),
        "quadrature.radial.self_s": time_by.get("quadrature.radial", 0.0),
        "mgf.outage_mgf.calls": mgf_calls,
        "mgf.transform_nodes": ratio(calls_by.get("quadrature.outer", 0),
                                     mgf_calls),
        "mgf.outage_mgf.calls_per_maxm": ratio(
            sum(mgf_by_op.get(op, 0) for op in maxms), len(maxms)),
        "mgf.euler_s": time_by.get("mgf.euler", 0.0),
        "geometry.pdf.calls": calls_by.get("geometry.pdf", 0),
        "geometry.pdf.radii": count_by.get("geometry.pdf.radii", 0),
        "geometry.pdf.self_s": time_by.get("geometry.pdf", 0.0),
        "geometry.distance_profile.calls":
            calls_by.get("geometry.distance_profile", 0),
        "geometry.distance_profile.self_s":
            time_by.get("geometry.distance_profile", 0.0),
        "geometry.region_contains.calls":
            count_by.get("geometry.region_contains", 0),
        "specfun.gauss_2f1.self_s": time_by.get("specfun.gauss_2f1", 0.0),
        "specfun.partitions.calls": calls_by.get("specfun.partitions", 0),
        "specfun.partitions.self_s": time_by.get("specfun.partitions", 0.0),
        "rlpg.omega_table.self_s": time_by.get("rlpg.omega_table", 0.0),
        "rlpg.assembly_s": time_by.get("rlpg.outage", 0.0),
        "rlpg.clamp_warnings": count_by.get("rlpg.clamp_warnings", 0),
        "cli.parse_s": time_by.get("cli.parse", 0.0),
        "cli.build_region.calls_per_run": ratio(
            sum(per_op.get((op, "cli.build_region"), 0) for op in runs),
            len(runs)),
        "cli.fingerprint_s": time_by.get("cli.fingerprint", 0.0),
        "cli.emit_csv_s": time_by.get("cli.emit_csv", 0.0),
        "cli.self_s": sum(time_by.get("op." + k, 0.0)
                          for k in ("run", "sweep", "maxm")),
        "montecarlo.chunks": count_by.get("montecarlo.chunks", 0),
        "montecarlo.chunk_s": ratio(seq_time, seq_chunks),
        "montecarlo.sample_uniform_s":
            time_by.get("montecarlo.sample_uniform", 0.0),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.spans": len(tracer.spans),
    }
    for branch in ("series", "pfaff", "inverse_z", "mpmath"):
        name = "specfun.gauss_2f1." + branch
        values[name] = count_by.get(name, 0)
    return values
