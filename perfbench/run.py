"""End-to-end benchmark of the finitenet CLI and engines.

Run from the repository root:

    python3 perfbench/run.py --workload rlpg-grid --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: it issues `finitenet run |
sweep | maxm` in-process through `finitenet.cli.main(argv)` (plus one library
`simulate_outage(workers=2)` call on `mc`), one operation at a time, pass
after pass until `--seconds` have gone by. Inputs come from `--seed` only
(see workloads.py). Every CLI output goes to a fresh file in a per-run
directory under `.perfbench/`, is checked against an independent reference
outside the timed region, and, for the default seed, pass 0 must reproduce
the golden CSV bytes in `perfbench/golden/`.

With `--trace 0` the last line carries the end-to-end metrics; `--trace 1`
runs pass 0 untraced and then traced (tracing.py) and reports per-layer
metrics. The line before it holds the environment and the per-workload
detail (maxm, sweep and Monte Carlo rates, engine gap, named baseline
results); `--workload all` prints both lines for each workload in turn.
`--smoke` runs every workload at tiny size in both modes and
checks that each metric is reported with its unit and nothing failed.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0
SETUP_STARTS = 7

END_TO_END = (
    ("setup_s", "s"),          # fresh interpreter: import finitenet.cli + parser
    ("wall_s", "s"),           # median wall time of one pass (timed ops only)
    ("points_per_s", "1/s"),   # outage values produced per second of op time
    ("run_p50_s", "s"),        # median latency of one `finitenet run`
    ("peak_rss_mb", "MB"),     # peak resident memory of the workload process
)


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    src = ROOT / "src"
    if not (src / "finitenet" / "cli.py").is_file():
        _fail(f"no finitenet sources under {src}")
    sys.path.insert(0, str(src))
    import finitenet
    if Path(finitenet.__file__).resolve().parent != (src / "finitenet").resolve():
        _fail(f"imported finitenet from {finitenet.__file__}, not {src}")


# ----- environment -----

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path):
    """Type of the filesystem holding `path` (longest matching mount)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                inside = str(path) == mount or \
                    str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment(workdir):
    import mpmath
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": numpy.show_config(mode="dicts").get("Build Dependencies", {})
        .get("blas", {}).get("openblas configuration", "unknown"),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "output_fs": _fs_type(workdir),
        "loadavg_before": os.getloadavg(),
    }


def measure_setup():
    """Median wall time of a fresh interpreter importing finitenet.cli and
    building its parser: the cold start every `finitenet` call pays. The
    first start (which may compile bytecode) is discarded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import finitenet.cli as c; c.build_parser()"
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times), times


# ----- execution -----

class Runner:
    """Executes operations one at a time, writing each CLI output to a fresh
    path, and records latencies, checks and failures."""

    def __init__(self, workdir, tracer=None):
        from finitenet import cli
        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer
        self.seq = 0
        self.records = []    # (pass, op, seconds, error)

    def _fresh(self, suffix):
        self.seq += 1
        return self.workdir / f"{self.seq:07d}{suffix}"

    def _invoke(self, op):
        if op.call is not None:
            t0 = time.perf_counter()
            result = op.call()
            return time.perf_counter() - t0, result
        scenario = self._fresh(".json")
        scenario.write_text(json.dumps(op.scenario), encoding="utf-8")
        out = self._fresh(".csv")
        argv = list(op.argv[:1]) + ["--scenario", str(scenario), "--out",
                                    str(out)] + list(op.argv[1:])
        sink, errs = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errs):
            t0 = time.perf_counter()
            rc = self.cli.main(argv)
            seconds = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"exit {rc}: {errs.getvalue().strip()}")
        text = out.read_bytes().decode("utf-8")
        scenario.unlink()
        out.unlink()
        return seconds, text

    def execute(self, k, op, expected=None):
        """Run one operation and check it, against `expected` when given
        (so a traced pass runs no reference computation under the tracer);
        returns its output or None."""
        output, seconds, error = None, None, None
        try:
            if self.tracer is None:
                seconds, output = self._invoke(op)
            else:
                with self.tracer.op(op.kind):
                    seconds, output = self._invoke(op)
            if expected is None:
                error = op.check(op, output)
            elif output != expected:
                error = "output differs from the untraced pass"
        except Exception as exc:     # a failed operation is a result, not a crash
            error = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, RuntimeError):
                error += "\n" + traceback.format_exc(limit=3)
        self.records.append((k, op, seconds, error))
        return output

    def run_pass(self, k, ops, expected=None):
        t0 = time.perf_counter()
        if expected is None:
            expected = [None] * len(ops)
        outputs = [self.execute(k, op, e) for op, e in zip(ops, expected)]
        return time.perf_counter() - t0, outputs


def warm_up(runner):
    """One cheap call per engine, so lazy imports and first-call set-up land
    outside the timed operations (their cost at start-up is in setup_s)."""
    import mpmath  # noqa: F401  imported lazily by the 2F1 fallback
    from workloads import Op, disk, scen
    s = scen(disk(), {"mode": "disk_offset_d", "d": 50.0}, M=0,
             mc={"trials": 1000, "seed": 0})
    for method in ("rlpg", "mgf", "mc"):
        runner.execute(-1, Op(label="warm-up", kind="run", points=1,
                              check=lambda op, out: None, scenario=s,
                              argv=("run", "--method", method)))
    runner.records.clear()


# ----- golden CSV bytes -----

def golden_check(workload, ops, outputs, runner, write):
    """Compare the pass-0 CSV bytes with the recorded golden file and mark
    each operation whose bytes differ as failed (or record the file)."""
    path = GOLDEN_DIR / f"{workload}.csv"
    cli_ops = [i for i, op in enumerate(ops) if op.call is None]
    got = [f"# {ops[i].kind} {ops[i].label}\n{outputs[i]}"
           for i in cli_ops]
    if write:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_bytes("".join(got).encode("utf-8"))
        return
    want = []
    if path.is_file():
        want = ["# " + part for part in
                path.read_bytes().decode("utf-8").split("# ")[1:]]
    for j, i in enumerate(cli_ops):
        k, op, seconds, error = runner.records[i]
        if error is None and (len(want) != len(got) or got[j] != want[j]):
            runner.records[i] = (k, op, seconds,
                                 f"CSV bytes differ from {path.name}")


# ----- metrics -----

def _median(xs):
    return statistics.median(xs) if xs else None


def detail_metrics(records, pass_walls):
    """Every end-to-end figure the records support, by name, with units."""
    ok = [(k, op, s) for k, op, s, err in records if err is None]
    runs = sorted(s for _, op, s in ok if op.kind == "run")
    op_time = sum(s for _, _, s in ok)
    points = sum(op.points for _, op, _ in ok)
    gaps = [g for _, op, _, _ in records for g in op.gaps]
    d = {
        "wall_s": (_median(pass_walls), "s"),
        "passes": (len(pass_walls), "count"),
        "points_per_s": (points / op_time if op_time else None, "1/s"),
        "run_p50_s": (_median(runs), "s"),
        "runs": (len(runs), "count"),
        "failed_frac": (sum(err is not None for *_, err in records)
                        / max(1, len(records)), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    if len(runs) >= 100:
        d["run_p90_s"] = (statistics.quantiles(runs, n=10)[-1], "s")
    sweeps = [s / op.points for _, op, s in ok if op.kind == "sweep"]
    if sweeps:
        d["sweep_point_s"] = (_median(sweeps), "s")
    maxms = [s for _, op, s in ok if op.kind == "maxm"]
    if maxms:
        d["maxm_s"] = (_median(maxms), "s")
    for workers in (1, 2):
        mc = [(op.trials, s) for _, op, s in ok if op.mc_workers == workers]
        if mc:
            d[f"mc_trials_per_s_w{workers}"] = (
                sum(t for t, _ in mc) / sum(s for _, s in mc), "1/s")
    if gaps:
        d["engine_gap_max"] = (max(gaps), "1")
    baselines = {}
    for _, op, s in ok:
        if op.baseline:
            baselines.setdefault(op.baseline, []).append(s)
    for name, xs in sorted(baselines.items()):
        d["baseline." + name] = (_median(xs), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in d.items()}


def _op_seconds(records):
    return sum(s for _, _, s, err in records if err is None)


def _errors(records):
    return [f"pass {k} {op.kind} {op.label}: {err}"
            for k, op, _, err in records if err is not None]


# ----- workloads -----

def run_workload(workload, seed, seconds, trace, smoke=False,
                 write_golden=False):
    """Returns (result line dict, detail dict)."""
    import workloads
    base = ROOT / ".perfbench"
    workdir = base / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(workdir)
        setup = None if trace else measure_setup()
        runner = Runner(workdir)
        warm_up(runner)
        pass0 = workloads.make_pass(workload, seed, 0, smoke)
        wall, outputs = runner.run_pass(0, pass0)
        if seed == DEFAULT_SEED and not smoke:
            golden_check(workload, pass0, outputs, runner, write_golden)
        if trace:
            import tracing
            tracer = tracing.Tracer()
            traced = Runner(workdir, tracer)
            ops = workloads.make_pass(workload, seed, 0, smoke)
            tracing.install(tracer)
            try:
                traced.run_pass(0, ops, outputs)
            finally:
                tracer.restore()
            spans = base / f"spans-{workload}-seed{seed}.jsonl"
            tracer.write(spans)
            layer = tracing.layer_metrics(tracer, _op_seconds(traced.records),
                                          _op_seconds(runner.records))
            records = runner.records + traced.records
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in tracing.PER_LAYER}
            detail = {"spans_file": str(spans.relative_to(ROOT))}
        else:
            pass_walls = [_op_seconds(runner.records)]
            start = time.perf_counter()
            k = 1
            while not smoke and time.perf_counter() - start + wall < seconds:
                n = len(runner.records)
                runner.run_pass(k, workloads.make_pass(workload, seed, k))
                pass_walls.append(_op_seconds(runner.records[n:]))
                k += 1
            records = runner.records
            detail = detail_metrics(records, pass_walls)
            detail["setup_s"] = {"value": setup[0], "unit": "s"}
            detail["setup_samples"] = {"value": len(setup[1]), "unit": "count"}
            metrics = {name: detail[name] for name, _ in END_TO_END}
        env["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(err is not None for *_, err in records)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    info = {"workload": workload, "seed": seed, "trace": trace,
            "environment": env, "detail": detail, "errors": _errors(records)}
    return result, info


def smoke(seed):
    """Tiny run of every workload in both modes; checks every metric name is
    reported with a unit and that nothing failed."""
    import tracing
    import workloads
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, names in ((0, END_TO_END), (1, tracing.PER_LAYER)):
            result, info = run_workload(workload, seed, 0, trace, smoke=True)
            metrics = result["metrics"]
            for name, unit in names:
                m = metrics.get(name)
                if m is None or m.get("unit") != unit or \
                        not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: {name} missing")
            if result["failed"] or info["errors"]:
                problems.append(f"{workload} trace={trace}: {info['errors']}")
            print(json.dumps({"workload": workload, "trace": trace,
                              "result": result}))
    print(json.dumps({"smoke": not problems, "problems": problems}))
    return 0 if not problems else 1


def main(argv=None):
    _import_package()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, both modes")
    parser.add_argument("--write-golden", action="store_true",
                        help="record pass-0 CSV bytes of the default seed")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.write_golden and args.seed != DEFAULT_SEED:
        parser.error(f"golden files are recorded for seed {DEFAULT_SEED}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result, info = run_workload(name, args.seed, args.seconds, args.trace,
                                    write_golden=args.write_golden)
        print(json.dumps({"perfbench": info}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
