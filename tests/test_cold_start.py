"""What a fresh interpreter loads: no scipy module on any engine or command,
the series engine's 1/z hypergeometric branch included. The check runs in a
child process, since the test session has scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
import finitenet.cli as cli
import finitenet.specfun as specfun

inverse_z = specfun._inverse_z_2f1
calls = []

def counted(*args):
    calls.append(args)
    return inverse_z(*args)

specfun._inverse_z_2f1 = counted

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.")
               for name in sys.modules)

cli.build_parser()
seen = {"start": [scipy_loaded(), "mpmath" in sys.modules]}
steps = [(method, ["run", "--method", method])
         for method in ("mgf", "mc", "ppp", "rlpg")]
steps.append(("sweep-rlpg", ["sweep", "--method", "rlpg", "--variable", "d",
                             "--values", "0,50,99"]))
steps.append(("maxm-rlpg", ["maxm", "--method", "rlpg", "--target", "0.05"]))
for name, argv in steps:
    code = cli.main(argv + ["--scenario", sys.argv[1],
                            "--out", sys.argv[2] + name + ".csv"])
    seen[name] = [code, scipy_loaded()]
seen["inverse_z_calls"] = len(calls)
print(json.dumps(seen))
"""


def test_no_engine_or_command_loads_scipy(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "region": {"type": "disk", "params": {"radius": 100.0}},
        "receiver": {"mode": "disk_offset_d", "d": 50.0},
        "r0": 5.0, "M": 1, "m0": 1, "m": 1, "alpha": 4.0,
        "beta_db": 0.0, "snr_db": 20.0, "quadrature_rel_tol": 1e-6,
        "mc": {"trials": 4096, "seed": 0}}), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(scen), str(tmp_path / "out_")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # the series engine's constant piece on the disk runs the 1/z branch,
    # whose gamma factors are computed in the package
    assert seen.pop("inverse_z_calls") > 0
    assert seen == {
        "start": [False, False], "mgf": [0, False], "mc": [0, False],
        "ppp": [0, False], "rlpg": [0, False], "sweep-rlpg": [0, False],
        "maxm-rlpg": [0, False]}
