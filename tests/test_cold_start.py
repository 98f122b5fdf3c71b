"""What a fresh interpreter loads: scipy.special only where a closed form
needs it. The check runs in a child process, since the test session has
scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
import finitenet.cli as cli

cli.build_parser()
seen = {"start": ["scipy.special" in sys.modules, "mpmath" in sys.modules]}
for method in ("mgf", "mc", "ppp", "rlpg"):
    code = cli.main(["run", "--scenario", sys.argv[1], "--method", method,
                     "--out", sys.argv[2] + method + ".csv"])
    seen[method] = [code, "scipy.special" in sys.modules]
print(json.dumps(seen))
"""


def test_scipy_special_loads_at_the_first_series_closed_form(tmp_path):
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
    # the CLI, the transform, Monte Carlo and Poisson engines never need
    # it; the series engine's constant piece on the disk does (its 1/z
    # hypergeometric branch)
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "start": [False, False], "mgf": [0, False], "mc": [0, False],
        "ppp": [0, False], "rlpg": [0, True]}
