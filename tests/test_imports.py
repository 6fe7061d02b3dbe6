"""What a fresh process loads: the plug-in paths run without scipy or a process pool.

scipy and the process pool take most of the start-up time of a short
command, so they are imported only by the calls that use them.  The check
runs in a child process, because this one has long since loaded both.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import io
import sys
from contextlib import redirect_stdout

import numpy as np

import cpjoint
from cpjoint import cli

with redirect_stdout(io.StringIO()) as out:
    assert cli.main(["detect", sys.argv[1]]) == 0
assert '"command": "detect"' in out.getvalue()

x = np.random.default_rng(1).standard_normal((60, 5))
x[30:] += 1.0
cpjoint.detect(x)
cpjoint.localize(x)
cpjoint.baselines(x)
model = cpjoint.SimulationModel(
    n=40, p=5, tau_star=20, delta1=1.0, delta2=1.5,
    cov_scenario=cpjoint.CovScenario.AR1,
    error_dist=cpjoint.ErrorDist.NORMAL, seed=3,
)
assert cpjoint.run_experiment(model, 4).rep_count == 4
for name in ("scipy", "multiprocessing"):
    assert name not in sys.modules, f"the plug-in paths imported {name}"

cpjoint.detect(x, calibration="finite_sample")
assert "scipy.special" in sys.modules
"""


def test_plug_in_paths_load_neither_scipy_nor_the_process_pool(tmp_path):
    path = tmp_path / "data.csv"
    np.savetxt(path, np.random.default_rng(0).standard_normal((40, 6)), delimiter=",")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
