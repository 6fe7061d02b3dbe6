"""What ``import cpjoint`` exports, and what a fresh process loads.

The public names are pinned, so adding or dropping a re-export is a
deliberate change to this list and to the README's API section, which
states the rule a name is kept by.

scipy and the process pool take most of the start-up time of a short
command, so they are imported only by the calls that use them.  The check
runs in a child process, because this one has long since loaded both.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cpjoint

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_API = [
    "AlphaRangeError", "BadParamError", "BaselineOutcome", "Calibration",
    "CovScenario", "CovStatResult", "CpjointError", "Dataset",
    "DegenerateScaleError", "ErrorDist", "ExperimentReport",
    "LocalizationOutcome", "MeanStatResult", "Method", "MethodResult",
    "NonFiniteValueError", "NotAMatrixError", "PValueRangeError",
    "SampleTooSmallError", "SimulationModel", "StatCurve", "TestOutcome",
    "TooFewObservationsError", "baselines", "calibrate", "cov_stat_curve",
    "dataset_from_matrix", "detect", "fisher_combine_log", "gen_dataset",
    "gram", "localize", "mean_stat_curve", "normal_log_sf", "run_experiment",
    "trace_sigma2_hat",
]


def test_public_api():
    assert sorted(cpjoint.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(cpjoint, name) is not None, name


# Oracles and aliases that only tests used; the oracles live in tests/naive.py.
TEST_ONLY = ["TauRangeError", "fisher_combine", "chi2_4_quantile", "normal_sf", "GramMatrix"]

# Names that no demo, README example or CLI path calls and no public
# function returns or raises.  EmptyGridError is gone; the others stay in
# their modules (cpjoint.scale, .tails, .simulate and .errors).
UNEXPORTED = [
    "COV_VAR_COEFF", "MEAN_VAR_COEFF", "trace_sigma3_hat", "chi2_4_sf",
    "skewed_log_sf", "mix_seed", "build_cov", "cov_sqrt", "CovSpec",
    "NegativeInputError", "NotSymmetricError", "NotPSDError", "EmptyGridError",
]


@pytest.mark.parametrize("name", TEST_ONLY + UNEXPORTED)
def test_test_only_names_are_not_exported(name):
    with pytest.raises(ImportError):
        exec(f"from cpjoint import {name}", {})


def test_readme_api_section_names_exactly_the_exports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    # The list's bullets and their indented continuation lines; the prose
    # around it names module-only names too.
    bullets = "\n".join(re.findall(r"^(?:- |  ).*$", section, flags=re.M))
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(cpjoint.__all__)


# data.py alone decides when an input array is copied.  pipeline compares
# a caller's converted matrix with the stored one before the finiteness scan.
PRIVATE_DATA_IMPORTS = {("pipeline", "_float_matrix")}


def test_only_data_reaches_its_private_names():
    found = set()
    for path in sorted((ROOT / "src" / "cpjoint").glob("*.py")):
        if path.stem == "data":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "data") or node.module == "cpjoint.data"
            ):
                found |= {(path.stem, a.name) for a in node.names if a.name.startswith("_")}
    assert found == PRIVATE_DATA_IMPORTS


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
