"""Smoke tests: the demo scripts run to completion against the source tree.

``demos/03_size_and_power.py`` is left out: it is a Monte Carlo of several
seconds, and the size/power experiments it prints are covered by the
acceptance tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_detect_a_change.py",
    "02_localize_the_change.py",
    "04_log_space_tails.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
