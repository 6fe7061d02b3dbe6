"""Dump the reports of cpjoint's public calls on fixed inputs, or compare two dumps.

    python tools/report_dump.py [--src DIR] OUT.json
    python tools/report_dump.py --compare A.json B.json

The dump imports the cpjoint package from DIR (default: src beside this
script's parent directory), so that one copy of this script can dump two
trees.  Every float is written as ``float.hex``, so a dump holds the exact
bits; integers and booleans stay JSON numbers and booleans.

The inputs are AR(1)-correlated Gaussian rows with a joint change at n/2
(a mean shift and a covariance scale): the three benchmark shapes 200x100,
2000x50 and 200x5000, the same arrays plus 50, and 60x8 and 16x16.  On
each the dump records ``detect`` under both calibrations, ``localize``
with its profile, ``baselines``, ``mean_stat_curve`` and
``cov_stat_curve``.  It also records ``run_experiment`` on an AR(1)
200x100 model with a joint change, 24 replications, at parallelism 1 and
2, and the JSON reports of ``cpjoint detect`` and ``cpjoint localize
--emit-profile`` on a CSV of the 200x100 array.  A run takes a few
seconds.

``--compare`` prints one line per report: ``bitwise``, or the largest
relative difference of its floats, an array's taken against the array's
largest magnitude.  It exits 1 if a report is missing, if any boolean,
integer or string differs (a decision, a split, a count), or if any float
differs by more than 1e-9 relative; otherwise 0.  Standard library, numpy
and cpjoint only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

RTOL = 1e-9
BENCHMARK_SHAPES = ((200, 100), (2000, 50), (200, 5000))
SMALL_SHAPES = ((60, 8), (16, 16))
OFFSET = 50.0
AR_CORR = 0.3
MEAN_SHIFT = 0.25
COV_FACTOR = 1.3
_FLOAT = re.compile(r"-?(0x[0-9a-f.]+p[+-]\d+|inf)|nan")


def joint_change(n: int, p: int, seed: int) -> np.ndarray:
    """AR(1) rows across the columns, shifted and scaled from row n // 2 on."""
    e = np.random.default_rng(seed).standard_normal((n, p))
    x = np.empty_like(e)
    x[:, 0] = e[:, 0]
    c = math.sqrt(1.0 - AR_CORR * AR_CORR)
    for j in range(1, p):
        x[:, j] = AR_CORR * x[:, j - 1] + c * e[:, j]
    x[n // 2 :] += MEAN_SHIFT
    x[n // 2 :] *= math.sqrt(COV_FACTOR)
    return x


def inputs() -> dict[str, np.ndarray]:
    """The dump's arrays by label."""
    out = {}
    for n, p in BENCHMARK_SHAPES:
        x = joint_change(n, p, seed=n + p)
        out[f"{n}x{p}"] = x
        out[f"{n}x{p}+{OFFSET:g}"] = x + OFFSET
    for n, p in SMALL_SHAPES:
        out[f"{n}x{p}"] = joint_change(n, p, seed=n + p)
    return out


def plain(value):
    """A report as JSON values, with every float as ``float.hex``."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def array_reports(label: str, x: np.ndarray) -> dict:
    """The public calls' reports on one array, keyed ``label/call``."""
    import cpjoint

    calls = {
        "detect": lambda: cpjoint.detect(x),
        "detect_finite_sample": lambda: cpjoint.detect(x, calibration="finite_sample"),
        "localize": lambda: cpjoint.localize(x),
        "baselines": lambda: cpjoint.baselines(x),
        "mean_stat_curve": lambda: cpjoint.mean_stat_curve(x),
        "cov_stat_curve": lambda: cpjoint.cov_stat_curve(x),
    }
    return {f"{label}/{name}": plain(call()) for name, call in calls.items()}


def experiment_reports() -> dict:
    """``run_experiment`` on AR(1) 200x100 data with a joint change, at parallelism 1 and 2."""
    import cpjoint

    model = cpjoint.SimulationModel(
        n=200, p=100, tau_star=100, delta1=1.0, delta2=1.5,
        cov_scenario=cpjoint.CovScenario.AR1, error_dist=cpjoint.ErrorDist.NORMAL, seed=7,
    )
    return {
        f"run_experiment/parallelism_{k}": plain(cpjoint.run_experiment(model, 24, parallelism=k))
        for k in (1, 2)
    }


def cli_reports(x: np.ndarray) -> dict:
    """The JSON reports of ``cpjoint detect`` and ``localize --emit-profile`` on a CSV of x."""
    from cpjoint import cli

    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # A relative path, so that the reports' input_path is the same in every run.
        os.chdir(tmp)
        try:
            with open("x.csv", "w", encoding="utf-8") as handle:
                handle.writelines(",".join(map(repr, row)) + "\n" for row in x.tolist())
            for name, argv in (("detect", ["detect", "x.csv"]),
                               ("localize", ["localize", "x.csv", "--emit-profile"])):
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    status = cli.main(argv)
                out[f"cli/{name}"] = {"exit": status, "report": plain(json.loads(text.getvalue()))}
        finally:
            os.chdir(cwd)
    return out


def dump() -> dict:
    arrays = inputs()
    reports = {}
    for label, x in arrays.items():
        reports.update(array_reports(label, x))
    reports.update(experiment_reports())
    reports.update(cli_reports(arrays["200x100"]))
    return reports


def _is_float(value) -> bool:
    return isinstance(value, str) and _FLOAT.fullmatch(value) is not None


def _rel(a: list[str], b: list[str]) -> float:
    """Largest |a_i - b_i| over the largest magnitude among the floats of a and b."""
    fa, fb = map(float.fromhex, a), map(float.fromhex, b)
    pairs = [(u, v) for u, v, su, sv in zip(fa, fb, a, b) if su != sv]
    if not pairs:
        return 0.0
    if not all(math.isfinite(u) and math.isfinite(v) for u, v in pairs):
        return math.inf
    scale = max(abs(float.fromhex(s)) for s in (*a, *b))
    # A scale of 0 leaves only 0.0 against -0.0.
    return max(abs(u - v) for u, v in pairs) / scale if scale else 0.0


def difference(a, b) -> tuple[float, bool]:
    """(largest relative float difference, whether anything else differs) between two values."""
    if _is_float(a) and _is_float(b):
        return _rel([a], [b]), False
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return 0.0, True
        parts = [difference(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return 0.0, True
        if a and all(map(_is_float, a + b)):
            return _rel(a, b), False
        parts = [difference(u, v) for u, v in zip(a, b)]
    else:
        return 0.0, a != b or type(a) is not type(b)
    return max((r for r, _ in parts), default=0.0), any(hard for _, hard in parts)


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """One line per report, and the exit status of ``--compare``."""
    lines, status = [], 0
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"{name}: only in {'B' if name in b else 'A'}")
            status = 1
            continue
        rel, hard = difference(a[name], b[name])
        if hard:
            lines.append(f"{name}: DIFFERS in a decision, split or integer field")
        elif a[name] == b[name]:
            lines.append(f"{name}: bitwise")
        else:
            lines.append(f"{name}: largest relative difference {rel:.3g}")
        status |= hard or rel > RTOL
    return lines, int(status)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory that holds the cpjoint package to dump")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path)
    parser.add_argument("out", nargs="?", type=Path, help="file the dump is written to")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        lines, status = compare(a, b)
        print("\n".join(lines))
        return status
    if args.out is None:
        parser.error("give OUT.json, or --compare A B")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import cpjoint

    if Path(cpjoint.__file__).resolve().parent.parent != src:
        parser.error(f"cpjoint was imported from {cpjoint.__file__}, not from {src}")
    args.out.write_text(json.dumps(dump(), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
