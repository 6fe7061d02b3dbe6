"""Command-line frontend: CSV in, JSON or CSV reports out.

Three subcommands: ``detect`` and ``localize`` analyze a CSV of
observations (rows = time-ordered observations, columns = variables,
optional header row auto-detected); ``simulate`` runs the Monte Carlo
harness, optionally sweeping one change magnitude over a grid.

Exit codes encode execution success only (0 ok, 1 any error); test
decisions live in the report, which goes to stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .data import dataset_from_matrix
from .errors import BadParamError, CpjointError
from .pipeline import detect, localize
from .simulate import (
    CovScenario,
    ErrorDist,
    ExperimentReport,
    SimulationModel,
    run_experiment,
)

REPORT_VERSION = "1.0"

THREADS_ENV_VAR = "CPJOINT_THREADS"


class CsvFormatError(CpjointError, ValueError):
    """The input file is not a rectangular numeric CSV."""


def read_matrix_csv(path: str) -> np.ndarray:
    """Parse a numeric CSV into an observation matrix.

    A single leading header row is skipped when any of its cells is not
    numeric.  Every later row must be numeric and have the same width.
    """
    rows: list[list[float]] = []
    width: Optional[int] = None
    with open(path, newline="", encoding="utf-8") as handle:
        for line_no, record in enumerate(csv.reader(handle), start=1):
            if not record:
                continue
            try:
                values = [float(cell) for cell in record]
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise CsvFormatError(
                    f"row {line_no}: non-numeric value in {record!r}"
                ) from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise CsvFormatError(
                    f"row {line_no} has {len(values)} fields, expected {width}"
                )
            rows.append(values)
    if not rows:
        raise CsvFormatError(f"{path}: no numeric rows found")
    return np.array(rows, dtype=np.float64)


def _emit_json(payload: dict, stream) -> None:
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _emit_csv_rows(rows: list[dict], stream) -> None:
    writer = csv.writer(stream)
    if rows:
        keys = list(rows[0])
        writer.writerow(keys)
        for row in rows:
            writer.writerow([row[k] for k in keys])


def _parse_grid(text: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise BadParamError(f"{name}: cannot parse grid {text!r}") from None
    if not values:
        raise BadParamError(f"{name}: empty grid")
    return values


def _resolve_parallelism(flag_value: int) -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise BadParamError(f"{THREADS_ENV_VAR}={env!r} is not an integer") from None
    return max(1, flag_value)


def _cmd_detect(args) -> dict:
    matrix = read_matrix_csv(args.input)
    data = dataset_from_matrix(matrix)
    outcome = detect(data, alpha=args.alpha)
    return {
        "spec_version": REPORT_VERSION,
        "command": "detect",
        "config": {
            "input_path": args.input,
            "alpha": args.alpha,
            "output_format": args.output_format,
        },
        "n": data.n,
        "p": data.p,
        **dataclasses.asdict(outcome),
    }


def _cmd_localize(args) -> dict:
    matrix = read_matrix_csv(args.input)
    data = dataset_from_matrix(matrix)
    outcome = localize(data, lam=args.lam)
    report = {
        "spec_version": REPORT_VERSION,
        "command": "localize",
        "config": {
            "input_path": args.input,
            "lambda": args.lam,
            "emit_profile": args.emit_profile,
            "output_format": args.output_format,
        },
        "n": data.n,
        "p": data.p,
        "tau_hat": outcome.tau_hat,
        "grid_lo": outcome.grid_lo,
        "grid_hi": outcome.grid_hi,
    }
    if args.emit_profile:
        report["profile"] = [float(v) for v in outcome.profile.values]
    return report


def _method_rows(report: ExperimentReport, setting: dict) -> list[dict]:
    rows = []
    for method, result in report.methods.items():
        row = dict(setting)
        row.update(
            method=method,
            rep_count=report.rep_count,
            rejection_rate=result.rejection_rate,
            mc_stderr=result.mc_stderr,
            mean_abs_error=result.mean_abs_error,
        )
        rows.append(row)
    return rows


def _cmd_simulate(args) -> dict:
    delta1_grid = _parse_grid(args.delta1, "--delta1")
    delta2_grid = _parse_grid(args.delta2, "--delta2")
    if len(delta1_grid) > 1 and len(delta2_grid) > 1:
        raise BadParamError("sweep only one of --delta1/--delta2 at a time")
    if args.reps < 1:
        raise BadParamError(f"--reps {args.reps} must be at least 1")

    tau_star = None
    if args.tau_frac is not None:
        if not 0.0 < args.tau_frac < 1.0:
            raise BadParamError(f"--tau-frac {args.tau_frac} outside (0, 1)")
        tau_star = int(args.tau_frac * args.n)

    parallelism = _resolve_parallelism(args.parallelism)
    settings = [
        (d1, d2)
        for d1 in delta1_grid
        for d2 in delta2_grid
    ]
    rows: list[dict] = []
    for d1, d2 in settings:
        model = SimulationModel(
            n=args.n,
            p=args.p,
            tau_star=tau_star,
            delta1=d1,
            delta2=d2,
            cov_scenario=CovScenario(args.scenario),
            error_dist=ErrorDist(args.dist),
            seed=args.seed,
        )
        report = run_experiment(
            model, args.reps, alpha=args.alpha, lam=args.lam,
            parallelism=parallelism,
        )
        rows.extend(_method_rows(report, {"delta1": d1, "delta2": d2}))

    return {
        "spec_version": REPORT_VERSION,
        "command": "simulate",
        "config": {
            "scenario": args.scenario,
            "n": args.n,
            "p": args.p,
            "tau_frac": args.tau_frac,
            "tau_star": tau_star,
            "delta1": delta1_grid,
            "delta2": delta2_grid,
            "dist": args.dist,
            "reps": args.reps,
            "alpha": args.alpha,
            "lambda": args.lam,
            "seed": args.seed,
            "parallelism": parallelism,
            "output_format": args.output_format,
        },
        "results": rows,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpjoint",
        description="Joint mean/covariance changepoint detection and localization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument(
            "--output-format", choices=("json", "csv"), default="json",
            help="report format written to stdout (default json)",
        )

    p_detect = sub.add_parser("detect", help="test a CSV dataset for a change")
    p_detect.add_argument("input", help="CSV file, rows = observations")
    p_detect.add_argument("--alpha", type=float, default=0.05,
                          help="significance level (default 0.05)")
    add_output(p_detect)
    p_detect.set_defaults(handler=_cmd_detect)

    p_loc = sub.add_parser("localize", help="estimate the change location")
    p_loc.add_argument("input", help="CSV file, rows = observations")
    p_loc.add_argument("--lambda", dest="lam", type=float, default=0.2,
                       help="search-margin fraction in (0, 0.5) (default 0.2)")
    p_loc.add_argument("--emit-profile", action="store_true",
                       help="include the full per-split profile in the report")
    add_output(p_loc)
    p_loc.set_defaults(handler=_cmd_localize)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo harness")
    p_sim.add_argument("--scenario", choices=[s.value for s in CovScenario],
                       default=CovScenario.AR1.value)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--tau-frac", type=float, default=None,
                       help="changepoint position as a fraction of n; omit for no change")
    p_sim.add_argument("--delta1", default="0",
                       help="mean-shift size, or comma-separated sweep grid")
    p_sim.add_argument("--delta2", default="1",
                       help="covariance scale factor, or comma-separated sweep grid")
    p_sim.add_argument("--dist", choices=[d.value for d in ErrorDist],
                       default=ErrorDist.NORMAL.value)
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--lambda", dest="lam", type=float, default=0.2)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--parallelism", type=int, default=1,
                       help=f"worker processes; {THREADS_ENV_VAR} overrides")
    add_output(p_sim)
    p_sim.set_defaults(handler=_cmd_simulate)
    return parser


def _report_to_csv(report: dict) -> list[dict]:
    if report["command"] == "simulate":
        return report["results"]
    flat = {
        k: v for k, v in report.items()
        if not isinstance(v, (dict, list))
    }
    if "profile" in report:
        flat["profile"] = " ".join(repr(v) for v in report["profile"])
    return [flat]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except CpjointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output_format == "csv":
        _emit_csv_rows(_report_to_csv(report), sys.stdout)
    else:
        _emit_json(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
