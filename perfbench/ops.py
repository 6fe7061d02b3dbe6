"""Workloads of the cpjoint benchmark: inputs, operations and output checks.

Inputs are drawn here from the workload seed with numpy alone; the program
only ever receives the finished arrays, or the CSV files written from them.
Every operation is checked: against the values recorded when the benchmark
was added, when its input is a reference input, and against invariants that
hold for any seed.  An operation that raises or fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import cpjoint
from cpjoint import cli, simulate

from spans import NullTracer

ALPHA = 0.05
LAM = 0.2
#: Replications per simulate operation; 48 splits evenly over 2 workers.
SIM_REPS = 48
#: Worker processes of the pool probe in the traced run (nproc here).
PROBE_PARALLELISM = 2
#: Replications checked one by one against the public API per simulate op.
SPOT_REPS = (0, SIM_REPS // 2, SIM_REPS - 1)
#: Paper setting of the simulate workloads and their analysis arrays.
PAPER_N, PAPER_P = 200, 100
#: Input kinds of the analysis arrays, rotated by operation index.
KINDS = ("null", "mean", "cov")
#: Mean shift per coordinate at n/2; large enough in every regime that
#: the tails' asymptotic branch (scores above 8) runs beside the bulk one.
MEAN_SHIFT = 0.25
COV_FACTOR = 1.3          # covariance multiplier after n/2
AR_CORR = 0.3             # AR(1) correlation across columns
#: Relative tolerance of the reference comparison.
RTOL = 1e-9
#: Seed and stream of the reference inputs used by every set-up operation.
REF_SEED = 0
SETUP_STREAM, MEASURE_STREAM, PROBE_STREAM = 0, 1, 2
CLI_TIMEOUT_S = 150

DETECT_FIELDS = tuple(f.name for f in dataclasses.fields(cpjoint.TestOutcome))
METHODS = tuple(m.value for m in cpjoint.Method)


@dataclass(frozen=True)
class Workload:
    name: str
    sim: bool              # simulate workload, else a detect/localize/baselines one
    n: int
    p: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_sim", True, PAPER_N, PAPER_P),
        # n=2000 rather than 4000: at 4000 every n x n array is a fresh
        # 128 MB mapping whose huge-page faults cost 0.7-1.3 s of kernel
        # time per detect on this class of machine, and the run-to-run spread
        # of analysis_s reached 27%.  At 32 MB the arrays are reused from the
        # heap, and eight of them still exceed a 105 MB L3.
        Workload("long", False, 2000, 50),
        Workload("wide", False, 200, 5000),
    )
}


@dataclass
class OpInput:
    x: np.ndarray                       # array for the detect/localize/baselines sequence
    csv_path: str                       # where run_cli writes x as CSV
    model: Optional[simulate.SimulationModel]


# ---------------------------------------------------------------- inputs

def draw_array(ss: np.random.SeedSequence, n: int, p: int, kind: str) -> np.ndarray:
    """AR(1)-correlated Gaussian rows with an optional change at n/2."""
    e = np.random.default_rng(ss).standard_normal((n, p))
    x = np.empty_like(e)
    x[:, 0] = e[:, 0]
    c = math.sqrt(1.0 - AR_CORR * AR_CORR)
    for j in range(1, p):
        x[:, j] = AR_CORR * x[:, j - 1] + c * e[:, j]
    half = n // 2
    if kind == "mean":
        x[half:] += MEAN_SHIFT
    elif kind == "cov":
        x[half:] *= math.sqrt(COV_FACTOR)
    return x


def write_csv(path: str, x: np.ndarray) -> None:
    """Shortest round-trip float formatting, so parsing restores x exactly."""
    row_format = ",".join(["%r"] * x.shape[1])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(row_format % tuple(row) for row in x.tolist()))
        handle.write("\n")


def paper_model(seed: int) -> simulate.SimulationModel:
    return simulate.SimulationModel(
        n=PAPER_N, p=PAPER_P, tau_star=PAPER_N // 2, delta1=1.0, delta2=1.5,
        cov_scenario=simulate.CovScenario.AR1,
        error_dist=simulate.ErrorDist.NORMAL, seed=seed,
    )


def make_input(w: Workload, seed: int, stream: int, index: int, csv_path: str) -> OpInput:
    array_ss, model_ss = np.random.SeedSequence([seed, stream, index]).spawn(2)
    x = draw_array(array_ss, w.n, w.p, KINDS[index % len(KINDS)])
    model = None
    if w.sim:
        model = paper_model(int(model_ss.generate_state(1, np.uint64)[0]))
    return OpInput(x, csv_path, model)


# ------------------------------------------------------------ operations

def child_env(root: str) -> dict:
    """The caller's environment with the checkout's sources importable.

    Thread-count variables are passed through untouched: the benchmark
    measures the program as users run it.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


#: ``cpjoint detect`` is run with CSV output: its JSON output raises a
#: TypeError whenever the combined p-value underflows (see README.md,
#: "Known defect"), which the mean-shift inputs make it do.
DETECT_CLI_ARGS = ("detect", "--output-format", "csv")


def parse_report_csv(text: str) -> dict:
    """The one-row CSV report of ``cpjoint detect``, with typed values.

    Booleans are written as True/False, integers by str(int) and floats by
    their shortest round-trip form, so parsing restores each value exactly.
    """
    header, row = list(csv.reader(io.StringIO(text)))
    out = {}
    for key, cell in zip(header, row):
        if cell in ("True", "False"):
            out[key] = cell == "True"
            continue
        try:
            out[key] = int(cell)
        except ValueError:
            try:
                out[key] = float(cell)
            except ValueError:
                out[key] = cell
    return out


def run_cli_process(args: list[str], env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "cpjoint.cli", *args], env=env,
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cpjoint {args[0]} exited {proc.returncode}: {proc.stderr[-500:]}")
    if args[0] == "detect":
        return parse_report_csv(proc.stdout)
    return json.loads(proc.stdout)


def sim_cli_args(model: simulate.SimulationModel) -> list[str]:
    return [
        "simulate", "--scenario", model.cov_scenario.value,
        "--n", str(model.n), "--p", str(model.p),
        "--tau-frac", repr(model.tau_star / model.n),
        "--delta1", repr(model.delta1), "--delta2", repr(model.delta2),
        "--dist", model.error_dist.value, "--reps", str(SIM_REPS),
        "--alpha", repr(ALPHA), "--lambda", repr(LAM),
        "--seed", str(model.seed),
    ]


def run_sequence(x: np.ndarray, tracer=NullTracer()):
    """The README quickstart: detect, then localize, then baselines."""
    with tracer.span("pipeline.detect"):
        d = cpjoint.detect(x, alpha=ALPHA)
    with tracer.span("pipeline.localize"):
        loc = cpjoint.localize(x, lam=LAM)
    with tracer.span("pipeline.baselines"):
        base = cpjoint.baselines(x, alpha=ALPHA, lam=LAM)
    return d, loc, base


def run_inprocess(w: Workload, inp: OpInput, tracer=NullTracer()):
    """The in-process part of one operation: (timings, outputs)."""
    timings: dict[str, float] = {}
    outputs: dict = {}
    if w.sim:
        t0 = time.perf_counter()
        with tracer.span("simulate.run_experiment"):
            report = simulate.run_experiment(inp.model, SIM_REPS, alpha=ALPHA, lam=LAM)
        t1 = time.perf_counter()
        timings["run_experiment_s"] = t1 - t0
        timings["sim_reps_per_s"] = SIM_REPS / (t1 - t0)
        outputs["report"] = report
    t0 = time.perf_counter()
    with tracer.span("sequence"):
        outputs["sequence"] = run_sequence(inp.x, tracer)
    timings["analysis_s"] = time.perf_counter() - t0
    if not w.sim:
        # One operation analyses one fresh dataset.
        timings["sim_reps_per_s"] = 1.0 / timings["analysis_s"]
    return timings, outputs


def run_cli(w: Workload, inp: OpInput, env: dict, tracer=NullTracer()):
    """The command-line part of one operation, as a child process.

    Also writes the operation's CSV, before timing starts; the traced run
    reads it again in process.
    """
    write_csv(inp.csv_path, inp.x)
    args = sim_cli_args(inp.model) if w.sim else [*DETECT_CLI_ARGS, inp.csv_path]
    t0 = time.perf_counter()
    with tracer.span("cli.process"):
        report = run_cli_process(args, env)
    return {"cli_s": time.perf_counter() - t0}, {"cli": report}


# ---------------------------------------------------------------- checks

def _py(v):
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if v is None:
        return None
    return float(v)


def _add_array(out: dict, key: str, a: np.ndarray) -> None:
    out[f"{key}.sum"] = float(a.sum())
    out[f"{key}.abs_sum"] = float(np.abs(a).sum())
    out[f"{key}.first"] = float(a[0])
    out[f"{key}.last"] = float(a[-1])


def summarize(outputs: dict) -> dict:
    """Flat dict of plain numbers that identifies an operation's outputs."""
    out: dict = {}
    d, loc, base = outputs["sequence"]
    for name in DETECT_FIELDS:
        out[f"detect.{name}"] = _py(getattr(d, name))
    out["localize.tau_hat"] = loc.tau_hat
    out["localize.grid_lo"] = loc.grid_lo
    out["localize.grid_hi"] = loc.grid_hi
    _add_array(out, "localize.profile", loc.profile.values)
    for item in base:
        out[f"baselines.{item.method.value}.reject"] = bool(item.reject)
        out[f"baselines.{item.method.value}.tau_hat"] = _py(item.tau_hat)
    if "report" in outputs:
        out.update(report_summary(outputs["report"]))
    return out


def report_summary(report) -> dict:
    """Flat summary of a run_experiment report."""
    out = {"sim.rep_count": report.rep_count}
    for name, m in report.methods.items():
        out[f"sim.{name}.rejection_rate"] = m.rejection_rate
        out[f"sim.{name}.mc_stderr"] = m.mc_stderr
        out[f"sim.{name}.mean_abs_error"] = _py(m.mean_abs_error)
    for key in ("z_mean_samples", "z_cov_samples", "t_n_samples"):
        _add_array(out, f"sim.{key}", getattr(report, key))
    for col, name in enumerate(METHODS):
        _add_array(out, f"sim.tau_hat.{name}", report.tau_hat_samples[:, col].astype(np.float64))
    return out


def compare(summary: dict, reference: dict, rtol: float = RTOL) -> list[str]:
    """Differences between a summary and its reference.

    Floats must agree to ``rtol`` relative; a sum is scaled by the sum of
    absolute values beside it.  Everything else must be equal.
    """
    problems = []
    if set(summary) != set(reference):
        problems.append(f"keys differ: {sorted(set(summary) ^ set(reference))[:5]}")
    for key, want in reference.items():
        if key not in summary:
            continue
        got = summary[key]
        if isinstance(want, float) and isinstance(got, float):
            scale = abs(reference.get(key[:-4] + ".abs_sum", want)) if key.endswith(".sum") else abs(want)
            if not abs(got - want) <= rtol * scale:
                problems.append(f"{key}: {got!r} != reference {want!r}")
        elif type(got) is not type(want) or got != want:
            problems.append(f"{key}: {got!r} != reference {want!r}")
    return problems


def invariants(summary: dict) -> list[str]:
    problems = []
    if summary["localize.tau_hat"] != summary["baselines.fisher.tau_hat"]:
        problems.append("localize.tau_hat differs from the FISHER tau_hat of baselines")
    if summary["detect.reject"] != summary["baselines.fisher.reject"]:
        problems.append("detect.reject differs from the FISHER decision of baselines")
    for key, value in summary.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{key} is not finite: {value!r}")
    return problems


def check_cli(w: Workload, summary: dict, outputs: dict) -> list[str]:
    """The CLI report must equal the in-process outcome bit for bit."""
    cli_report = outputs["cli"]
    problems = []
    if w.sim:
        report = outputs["report"]
        rows = {row["method"]: row for row in cli_report["results"]}
        if set(rows) != set(report.methods):
            return [f"CLI methods {sorted(rows)} differ"]
        for name, m in report.methods.items():
            row = rows[name]
            want = (report.rep_count, m.rejection_rate, m.mc_stderr, m.mean_abs_error)
            got = (row["rep_count"], row["rejection_rate"], row["mc_stderr"], row["mean_abs_error"])
            if got != want:
                problems.append(f"CLI simulate {name}: {got} != in-process {want}")
    else:
        problems = compare_detect_report(cli_report, summary, "CLI detect")
    return problems


def compare_detect_report(report: dict, summary: dict, label: str) -> list[str]:
    """A detect report's fields must equal the in-process outcome bit for bit."""
    problems = []
    for name in DETECT_FIELDS:
        got, want = report.get(name), summary[f"detect.{name}"]
        if type(got) is not type(want) or got != want:
            problems.append(f"{label} {name}: {got!r} != in-process {want!r}")
    return problems


def replication_model(model, r: int):
    """The model of replication r of run_experiment, by its documented seeding."""
    return dataclasses.replace(model, seed=simulate.mix_seed(model.seed, r))


def replication_datasets(model) -> list:
    return [simulate.gen_dataset(replication_model(model, r)) for r in SPOT_REPS]


def check_replications(model, report, tracer=NullTracer()) -> tuple[list[str], list[float]]:
    """Replay single replications through the public API.

    Replication r of run_experiment must match gen_dataset on the stream
    mix_seed(seed, r) analysed by detect and baselines, bit for bit, at
    every parallelism degree.  Returns the problems and the wall time of
    each replayed replication (generation plus baselines).
    """
    problems, rep_times = [], []
    for r in SPOT_REPS:
        rep_model = replication_model(model, r)
        t0 = time.perf_counter()
        with tracer.span("simulate.replication"):
            with tracer.span("simulate.gen_dataset"):
                data = simulate.gen_dataset(rep_model)
            with tracer.span("simulate.analysis"):
                base = cpjoint.baselines(data, alpha=ALPHA, lam=LAM)
        rep_times.append(time.perf_counter() - t0)
        d = cpjoint.detect(data, alpha=ALPHA)
        got = (d.z_mean, d.z_cov, d.t_n, tuple(b.tau_hat for b in base))
        want = (
            report.z_mean_samples[r], report.z_cov_samples[r], report.t_n_samples[r],
            tuple(int(t) for t in report.tau_hat_samples[r]),
        )
        if got != want:
            problems.append(f"replication {r}: public API gives {got}, run_experiment {want}")
    for col, name in enumerate(METHODS):
        mae = float(np.abs(report.tau_hat_samples[:, col] - model.tau_star).mean())
        if mae != report.methods[name].mean_abs_error:
            problems.append(f"{name} mean_abs_error inconsistent with tau_hat_samples")
    if report.rep_count != SIM_REPS:
        problems.append(f"rep_count {report.rep_count} != {SIM_REPS}")
    return problems, rep_times


def check_parallel(model, serial_report, tracer=NullTracer()) -> tuple[list[str], float]:
    """Run the same experiment on the process pool; it must match bit for bit.

    Returns the problems and the wall time of the parallel run.
    """
    t0 = time.perf_counter()
    with tracer.span("simulate.run_experiment_parallel"):
        report = simulate.run_experiment(
            model, SIM_REPS, alpha=ALPHA, lam=LAM, parallelism=PROBE_PARALLELISM,
        )
    wall = time.perf_counter() - t0
    return compare(report_summary(report), report_summary(serial_report), rtol=0.0), wall


def check_op(w: Workload, inp: OpInput, outputs: dict, reference: Optional[dict],
             tracer=NullTracer()) -> tuple[list[str], list[float]]:
    """All checks of one operation; reference is None for non-reference inputs."""
    summary = summarize(outputs)
    problems = invariants(summary)
    if reference is not None:
        problems += compare(summary, reference)
    if "cli" in outputs:
        problems += check_cli(w, summary, outputs)
    rep_times: list[float] = []
    if w.sim:
        more, rep_times = check_replications(inp.model, outputs["report"], tracer)
        problems += more
    return problems, rep_times


# ------------------------------------------------------ stage replays

def profile_inputs(n: int, mean_res, cov_res, calib):
    """Standardized per-split scores of the fused profile, from public curves."""
    margin = int(math.floor(LAM * n))
    lo, hi = max(margin, 4), min(n - margin, n - 4)
    taus = np.arange(lo, hi + 1)
    weight = taus.astype(np.float64) * (n - taus) / n
    scale = calib.trace_hat
    mean_std = weight * mean_res.per_tau.values[taus - 2] / math.sqrt(2.0 * scale)
    cov_std = weight * cov_res.per_tau.values[taus - 4] / (2.0 * scale)
    return mean_std, cov_std


def replay_stages(x: np.ndarray, tracer) -> np.ndarray:
    """Replay the stages of one analysis through public functions.

    Returns every input the quickstart sequence hands to normal_log_sf:
    the two z-scores once per call, and the two profiles for localize and
    baselines.
    """
    with tracer.span("data.dataset"):
        ds = cpjoint.dataset_from_matrix(x)
    with tracer.span("data.gram"):
        g = cpjoint.gram(ds)
    with tracer.span("mean_shift.curve"):
        mean_res = cpjoint.mean_stat_curve(ds)
    with tracer.span("cov_shift.sweep"):
        cov_res = cpjoint.cov_stat_curve(ds, g)
    del g
    with tracer.span("scale.trace"):
        calib = cpjoint.calibrate(cpjoint.trace_sigma2_hat(ds), ds.n)
    z_mean = mean_res.aggregate / math.sqrt(calib.sigma1_sq)
    z_cov = cov_res.aggregate / math.sqrt(calib.sigma2_sq)
    mean_std, cov_std = profile_inputs(ds.n, mean_res, cov_res, calib)
    with tracer.span("tails.log_sf"):
        for _ in range(3):
            cpjoint.normal_log_sf(z_mean)
            cpjoint.normal_log_sf(z_cov)
        for _ in range(2):
            cpjoint.normal_log_sf(mean_std)
            cpjoint.normal_log_sf(cov_std)
    scalars = np.array([z_mean, z_cov] * 3)
    return np.concatenate([scalars, mean_std, cov_std, mean_std, cov_std])


def replay_cov_sqrt(model, tracer) -> None:
    """build_cov + cov_sqrt of one replication: the pre- and post-change roots."""
    with tracer.span("simulate.cov_sqrt"):
        for corr, scale in ((0.3, 1.0), (0.5, model.delta2)):
            spec = simulate.CovSpec(model.cov_scenario, corr, scale)
            simulate.cov_sqrt(simulate.build_cov(spec, model.p))


def run_cli_inprocess(csv_path: str, tracer) -> dict:
    """cli.main on the detect subcommand, in this process, stdout captured."""
    with tracer.span("cli.read_csv"):
        cli.read_matrix_csv(csv_path)
    buf = io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
        code = cli.main([*DETECT_CLI_ARGS, csv_path])
    if code != 0:
        raise RuntimeError(f"cli.main detect returned {code}")
    return parse_report_csv(buf.getvalue())


def json_report_probe(inp: OpInput) -> str:
    """Whether ``cpjoint detect`` with JSON output handles this input.

    The known defect (README.md) is kept in view this way rather than by
    failing operations: it says "ok", or names the exception raised.
    """
    write_csv(inp.csv_path, inp.x)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["detect", inp.csv_path])
    except Exception as exc:  # noqa: BLE001 - the outcome is the report
        return f"raises {type(exc).__name__}: {exc}"
    return "ok" if code == 0 else f"exits {code}"
