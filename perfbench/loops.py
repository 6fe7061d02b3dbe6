"""The loops a benchmark process runs once cpjoint is imported.

``measure`` is the timed closed loop of the end-to-end metrics, ``trace``
the traced run of the per-layer metrics.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import cpjoint
import ops
import spans
from cpjoint import simulate


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])

    def check(self, fn, *args) -> None:
        """Run a check returning (problems, ...) and record its outcome."""
        ok, res = self.run(fn, *args)
        if ok:
            self.record(res[0])

    def run(self, fn, *args):
        """Call fn; an exception is a failed operation. Returns (ok, result)."""
        try:
            return True, fn(*args)
        except Exception as exc:  # noqa: BLE001 - every error is a failed operation
            self.record([f"{type(exc).__name__}: {exc}"])
            return False, None


def median(values):
    return statistics.median(values) if values else None


#: Most time the command-line part may have per second of in-process work.
CLI_TIME_RATIO = 5.0


def measure(w, args, csv_path, env, tally) -> dict:
    """Closed loop, one client: the next operation starts when one ends.

    Every operation runs the in-process part on a fresh input; the
    command-line part (CSV writing included) runs on it only while it has
    had no more than CLI_TIME_RATIO times the in-process part's time.  On
    wide a CLI call (with its CSV) costs more than ten in-process sequences, so the
    sequence gets a few samples per CLI call; elsewhere every operation runs
    both.

    Stops before an operation that would, at the last one's duration,
    overrun the time budget; at least one operation always runs.
    """
    samples: dict[str, list[float]] = {"sim_reps_per_s": [], "analysis_s": [], "cli_s": []}
    spent = {"inprocess": 0.0, "cli": 0.0}
    start = time.perf_counter()
    i = 0
    while True:
        t_op = time.perf_counter()
        # Each process has its own range of input indices.
        inp = ops.make_input(w, args.seed, ops.MEASURE_STREAM, 1000 * args.k + i, csv_path)
        timings: dict[str, float] = {}
        try:
            t0 = time.perf_counter()
            inproc, outputs = ops.run_inprocess(w, inp)
            spent["inprocess"] += time.perf_counter() - t0
            timings.update(inproc)
            if spent["cli"] <= CLI_TIME_RATIO * spent["inprocess"]:
                t0 = time.perf_counter()
                cli_timings, cli_outputs = ops.run_cli(w, inp, env)
                spent["cli"] += time.perf_counter() - t0
                timings.update(cli_timings)
                outputs.update(cli_outputs)
            problems, _ = ops.check_op(w, inp, outputs, None)
        except Exception as exc:  # noqa: BLE001 - every error is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        tally.record(problems)
        # A failed operation still counts as attempted; whatever it timed
        # before failing is kept.
        for key, values in samples.items():
            if key in timings:
                values.append(timings[key])
        i += 1
        last = time.perf_counter() - t_op
        if time.perf_counter() - start + last > args.seconds:
            return samples


def peak_pass(w, args, csv_path, tally) -> float | None:
    """tracemalloc peak of one in-process operation, in its own untimed pass."""
    inp = ops.make_input(w, args.seed, ops.PROBE_STREAM, 0, csv_path)
    tracemalloc.start()
    try:
        ok, res = tally.run(ops.run_inprocess, w, inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not ok:
        return None
    tally.check(ops.check_op, w, inp, res[1], None)
    return peak / 1e6


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


STAGES = ("data.dataset", "data.gram", "mean_shift.curve", "cov_shift.sweep", "scale.trace")
CALLS = ("pipeline.detect", "pipeline.localize", "pipeline.baselines")


def layer_values(d: dict) -> dict:
    """Per-layer values of one traced operation from its span durations."""
    values = {f"{name}_s": d[name] for name in STAGES + CALLS + ("tails.log_sf",) if name in d}
    if "pipeline.detect" in d:
        # Each of the three calls runs every stage once; what is left is the
        # pipeline's own work (decisions, profiles, clamping, argmax).
        values["pipeline.self_s"] = (
            sum(d[c] for c in CALLS) - 3 * sum(d[s] for s in STAGES) - d["tails.log_sf"]
        )
    if "cli.main" in d:
        values["cli.read_csv_s"] = d["cli.read_csv"]
        values["cli.self_s"] = d["cli.main"] - d["cli.read_csv"] - d["pipeline.detect"]
    if "simulate.gen_dataset" in d:
        values["simulate.gen_dataset_s"] = d["simulate.gen_dataset"] / len(ops.SPOT_REPS)
        values["simulate.cov_sqrt_s"] = d["simulate.cov_sqrt"]
    return values


def trace(w, args, ref_inp, csv_path, env, tally, tracer) -> tuple[dict, dict]:
    """Traced operations, then once-per-run counts and probes.

    Returns the per-layer metrics and the median self time of each span.
    """
    per_op: dict[str, list[float]] = {}
    self_times: dict[str, list[float]] = {}
    primary = "run_experiment_s" if w.sim else "analysis_s"
    start = time.perf_counter()
    i = 0
    while True:
        t_op = time.perf_counter()
        inp = ops.make_input(w, args.seed, ops.MEASURE_STREAM, i, csv_path)
        tracer.op_id = i
        ok, res = tally.run(traced_op, w, inp, env, tracer, i % 2 == 0)
        if ok:
            untraced, traced, problems = res
            tally.record(problems)
            values = layer_values(tracer.durations(i))
            values["trace.overhead_s"] = traced[primary] - untraced[primary]
            for key, value in values.items():
                per_op.setdefault(key, []).append(value)
            for key, value in tracer.self_times(i).items():
                self_times.setdefault(key, []).append(value)
        i += 1
        last = time.perf_counter() - t_op
        if time.perf_counter() - start + last > args.seconds:
            break

    # The pool, and on the analysis workloads the whole simulate layer, are
    # timed once per run on the paper setting.
    tracer.op_id = "probe"
    ok, res = tally.run(simulate_probe, args, tracer)
    if ok:
        problems, efficiency = res
        tally.record(problems)
        per_op["simulate.pool_efficiency"] = [efficiency]
        for key, value in layer_values(tracer.durations("probe")).items():
            per_op.setdefault(key, [value])
    metrics = {key: (median(vals), len(vals)) for key, vals in per_op.items()}

    # Computed counts, on reference inputs so that they repeat exactly from
    # run to run whatever the seed.  The tails see the replications on the
    # simulate workload and the operation's array on the others.
    x = ref_inp.x
    n, p = x.shape
    if w.sim:
        scores = np.concatenate([
            ops.replay_stages(data.values, spans.NullTracer())
            for data in ops.replication_datasets(ref_inp.model)
        ])
    else:
        scores = ops.replay_stages(x, spans.NullTracer())
    metrics["data.gram_flops"] = (n * n * p, 1)
    metrics["data.gram_bytes"] = (8 * (n * p + n * n), 1)
    metrics["tails.evals"] = (int(scores.size), 1)
    metrics["tails.asymptotic_frac"] = (float(np.mean(scores > 8.0)), 1)
    peak = traced_peak(cpjoint.detect, x)
    # Interpreter objects add a few bytes of jitter; two decimals hide it.
    metrics["pipeline.peak_nn_arrays"] = (round(peak / (8.0 * n * n), 2), 1)
    ds = cpjoint.dataset_from_matrix(x)
    g = cpjoint.gram(ds)
    metrics["cov_shift.peak_mb"] = (traced_peak(cpjoint.cov_stat_curve, ds, g) / 1e6, 1)
    del g

    startup = [cli_startup(env) for _ in range(3)]
    metrics["cli.startup_s"] = (median(startup), len(startup))
    per_layer = {key: {"value": v, "samples": c} for key, (v, c) in metrics.items()}
    return per_layer, {key: median(vals) for key, vals in self_times.items()}


def traced_op(w, inp, env, tracer, untraced_first: bool):
    """One operation untraced and once traced, with replays; order alternates."""
    untraced = None
    if untraced_first:
        untraced, _ = ops.run_inprocess(w, inp)
    problems: list[str] = []
    with tracer.span("op"):
        traced, outputs = ops.run_inprocess(w, inp, tracer)
        # Replayed right after the calls, so that both see the same caches.
        with tracer.span("replay"):
            ops.replay_stages(inp.x, tracer)
        try:
            _, cli_outputs = ops.run_cli(w, inp, env, tracer)
            outputs.update(cli_outputs)
        except RuntimeError as exc:
            problems.append(str(exc))
        with tracer.span("replay"):
            if w.sim:
                ops.replay_cov_sqrt(inp.model, tracer)
            problems += ops.check_op(w, inp, outputs, None, tracer)[0]
            try:
                cli_report = ops.run_cli_inprocess(inp.csv_path, tracer)
            except Exception as exc:  # noqa: BLE001 - a failure of the CLI under test
                problems.append(f"cli.main: {type(exc).__name__}: {exc}")
                tracer.discard("cli.main")
            else:
                problems += ops.compare_detect_report(
                    cli_report, ops.summarize(outputs), "cli.main detect",
                )
    if not untraced_first:
        untraced, _ = ops.run_inprocess(w, inp)
    return untraced, traced, problems


def simulate_probe(args, tracer):
    """Serial and pool runs of one experiment on the paper setting.

    Returns the problems and the pool efficiency: serial replication time
    times replications, over workers times the pool run's wall time.
    """
    ss = np.random.SeedSequence([args.seed, ops.PROBE_STREAM, 1])
    model = ops.paper_model(int(ss.generate_state(1, np.uint64)[0]))
    with tracer.span("op"):
        with tracer.span("simulate.run_experiment"):
            report = simulate.run_experiment(model, ops.SIM_REPS, alpha=ops.ALPHA, lam=ops.LAM)
        with tracer.span("replay"):
            ops.replay_cov_sqrt(model, tracer)
            problems, rep_times = ops.check_replications(model, report, tracer)
        more, wall = ops.check_parallel(model, report, tracer)
    efficiency = (
        statistics.fmean(rep_times) * ops.SIM_REPS / (ops.PROBE_PARALLELISM * wall)
    )
    return problems + more, efficiency


def cli_startup(env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cpjoint.cli"], env=env, check=True, timeout=60)
    return time.perf_counter() - t0
