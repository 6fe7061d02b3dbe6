"""cpjoint benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is used from the checkout's
``src/`` directory; nothing needs installing.  With ``--trace 0`` the
end-to-end metrics are measured: three fresh processes, one after the
other, each import cpjoint and finish a first operation (set-up time), then
run the timed closed loop for a third of the run; the last one ends with a
peak-memory pass.  With ``--trace 1`` one process runs traced operations and
reports the per-layer metrics.

The last line of standard output is the result object; the lines before it
give every metric with its unit and sample count, and the provenance.  The
full report, and the spans of a traced run, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sim", "long", "wide")
SETUP_PROCESSES = 3
#: Every run, child processes included, ends within this many seconds.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CPJOINT_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_reps_per_s": "1/s",
    "analysis_s": "s",
    "cli_s": "s",
    "peak_mem_mb": "MB",
}
PER_LAYER_UNITS = {
    "data.dataset_s": "s",
    "data.gram_s": "s",
    "data.gram_flops": "count",
    "data.gram_bytes": "bytes",
    "mean_shift.curve_s": "s",
    "cov_shift.sweep_s": "s",
    "cov_shift.peak_mb": "MB",
    "scale.trace_s": "s",
    "tails.log_sf_s": "s",
    "tails.evals": "count",
    "tails.asymptotic_frac": "ratio",
    "pipeline.detect_s": "s",
    "pipeline.localize_s": "s",
    "pipeline.baselines_s": "s",
    "pipeline.self_s": "s",
    "pipeline.peak_nn_arrays": "count",
    "simulate.gen_dataset_s": "s",
    "simulate.cov_sqrt_s": "s",
    "simulate.pool_efficiency": "ratio",
    "cli.startup_s": "s",
    "cli.read_csv_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED_COUNTS = (
    "data.gram_flops", "data.gram_bytes", "pipeline.peak_nn_arrays",
    "tails.evals", "tails.asymptotic_frac",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_sha(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def l3_bytes() -> int | None:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as handle:
            text = handle.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 * 1024}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def run_worker(args, role: str, k: int, seconds: float, tmp: str, deadline: float,
               extra=()) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--role", role, "--k", str(k), "--tmp", tmp, *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next benchmark process")
    # Its own process group, so that a timeout also ends the CLI children
    # and pool workers it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else None


def end_to_end(workers: list[dict]) -> dict:
    samples = {"setup_s": [w["setup_s"] for w in workers]}
    for w in workers:
        for name, values in w["samples"].items():
            samples.setdefault(name, []).extend(values)
    metrics = {
        name: {"value": median(values), "samples": len(values), "all": values}
        for name, values in samples.items()
    }
    metrics["peak_mem_mb"] = {"value": workers[-1]["peak_mem_mb"], "samples": 1}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cpjoint", "__init__.py")):
        print(f"error: no cpjoint sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(ROOT, ".perfbench_out")
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            # k=1 is the mean-shift reference input, on which both tail
            # branches run; the computed counts are taken from it.
            workers = [run_worker(args, "trace", 1, args.seconds, tmp, deadline,
                                  ("--spans", os.path.join(out_dir, f"spans-{tag}.json")))]
            metrics = workers[0]["per_layer"]
            units = PER_LAYER_UNITS
        else:
            workers = [
                run_worker(args, "measure", k, args.seconds / SETUP_PROCESSES, tmp, deadline,
                           ("--peak",) if k == SETUP_PROCESSES - 1 else ())
                for k in range(SETUP_PROCESSES)
            ]
            metrics = end_to_end(workers)
            units = END_TO_END_UNITS
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run still uses it

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    missing = [name for name in units if metrics.get(name, {}).get("value") is None]
    problems = [p for w in workers for p in w["problems"]]

    last = workers[-1]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **last["versions"],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "input_bytes": last["input_bytes"],
        "nn_working_set_bytes": last["nn_bytes"],
        "l3_bytes": l3_bytes(),
    }
    for name, unit in units.items():
        m = metrics.get(name, {})
        label = " (computed count)" if name in COMPUTED_COUNTS else ""
        print(f"{args.workload:15s} {name:26s} {m.get('value')!r:>24} {unit:6s} "
              f"samples={m.get('samples')}{label}")
    print(f"{args.workload:15s} {'failed_frac':26s} {failed / max(attempted, 1)!r:>24} ratio  "
          f"samples={attempted}")
    self_times = workers[0].get("self_times")
    if self_times:
        print("self times (s, median per operation): " + ", ".join(
            f"{name}={value:.4g}" for name, value in sorted(self_times.items())))
    for problem in problems:
        print(f"problem: {problem}")
    json_probe = workers[0].get("json_report_probe")
    if json_probe is not None:
        print(f"cpjoint detect with JSON output, mean-shift reference input: {json_probe}")
    print("provenance: " + json.dumps(provenance))
    with open(os.path.join(out_dir, f"report-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"provenance": provenance, "metrics": metrics, "self_times": self_times,
                   "attempted": attempted, "failed": failed, "problems": problems,
                   "json_report_probe": json_probe},
                  handle, indent=1)
    if missing:
        print(f"error: no value for {missing}; every operation failed", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
