"""One benchmark process for one workload, started by run.py.

Roles:
  measure  import cpjoint and finish a first operation on a reference input
           (the set-up time), then run the timed closed loop; with --peak,
           also a peak-memory pass
  trace    the same set-up as a warm-up, then traced operations with stage
           replays, once-per-run counts and probes

The last line of standard output is one JSON object with the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("measure", "trace"), required=True)
    ap.add_argument("--peak", action="store_true", help="end with a peak-memory pass")
    ap.add_argument("--k", type=int, default=0, help="index of this set-up process")
    ap.add_argument("--tmp", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    return ap.parse_args(argv)


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(args.root, "src"))
    import cpjoint  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0

    # Imported after the timer: these load numpy too, which cpjoint already has.
    import numpy as np
    import scipy

    import loops
    import ops
    import spans

    w = ops.WORKLOADS[args.workload]
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.json"), encoding="utf-8") as handle:
        references = json.load(handle)[w.name]
    csv_path = os.path.join(args.tmp, f"op-{os.getpid()}.csv")
    env = ops.child_env(args.root)
    tally = loops.Tally()
    out: dict = {
        "role": args.role,
        "k": args.k,
        "versions": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(np),
        },
        "input_bytes": 8 * w.n * w.p,
        "nn_bytes": 8 * w.n * w.n,
    }

    # Set-up: the first operation of a fresh process, on a reference input.
    k = args.k % len(references)
    inp = ops.make_input(w, ops.REF_SEED, ops.SETUP_STREAM, k, csv_path)
    t1 = time.perf_counter()
    ok, first = tally.run(ops.run_inprocess, w, inp)
    out["setup_s"] = import_s + (time.perf_counter() - t1)
    if ok:
        tally.check(ops.check_op, w, inp, first[1], references[k])

    if args.role == "measure":
        out["samples"] = loops.measure(w, args, csv_path, env, tally)
        if args.peak:
            out["peak_mem_mb"] = loops.peak_pass(w, args, csv_path, tally)
    else:
        tracer = spans.Tracer()
        out["per_layer"], out["self_times"] = loops.trace(
            w, args, inp, csv_path, env, tally, tracer,
        )
        if args.spans:
            tracer.dump(args.spans)
        out["json_report_probe"] = ops.json_report_probe(inp)

    out.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
