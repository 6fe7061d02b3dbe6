"""Record the reference outputs that every set-up operation is checked against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for each workload, the summaries of the
operations on the reference inputs, one per set-up process.  Run it only on
a commit whose outputs are trusted; the file in the repository was recorded
on the commit that added the benchmark.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops  # noqa: E402
from run import SETUP_PROCESSES  # noqa: E402


def main() -> int:
    tmp = os.path.join(ROOT, ".perfbench_tmp", "reference")
    os.makedirs(tmp, exist_ok=True)
    try:
        reference = {}
        for w in ops.WORKLOADS.values():
            entries = []
            for k in range(SETUP_PROCESSES):
                inp = ops.make_input(w, ops.REF_SEED, ops.SETUP_STREAM, k,
                                     os.path.join(tmp, "ref.csv"))
                _, outputs = ops.run_inprocess(w, inp)
                entries.append(ops.summarize(outputs))
            reference[w.name] = entries
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
