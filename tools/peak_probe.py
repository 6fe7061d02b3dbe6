"""Print the traced peaks of ``detect`` and ``localize`` and the time of ``detect`` on each README shape.

For each shape the data are standard normal draws.  A first ``detect`` on
the reversed rows fills the caches a long-running process has already
paid for; the kept analysis is then dropped, and the peak of one more
``detect`` is read with tracemalloc.  Then ``localize`` runs on the same
data after ``detect``, as a user's sequence does: it reuses the kept
analysis, so its peak is that of the profile step.  Last, a fresh
``detect`` runs untraced a few times.  Each line gives the shape, the
size of the data, the peak of ``detect`` and its ratio to the data, the
peak of ``localize``, and the median wall time of a fresh ``detect``.

    python tools/peak_probe.py

It runs the cpjoint sources beside this script.  It exits non-zero only
if a shape raises; the numbers themselves are informational, and the
times depend on the machine and its load.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cpjoint import detect, localize, pipeline  # noqa: E402

SHAPES = ((200, 100), (128, 60), (1000, 500), (2000, 600), (2000, 50), (100_000, 20))


def fresh_detect_peak(x: np.ndarray) -> int:
    """Traced peak, in bytes, of ``detect`` on x with no analysis kept."""
    detect(x[::-1])
    pipeline._last_seen = None
    tracemalloc.start()
    try:
        detect(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        pipeline._last_seen = None


def localize_peak(x: np.ndarray) -> int:
    """Traced peak, in bytes, of ``localize`` on x right after ``detect`` on x."""
    detect(x)
    tracemalloc.start()
    try:
        localize(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        pipeline._last_seen = None


def fresh_detect_seconds(x: np.ndarray, runs: int = 5) -> float:
    """Median wall time, in seconds, of ``runs`` calls of ``detect`` on x, each with no analysis kept."""
    times = []
    try:
        for _ in range(runs):
            pipeline._last_seen = None
            start = time.perf_counter()
            detect(x)
            times.append(time.perf_counter() - start)
    finally:
        pipeline._last_seen = None
    return statistics.median(times)


def main() -> int:
    print(f"{'shape':<12}{'data MB':>9}{'peak MB':>9}{'ratio':>7}{'localize MB':>13}"
          f"{'detect ms':>11}")
    for n, p in SHAPES:
        x = np.random.default_rng(n + p).standard_normal((n, p))
        peak = fresh_detect_peak(x)
        profile = localize_peak(x)
        seconds = fresh_detect_seconds(x)
        print(f"{f'{n}x{p}':<12}{x.nbytes / 1e6:>9.2f}{peak / 1e6:>9.2f}"
              f"{peak / x.nbytes:>7.2f}{profile / 1e6:>13.2f}{seconds * 1e3:>11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
