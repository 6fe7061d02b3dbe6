"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent index, operation id).  Spans are kept
in a list while the run lasts and written out once at its end, so the
recorder itself does no I/O on the timed path.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def discard(self, name: str) -> None:
        """Drop the latest finished span of this name from the statistics."""
        for span in reversed(self.spans):
            if span[0] == name and span[4] == self.op_id:
                span[0] = name + ".discarded"
                return

    def _of_op(self, op_id: int):
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == op_id and s[2] is not None]

    def durations(self, op_id: int) -> dict[str, float]:
        """Total duration per span name within one operation."""
        out: dict[str, float] = {}
        for _, (name, start, end, _, _) in self._of_op(op_id):
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self, op_id: int) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        spans = self._of_op(op_id)
        own = {i: s[2] - s[1] for i, s in spans}
        for _, s in spans:
            if s[3] in own:
                own[s[3]] -= s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in spans:
            out[s[0]] = out.get(s[0], 0.0) + own[i]
        return out

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)


class NullTracer:
    """Stand-in with the same interface that records nothing."""

    op_id = None

    @contextmanager
    def span(self, name: str):
        yield
