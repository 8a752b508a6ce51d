"""The benchmark's own spans around its calls into each latindist layer.

Every call a workload makes into the program goes through `Calls.call`,
which times it for the op latency.  With tracing on it also records a
span named `<layer>.<function>` with its start, end, parent span and op
id.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("construct", "grid", "metrics", "transform", "search", "cli")


class Calls:
    """Times each call into the program; optionally records spans and counters."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.op_id = -1
        self.op_busy = 0.0
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_busy = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args) as one call named `<layer>.<function>`; exceptions pass through."""
        if not self.tracing:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.op_busy += time.perf_counter() - start
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)
            if parent < 0:
                self.op_busy += end - start

    def count(self, key: str, value: float = 1) -> None:
        if self.tracing:
            self.counters[key] += value

    def write(self, path) -> None:
        doc = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
               for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans) -> dict[str, float]:
    """Self time per layer: span durations minus the time their child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_layer: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        by_layer[name.split(".", 1)[0]] += (end - start) - child[index]
    return by_layer


def busy_by_name(spans) -> dict[str, float]:
    """Total duration per span name, children included."""
    total: dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        total[name] += end - start
    return total
