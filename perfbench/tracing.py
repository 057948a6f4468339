"""In-memory spans for the traced run, and the per-layer figures derived from them.

A span is opened by the benchmark around one public chamferkit call (or one
CLI child process). Spans are kept in a list while the run lasts and written
out as JSON lines when it ends, so tracing adds no I/O to the timed ops.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    work: float  # points, point pairs or megabytes handled, as the layer counts them


class Tracer:
    """Collects spans of every traced op; `op` is set by the caller per op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.op = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, work: float = 0.0):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, 0.0, 0.0, parent, self.op, float(work))
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def record(self, name: str, value: float) -> None:
        """Keep a value measured elsewhere, such as a child's import time."""
        self.values[name].append(float(value))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
            for name, values in self.values.items():
                fh.write(json.dumps({"value": name, "samples": values}) + "\n")


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    total, reach = 0.0, span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


@dataclass
class LayerStats:
    calls: float  # mean calls per traced op
    busy_s: float  # median, over ops that call the layer, of its summed span time
    self_s: float  # the same with child spans' time taken out
    rate: float  # work handled per busy second, over all calls
    op_share: float  # the layer's busy time over the enclosing "op" spans' time
    span_s: float  # median duration of a single span


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[span.parent].append(span)
    ops = {span.op for span in spans}
    per_op: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    durations: dict[str, list[float]] = defaultdict(list)
    work: dict[str, float] = defaultdict(float)
    for span in spans:
        dur = span.end - span.start
        rec = per_op[span.name][span.op]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - _covered(span, kids[span.id])
        durations[span.name].append(dur)
        work[span.name] += span.work

    op_busy = {op: rec[1] for op, rec in per_op.get("op", {}).items()}
    out = {}
    for name, by_op in per_op.items():
        busy_total = sum(durations[name])
        in_op = [rec[1] for op, rec in by_op.items() if op in op_busy]
        op_total = sum(op_busy[op] for op in by_op if op in op_busy)
        out[name] = LayerStats(
            calls=sum(rec[0] for rec in by_op.values()) / len(ops),
            busy_s=statistics.median(rec[1] for rec in by_op.values()),
            self_s=statistics.median(rec[2] for rec in by_op.values()),
            rate=work[name] / busy_total if busy_total > 0 else 0.0,
            op_share=sum(in_op) / op_total if op_total > 0 else 0.0,
            span_s=statistics.median(durations[name]),
        )
    return out
