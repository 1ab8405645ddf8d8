"""In-memory spans around the benchmark's calls into the library.

A span records one public call: its name, start and end (perf_counter
nanoseconds), the span that caused it, the op it belongs to, and the
MACs its FlopCounter gained.  Spans stay in memory while the workload
runs and are written out once, at exit.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    span_id: int
    parent: Optional[int]
    op: Optional[int]
    phase: str
    name: str
    start_ns: int
    end_ns: int
    macs: int


class NullTracer:
    """Calls straight through; the untraced runs use this."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records a span around every ``call``; nesting follows the call stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self.phase = "setup"
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        counter = kwargs.get("flops")
        before = counter.count if counter is not None else 0
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so ids follow start order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            macs = counter.count - before if counter is not None else 0
            self.spans[span_id] = Span(span_id, parent, self.op, self.phase,
                                       name, start, end, macs)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> int:
    """The span's duration minus the part of it that its children cover."""
    clipped = [(max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns)) for c in children]
    return (span.end_ns - span.start_ns) - union_length(clipped)


class OpTotals(NamedTuple):
    """Per-name totals inside one op: duration and self time (ns), MACs, calls."""

    duration_ns: dict
    self_ns: dict
    macs: dict
    calls: dict


def op_totals(spans) -> list[OpTotals]:
    """Group spans by op (setting aside spans outside any op) and total them per name."""
    children = defaultdict(list)
    by_op = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for op, members in by_op.items():
        if op is None:
            continue
        dur, slf, macs, calls = (defaultdict(int) for _ in range(4))
        for s in members:
            dur[s.name] += s.end_ns - s.start_ns
            slf[s.name] += self_time(s, children[s.span_id])
            macs[s.name] += s.macs
            calls[s.name] += 1
        out.append(OpTotals(dur, slf, macs, calls))
    return out
