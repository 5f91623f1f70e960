"""Spans recorded around the benchmark's own calls into the program.

A span is a name, a start and an end time, the id of its parent span and
the id of the operation it belongs to.  Spans stay in memory and are
written out when the run ends.  With tracing off, ``Tracer.call`` is a
plain call and nothing is recorded.
"""

from __future__ import annotations

import time
from typing import Any, Callable


def now() -> float:
    """CLOCK_MONOTONIC in seconds: one clock for every process on the host,
    so a parent and its child processes can compare time stamps."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        if not self.enabled:
            return fn(*args)
        start = now()
        try:
            return fn(*args)
        finally:
            self.record(name, start, now())

    def record(self, name: str, start: float, end: float) -> None:
        if self.enabled:
            self.spans.append({"id": len(self.spans), "name": name, "start": start,
                               "end": end, "parent": None, "op": None})

    def close_op(self, op_id: str, start: float, end: float, first: int) -> None:
        """Record the span of one operation and adopt, as its children, the
        spans recorded since index ``first``."""
        if not self.enabled:
            return
        sid = len(self.spans)
        for s in self.spans[first:]:
            s["parent"], s["op"] = sid, op_id
        self.spans.append({"id": sid, "name": "op", "start": start, "end": end,
                           "parent": None, "op": op_id})


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time in seconds per span name: each span's duration minus
    the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    totals: dict[str, float] = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return totals
