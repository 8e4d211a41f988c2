"""In-memory spans for the traced benchmark run.

Spans are recorded by the benchmark's own code around calls into the package's
public functions; nothing inside the package is instrumented.  A span's self
time is its duration minus the part of its interval that its child spans
cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    item: str


class Tracer:
    """Nested spans and exact counters, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.item = ""
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), 0.0, parent, self.item))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self._clock()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def self_time_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span.name] = out.get(span.name, 0.0) + own
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            c_lo, c_hi = max(child.start, span.start), min(child.end, span.end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append(span.end - span.start - covered)
    return out
