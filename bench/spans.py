"""In-memory spans around the benchmark's calls into listlab, and self time.

A span records one call: its name (``module.function``), start and end on
``time.perf_counter``, the span that was open around it (its parent), the
workload item it served, and how many units of work the call did (requests,
events, states...).  Spans stay in memory and are written out once, when the
run ends.  The untraced run uses ``NullTracer``, whose spans cost one method
call and record nothing.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: str
    n: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one open span; set ``n`` to the work it did."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    @property
    def n(self) -> int:
        return self.span.n

    @n.setter
    def n(self, value: int) -> None:
        self.span.n = value

    def __enter__(self) -> "_Open":
        self.tracer._stack().append(self.span.id)
        self.span.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack().pop()


class Tracer:
    """Records spans; parents follow the per-thread stack of open spans.

    A worker thread starts with an empty stack, so spans opened in it name
    their parent explicitly through ``parent=``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, item: str, parent: Optional[int] = None) -> _Open:
        if parent is None:
            parent = self.current()
        sp = Span(next(self._ids), name, 0.0, 0.0, parent, item)
        self.spans.append(sp)
        return _Open(self, sp)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps([s.id, s.name, s.start, s.end, s.parent,
                                    s.item, s.n]) + "\n")


class _NullOpen:
    __slots__ = ("n",)

    def __enter__(self) -> "_NullOpen":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_OPEN = _NullOpen()


class NullTracer:
    """Same interface as Tracer; records nothing."""

    def current(self) -> None:
        return None

    def span(self, name: str, item: str, parent: Optional[int] = None) -> _NullOpen:
        return _NULL_OPEN


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children of one span may overlap (worker threads), so the covered time
    is the union of their intervals, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }
