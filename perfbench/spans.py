"""Outside-in span tracing: wrap public callables, time nested calls.

A :class:`Tracer` keeps, per span name, the call count, the total time
and the *self* time -- a span's duration minus the part of it that its
child spans cover -- in wall clock and in this thread's CPU time.  Spans
nest through a stack, so they must open and close in one thread, which
holds for every layer the benchmark wraps: the analysis pipeline runs in
one thread, and the server calls the wrapped functions synchronously
from its event loop.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    """Per-name counts, total and self time of nested spans."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        cpu_clock: Callable[[], int] = time.thread_time_ns,
    ):
        self.clock = clock
        self.cpu_clock = cpu_clock
        #: Open spans: [name, start, cpu_start, child_ns, child_cpu_ns].
        self._stack: List[list] = []
        #: name -> [count, total_ns, self_ns, cpu_ns, self_cpu_ns]
        self.spans: Dict[str, List[int]] = {}
        #: Counts read from return values (name -> sum).
        self.counts: Dict[str, float] = {}

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), self.cpu_clock(), 0, 0])

    def end(self) -> None:
        now, cpu_now = self.clock(), self.cpu_clock()
        name, start, cpu_start, child, child_cpu = self._stack.pop()
        dur, cpu = now - start, cpu_now - cpu_start
        row = self.spans.get(name)
        if row is None:
            row = self.spans[name] = [0, 0, 0, 0, 0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        row[3] += cpu
        row[4] += cpu - child_cpu
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent[4] += cpu

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a timed wrapper, where callers look it up.

        ``owner`` is a module (for a function its callers import at call
        time or read as a module global) or a class (for a method or
        classmethod).  ``on_result(tracer, value)`` may read counts off
        each return value.
        """
        raw = inspect.getattr_static(owner, attr)
        bound = isinstance(raw, (classmethod, staticmethod))
        target = getattr(owner, attr) if bound else raw

        def timed(*args, **kwargs):
            self.begin(name)
            try:
                value = target(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(self, value)
            return value

        setattr(owner, attr, staticmethod(timed) if bound else timed)

    def snapshot(self) -> dict:
        """Plain-data view: per-name count, seconds, self seconds, CPU."""
        return {
            "spans": {
                name: {
                    "count": row[0],
                    "total_s": row[1] / 1e9,
                    "self_s": row[2] / 1e9,
                    "cpu_s": row[3] / 1e9,
                    "self_cpu_s": row[4] / 1e9,
                }
                for name, row in self.spans.items()
            },
            "counts": dict(self.counts),
        }


def diff(after: dict, before: dict) -> dict:
    """Span and count deltas between two :meth:`Tracer.snapshot` views."""
    spans = {}
    for name, row in after["spans"].items():
        base = before["spans"].get(name, {})
        spans[name] = {k: v - base.get(k, 0) for k, v in row.items()}
    counts = {k: v - before["counts"].get(k, 0) for k, v in after["counts"].items()}
    return {"spans": spans, "counts": counts}
