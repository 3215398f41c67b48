"""Span tracing on virtual time with Chrome trace-event export.

A :class:`TraceCollector` records nested spans — ``(name, t0, t1,
depth, args)`` — into a bounded ring buffer, timestamped from whatever
clock it was built with.  On a
:class:`~repro.eventloop.clock.VirtualClock` two identical runs
produce identical spans, so traces are replayable evidence, not
one-shot luck.

Instrumented modules never import this one: they open spans through
the tracer slot in :mod:`repro.core.spans`, which :func:`install_tracer`
fills.  With no tracer installed (the default, and always when
``REPRO_OBS=0``) a span site costs one attribute read and one
``is None`` test.

Export is Chrome's trace-event JSON (``chrome://tracing`` /
https://ui.perfetto.dev): complete events (``ph: "X"``) with
microsecond timestamps derived from the millisecond clock.
"""

from __future__ import annotations

import json
from typing import List, Optional

# NULL_SPAN, current_tracer and span are re-exported: the hook is core's.
from repro.core.spans import NULL_SPAN, current_tracer, set_tracer, span  # noqa: F401
from repro.obs.metrics import enabled


class Span:
    """One finished span.  Times are clock milliseconds."""

    __slots__ = ("name", "t0", "t1", "depth", "args")

    def __init__(self, name: str, t0: float, t1: float, depth: int, args: dict) -> None:
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.depth = depth
        self.args = args

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.t0}..{self.t1}, depth={self.depth})"


class _SpanHandle:
    """Context manager closing one open span on a collector."""

    __slots__ = ("_collector",)

    def __init__(self, collector: "TraceCollector") -> None:
        self._collector = collector

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._collector.end()


class TraceCollector:
    """Bounded ring buffer of finished spans, nested via an open stack.

    ``capacity`` bounds *finished* spans: when full, the oldest is
    dropped (and counted) — tracing must never grow without bound
    inside a long-lived telemetry process.
    """

    def __init__(self, clock, capacity: int = 1 << 14) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.clock = clock
        self.capacity = int(capacity)
        self._ring: List[Optional[Span]] = [None] * self.capacity
        self._head = 0  # next write slot
        self._size = 0
        self._stack: List[tuple] = []
        self.started = 0
        self.finished = 0
        self.dropped = 0

    # -- recording -----------------------------------------------------
    def begin(self, name: str, **args) -> None:
        self.started += 1
        self._stack.append((name, self.clock.now(), args))

    def end(self) -> None:
        name, t0, args = self._stack.pop()
        span = Span(name, t0, self.clock.now(), len(self._stack), args)
        if self._size == self.capacity:
            self.dropped += 1
        else:
            self._size += 1
        self._ring[self._head] = span
        self._head = (self._head + 1) % self.capacity
        self.finished += 1

    def span(self, name: str, **args) -> _SpanHandle:
        self.begin(name, **args)
        return _SpanHandle(self)

    # -- reading -------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def spans(self) -> List[Span]:
        """Finished spans, oldest first."""
        if self._size < self.capacity:
            return [s for s in self._ring[: self._size]]
        ordered = self._ring[self._head :] + self._ring[: self._head]
        return [s for s in ordered if s is not None]

    def clear(self) -> None:
        self._ring = [None] * self.capacity
        self._head = 0
        self._size = 0
        self._stack.clear()

    # -- export --------------------------------------------------------
    def to_chrome(self) -> List[dict]:
        """Spans as Chrome trace-event dicts (``ph: "X"``, µs times)."""
        events = []
        for span in sorted(self.spans(), key=lambda s: (s.t0, s.depth)):
            event = {
                "name": span.name,
                "ph": "X",
                "ts": span.t0 * 1000.0,
                "dur": (span.t1 - span.t0) * 1000.0,
                "pid": 0,
                "tid": 0,
            }
            if span.args:
                event["args"] = dict(span.args)
            events.append(event)
        return events

    def chrome_json(self) -> str:
        return json.dumps(
            {"traceEvents": self.to_chrome(), "displayTimeUnit": "ms"},
            sort_keys=True,
        )


def install_tracer(collector: TraceCollector) -> bool:
    """Make ``collector`` the process tracer; False when obs is disabled."""
    if not enabled():
        return False
    set_tracer(collector)
    return True


def uninstall_tracer() -> None:
    set_tracer(None)
