"""In-memory span recorder for the traced benchmark run.

Shims wrap the public callables at each layer boundary (instance or
module attributes set from the benchmark; the program's sources are not
edited).  Every call becomes a span with a name, a start, an end and the
index of the span that was open when it started (its parent).  A span's
*self time* is its duration minus the time its child spans cover, so
the self times of all spans inside a window add up to the part of that
window the trace explains (``trace.coverage``).

Aggregates (calls, self and total time, a per-name counter and the
longest single call) are kept for every span.  Full span records are
kept for the first :attr:`SpanRecorder.keep` spans only, so a long run
stays small; they are written out as Chrome trace-event JSON when the
run ends.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "count", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.count = 0
        self.max_s = 0.0


class SpanRecorder:
    """Collects nested spans from wrapped callables."""

    def __init__(self, keep: int = 200_000) -> None:
        self.keep = keep
        self.stats: Dict[str, _Stat] = {}
        self.spans: List[tuple] = []  # (name, start, end, index, parent index)
        self._started = 0
        # One frame per open span: [span index, time covered by children].
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    def stat(self, name: str) -> _Stat:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = _Stat()
        return s

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``count(args, result)`` (optional) returns a number added to the
        span's counter, e.g. the bytes a transport call moved.
        """
        stat = self.stat(name)
        stack = self._stack
        spans = self.spans
        keep = self.keep
        perf = time.perf_counter

        def traced(*args, **kwargs):
            index = self._started
            self._started = index + 1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_index = parent[0]
                else:
                    parent_index = -1
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if duration > stat.max_s:
                    stat.max_s = duration
                if len(spans) < keep:
                    spans.append((name, start, end, index, parent_index))
            if count is not None:
                stat.count += count(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its traced wrapper (undone by :meth:`unpatch`)."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(name, original, count))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def self_total(self) -> float:
        """Sum of self times over every span recorded so far."""
        return sum(s.self_s for s in self.stats.values())

    def summary(self) -> Dict[str, dict]:
        return {
            name: {
                "calls": s.calls,
                "self_s": s.self_s,
                "total_s": s.total_s,
                "count": s.count,
                "max_s": s.max_s,
            }
            for name, s in sorted(self.stats.items())
        }

    def write_chrome(self, path) -> None:
        """Write the kept spans as Chrome trace-event JSON (``chrome://tracing``)."""
        if not self.spans:
            events = []
        else:
            t0 = min(s[1] for s in self.spans)
            events = [
                {
                    "name": name,
                    "cat": name.rsplit(".", 1)[0],
                    "ph": "X",
                    "ts": (start - t0) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"span": index, "parent": parent},
                }
                for name, start, end, index, parent in self.spans
            ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
