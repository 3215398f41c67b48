"""Metric cells and the obs plane's reserved namespace.

These are plain data holders with no policy attached — the
self-instrumentation plane (:mod:`repro.obs`) mounts them into a
registry and publishes them, but the cells themselves live here, in
the dependency-free core, because bridged subsystem statistics
(:class:`~repro.net.shard.ShardStats` and friends) are **load-bearing
public API**: they must keep counting even in a build where
``repro.obs`` is never imported.  For the same reason the reserved
``__obs.`` prefix is defined here, once: every layer that checks a
name against it imports it from core, and :mod:`repro.obs` sits above
core, never below it.

Hot-path contract: ``Counter.inc`` is one Python integer add on a
``__slots__`` cell; ``Gauge.set`` one float store.  ``Histogram.observe``
is a ``searchsorted`` over a small bounds array — per-batch/per-flush
cost, keep it off per-sample paths.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

DEFAULT_BOUNDS = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0)

#: Reserved signal-name prefix for self-instrumentation samples.  User
#: pushes into this namespace are rejected at every ingest boundary.
OBS_PREFIX = "__obs."


def is_reserved(name: str) -> bool:
    """True when ``name`` lives in the reserved ``__obs.`` namespace."""
    return name.startswith(OBS_PREFIX)


class Counter:
    """Monotonic event count.  ``inc()`` is one integer add."""

    __slots__ = ("name", "value", "wall")

    kind = "counter"

    def __init__(self, name: str = "", wall: bool = False) -> None:
        self.name = name
        self.value = 0
        self.wall = wall

    def inc(self, n: int = 1) -> None:
        self.value += n

    def read(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """Point-in-time level: set directly or computed by a callback.

    A callback gauge (``Gauge(fn=...)``) is evaluated at read/publish
    time, so mounting one costs the instrumented object nothing until
    somebody actually looks.
    """

    __slots__ = ("name", "value", "fn", "wall")

    kind = "gauge"

    def __init__(
        self,
        name: str = "",
        fn: Optional[Callable[[], float]] = None,
        wall: bool = False,
    ) -> None:
        self.name = name
        self.value = 0.0
        self.fn = fn
        self.wall = wall

    def set(self, value: float) -> None:
        self.value = float(value)

    def read(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.read()})"


class Histogram:
    """Fixed-bound histogram with numpy bucket counts.

    Publishes as two counter-like series, ``<name>.count`` and
    ``<name>.sum``; full bucket counts are available via registry
    snapshots for ``repro top``.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "sum", "wall")

    kind = "histogram"

    def __init__(
        self,
        name: str = "",
        bounds: Tuple[float, ...] = DEFAULT_BOUNDS,
        wall: bool = False,
    ) -> None:
        self.name = name
        self.bounds = np.asarray(bounds, dtype=np.float64)
        if self.bounds.ndim != 1 or len(self.bounds) == 0:
            raise ValueError("histogram bounds must be a non-empty 1-D sequence")
        if np.any(np.diff(self.bounds) <= 0):
            raise ValueError("histogram bounds must be strictly increasing")
        # One overflow bucket past the last bound.
        self.buckets = np.zeros(len(self.bounds) + 1, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.wall = wall

    def observe(self, value: float) -> None:
        self.buckets[int(np.searchsorted(self.bounds, value))] += 1
        self.count += 1
        self.sum += value

    def read(self) -> float:
        return float(self.count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count}, sum={self.sum})"


class _NullInstrument:
    """Shared no-op stand-in for every cell kind.

    Disabled-instrumentation sites bind to this singleton so the cost
    of an instrumented line is one no-op method call — and hot loops
    that gate on ``cell is NULL`` pay only a pointer compare.
    """

    __slots__ = ()

    kind = "null"
    name = ""
    wall = False
    value = 0
    count = 0
    sum = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def read(self) -> float:
        return 0.0


NULL = _NullInstrument()


def cell_property(field: str) -> property:
    """Plain-attribute façade over ``self._cells[field]``, a counter cell.

    Classes keeping their counters in a ``_cells`` dict expose each one
    as an ordinary int attribute (read, assign, ``+=``), so the public
    accessors and a registry mount share one source of truth.
    """

    def fget(self) -> int:
        return self._cells[field].value

    def fset(self, value: int) -> None:
        self._cells[field].value = value

    return property(fget, fset, doc=f"counter cell {field!r}")
