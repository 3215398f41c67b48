"""Near-zero-overhead metric cells and the ``__obs.`` publisher.

Design constraints, in order:

1. **Hot-path cost.**  A counter bump is one Python integer add on a
   ``__slots__`` cell — no locks (single-loop model), no dict lookup,
   no clock read.  Instrumented modules hold direct cell references;
   the registry is only consulted at mount time and on publish.
2. **Determinism.**  Everything the publisher emits is keyed on the
   *loop clock* (usually a :class:`~repro.eventloop.clock.VirtualClock`),
   so two identical virtual-time runs publish byte-identical ``__obs.``
   columns.  Instruments measuring real wall time (slow callbacks,
   flush latency) are created with ``wall=True`` and are **never
   published** — they are scrape-only via :meth:`MetricsRegistry.snapshot`
   and ``python -m repro top``.
3. **Absence is free.**  ``REPRO_OBS=0`` turns :func:`enabled` off:
   publishers arm no timer and emit nothing, so the primary-signal
   output is byte-identical to a build where this module was never
   imported.  Bridged stats cells (the ones behind existing public
   accessors like ``totals()``) are always live regardless — they are
   load-bearing API, not optional telemetry.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

# Cell classes and the reserved prefix live in the dependency-free core
# (bridged subsystem stats must work even when this package is never
# imported); the registry, publisher and enablement policy live here.
from repro.core.cells import DEFAULT_BOUNDS as _DEFAULT_BOUNDS
from repro.core.cells import (
    NULL,
    OBS_PREFIX,
    Counter,
    Gauge,
    Histogram,
    is_reserved,
)


def enabled() -> bool:
    """True unless the environment opts out with ``REPRO_OBS=0``.

    Read per call (cheap: one dict get) so tests can flip the switch
    without re-importing; hot paths never call this — they are gated by
    object identity (``self._obs is not None``) or cell references
    resolved once at construction time.
    """
    return os.environ.get("REPRO_OBS", "1") not in ("0", "false", "no")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Name → cell mount table with get-or-create factories.

    Names here carry **no** ``__obs.`` prefix — the publisher prepends
    it on the wire, so one registry can serve several publishers (or a
    plain :meth:`snapshot` scrape) without baking routing into names.
    """

    #: Whether the obs plane is on; asked by sources (the event loop)
    #: that mount instruments without importing this package.
    enabled = staticmethod(enabled)

    def __init__(self) -> None:
        self._cells: Dict[str, object] = {}

    # -- mounting ------------------------------------------------------
    def mount(self, name: str, cell) -> None:
        """Mount an existing cell (the bridged-stats path).

        Re-mounting the same cell under the same name is a no-op;
        mounting a *different* cell under a taken name is an error.
        """
        if is_reserved(name):
            raise ValueError(
                f"registry names must not carry the {OBS_PREFIX!r} prefix "
                f"(the publisher adds it): {name!r}"
            )
        existing = self._cells.get(name)
        if existing is cell:
            return
        if existing is not None:
            raise ValueError(f"metric name already mounted: {name!r}")
        self._cells[name] = cell
        if getattr(cell, "name", "") == "":
            cell.name = name

    def unmount(self, name: str) -> None:
        self._cells.pop(name, None)

    def unmount_prefix(self, prefix: str) -> None:
        """Drop every mount under ``prefix`` (object-teardown hook)."""
        for name in [n for n in self._cells if n.startswith(prefix)]:
            del self._cells[name]

    # -- get-or-create factories ---------------------------------------
    def counter(self, name: str, wall: bool = False) -> Counter:
        return self._get_or_create(name, Counter, wall=wall)

    def gauge(
        self,
        name: str,
        fn: Optional[Callable[[], float]] = None,
        wall: bool = False,
    ) -> Gauge:
        cell = self._get_or_create(name, Gauge, fn=fn, wall=wall)
        if fn is not None:
            cell.fn = fn
        return cell

    def histogram(
        self,
        name: str,
        bounds: Tuple[float, ...] = _DEFAULT_BOUNDS,
        wall: bool = False,
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds=bounds, wall=wall)

    def _get_or_create(self, name: str, cls, **kwargs):
        cell = self._cells.get(name)
        if cell is not None:
            if not isinstance(cell, cls):
                raise ValueError(
                    f"metric {name!r} already mounted as {type(cell).__name__}, "
                    f"not {cls.__name__}"
                )
            return cell
        cell = cls(name=name, **kwargs)
        self._cells[name] = cell
        return cell

    # -- introspection -------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, name: str):
        return self._cells.get(name)

    def names(self) -> List[str]:
        return sorted(self._cells)

    def snapshot(self) -> Dict[str, dict]:
        """Full point-in-time reading of every cell (wall ones included).

        This is the scrape interface behind ``repro top``; the publisher
        uses its own delta state instead.
        """
        out: Dict[str, dict] = {}
        for name in sorted(self._cells):
            cell = self._cells[name]
            entry = {"kind": cell.kind, "value": cell.read(), "wall": cell.wall}
            if isinstance(cell, Histogram):
                entry["count"] = cell.count
                entry["sum"] = cell.sum
                entry["bounds"] = [float(b) for b in cell.bounds]
                entry["buckets"] = [int(b) for b in cell.buckets]
            out[name] = entry
        return out


# ----------------------------------------------------------------------
# Publisher
# ----------------------------------------------------------------------
class MetricsPublisher:
    """Event-loop source pushing instrument deltas as ``__obs.`` samples.

    Every ``period_ms`` (on the sink manager's own loop clock) the
    registry is walked in sorted-name order and each *changed*
    deterministic instrument emits one columnar sample into ``sink``:

    * counters (and histogram ``.count``/``.sum``) publish the **delta**
      since the previous tick, suppressed when zero;
    * gauges publish their current value, suppressed when unchanged
      since the last emission (first reading always emits).

    The sink is anything ``push_samples``-capable; when it exposes
    ``push_obs`` (the trusted internal entry that skips the reserved-
    namespace rejection) that is used instead.  Because these are
    ordinary columnar pushes, capture taps, live queries and GUI plots
    see internal telemetry with zero new code in those layers.

    With :func:`enabled` false at construction the publisher is inert:
    no timer source, no samples, ever.
    """

    def __init__(
        self,
        loop,
        sink,
        registry: MetricsRegistry,
        period_ms: float = 100.0,
        prefix: str = OBS_PREFIX,
    ) -> None:
        if period_ms <= 0:
            raise ValueError(f"period_ms must be positive: {period_ms}")
        self.loop = loop
        self.sink = sink
        self.registry = registry
        self.period_ms = float(period_ms)
        self.prefix = prefix
        self.samples_published = 0
        self.ticks = 0
        self._last: Dict[str, float] = {}
        self._push = getattr(sink, "push_obs", None) or sink.push_samples
        self._source_id: Optional[int] = None
        if enabled():
            self._source_id = loop.timeout_add(self.period_ms, self._on_tick)

    @property
    def active(self) -> bool:
        return self._source_id is not None

    def _on_tick(self, lost: int = 0) -> bool:
        self.publish(self.loop.clock.now())
        return True

    def publish(self, now: float) -> int:
        """Walk the registry once, pushing changed readings stamped ``now``.

        Callable directly for a final flush before teardown; returns the
        number of samples pushed.
        """
        self.ticks += 1
        pushed = 0
        last = self._last
        cells = self.registry._cells
        for name in sorted(cells):
            cell = cells[name]
            if cell.wall:
                continue  # wall-time readings would break bit-replay
            kind = cell.kind
            if kind == "counter":
                total = float(cell.value)
                delta = total - last.get(name, 0.0)
                if delta != 0.0:
                    last[name] = total
                    self._push(self.prefix + name, (now,), (delta,))
                    pushed += 1
            elif kind == "gauge":
                value = cell.read()
                if last.get(name) != value:
                    last[name] = value
                    self._push(self.prefix + name, (now,), (value,))
                    pushed += 1
            elif kind == "histogram":
                for suffix, total in ((".count", float(cell.count)), (".sum", cell.sum)):
                    key = name + suffix
                    delta = total - last.get(key, 0.0)
                    if delta != 0.0:
                        last[key] = total
                        self._push(self.prefix + key, (now,), (delta,))
                        pushed += 1
        self.samples_published += pushed
        return pushed

    def close(self) -> None:
        """Disarm the timer; a closed publisher can still ``publish()``."""
        if self._source_id is not None:
            self.loop.remove(self._source_id)
            self._source_id = None
