"""Self-instrumentation plane: the scope observing itself.

The system's own health — shard backpressure, WAL replay, query
fan-out, reconnect storms, event-loop lag — is published as ordinary
columnar samples under the reserved ``__obs.`` namespace, so every
existing layer (capture store, query engine, live subscriptions, the
ASCII GUI) works on internal telemetry with zero new code.

Two modules:

* :mod:`repro.obs.metrics` — counter/gauge/histogram cells, a
  :class:`~repro.obs.metrics.MetricsRegistry` mounting them by name,
  and a :class:`~repro.obs.metrics.MetricsPublisher` event-loop source
  that periodically pushes instrument deltas into any
  ``push_samples``-capable sink.
* :mod:`repro.obs.trace` — span tracing on virtual time with a
  ring-buffer collector and Chrome ``chrome://tracing`` JSON export.

Layering: this package sits above :mod:`repro.core` and imports only
core from the rest of ``repro``.  Nothing below it imports it.  The
pieces that instrumented modules need — the metric cells and the
reserved ``__obs.`` prefix (:mod:`repro.core.cells`) and the tracer
slot (:mod:`repro.core.spans`) — live in core.  This package fills
them: :func:`install_tracer` fills the tracer slot, and a registry
mounts the cells.  So the whole plane can be absent (``REPRO_OBS=0``,
or the package never imported) without changing a single
primary-signal byte, and bridged subsystem statistics stay live
either way.
"""

from repro.obs.metrics import (
    OBS_PREFIX,
    Counter,
    Gauge,
    Histogram,
    MetricsPublisher,
    MetricsRegistry,
    enabled,
    is_reserved,
)
from repro.obs.trace import TraceCollector, install_tracer, span, uninstall_tracer

__all__ = [
    "OBS_PREFIX",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsPublisher",
    "MetricsRegistry",
    "TraceCollector",
    "enabled",
    "install_tracer",
    "is_reserved",
    "span",
    "uninstall_tracer",
]
