"""The span hook: one process-wide tracer slot and a no-op default.

Instrumented modules at every layer (the manager here, the live query,
the router, the server and the query service above) mark their
per-batch work with a span:

    from repro.core import spans

    tracer = spans.tracer
    if tracer is not None:
        with tracer.span("deliver", signal=name, n=n):
            ...

The slot lives in the dependency-free core so that no module below
:mod:`repro.obs` ever imports it: :func:`repro.obs.trace.install_tracer`
fills the slot with a :class:`~repro.obs.trace.TraceCollector`, and
with nothing installed (the default, and always when ``REPRO_OBS=0``)
the cost of a span site is one attribute read and one ``is None``
test.  That is why spans sit on per-batch paths (ingest, route,
deliver, derive, fanout), never per-sample ones.
"""

from __future__ import annotations

#: The installed tracer (anything with ``span(name, **args)`` returning
#: a context manager), or None.  Written only by :func:`set_tracer`.
tracer = None


class _NullSpan:
    """Shared no-op span: what :func:`span` returns with no tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


def set_tracer(collector) -> None:
    """Fill (or, with None, empty) the process tracer slot."""
    global tracer
    tracer = collector


def current_tracer():
    return tracer


def span(name: str, **args):
    """Open a span on the installed tracer, or a shared no-op without one."""
    t = tracer
    if t is None:
        return NULL_SPAN
    return t.span(name, **args)
