"""Unit tests for virtual-time span tracing and the Chrome export."""

import json

import pytest

from repro.eventloop.clock import VirtualClock
from repro.obs.trace import (
    NULL_SPAN,
    TraceCollector,
    current_tracer,
    install_tracer,
    span,
    uninstall_tracer,
)

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    uninstall_tracer()


class _Clock:
    """Manually stepped clock (the VirtualClock surface spans need)."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


class TestCollector:
    def test_span_records_virtual_times(self):
        clock = _Clock()
        col = TraceCollector(clock)
        with col.span("ingest", signal="pkts"):
            clock.t = 5.0
        spans = col.spans()
        assert len(spans) == 1
        assert spans[0].name == "ingest"
        assert spans[0].t0 == 0.0
        assert spans[0].t1 == 5.0
        assert spans[0].duration == 5.0
        assert spans[0].args == {"signal": "pkts"}

    def test_nesting_depth(self):
        clock = _Clock()
        col = TraceCollector(clock)
        with col.span("outer"):
            with col.span("inner"):
                pass
        by_name = {s.name: s for s in col.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_ring_drops_oldest(self):
        clock = _Clock()
        col = TraceCollector(clock, capacity=4)
        for i in range(10):
            with col.span(f"s{i}"):
                pass
        assert col.dropped == 6
        assert [s.name for s in col.spans()] == ["s6", "s7", "s8", "s9"]
        assert col.finished == 10

    def test_clear(self):
        col = TraceCollector(_Clock(), capacity=4)
        with col.span("a"):
            pass
        col.clear()
        assert col.spans() == []

    def test_works_with_virtual_clock(self):
        clock = VirtualClock()
        col = TraceCollector(clock)
        with col.span("x"):
            pass
        assert col.spans()[0].t0 == clock.now()


class TestChromeExport:
    def test_complete_events_in_microseconds(self):
        clock = _Clock()
        col = TraceCollector(clock)
        with col.span("ingest", n=3):
            clock.t = 2.5
        payload = json.loads(col.chrome_json())
        assert payload["displayTimeUnit"] == "ms"
        (event,) = payload["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "ingest"
        assert event["ts"] == 0.0
        assert event["dur"] == 2500.0  # 2.5 ms in µs
        assert event["args"] == {"n": 3}

    def test_events_sorted_by_start_then_depth(self):
        clock = _Clock()
        col = TraceCollector(clock)
        with col.span("outer"):
            with col.span("inner"):
                clock.t = 1.0
            clock.t = 2.0
        events = json.loads(col.chrome_json())["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "inner"]


class TestModuleTracer:
    def test_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        handle = span("anything")
        assert handle is NULL_SPAN
        with handle:
            pass  # must not raise

    def test_install_routes_spans(self):
        col = TraceCollector(_Clock())
        assert install_tracer(col)
        with span("routed", k=1):
            pass
        assert [s.name for s in col.spans()] == ["routed"]
        uninstall_tracer()
        with span("after"):
            pass
        assert len(col.spans()) == 1  # nothing new

    def test_install_refused_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        assert not install_tracer(TraceCollector(_Clock()))
        assert current_tracer() is None


class TestPipelineSpans:
    def test_wire_pipeline_emits_nested_spans(self):
        """ingest → deliver → derive → fanout, all on virtual time."""
        from repro.core.manager import ScopeManager
        from repro.core.signal import buffer_signal
        from repro.eventloop.loop import MainLoop
        from repro.net import ScopeClient, ScopeServer, memory_pair

        loop = MainLoop()
        col = TraceCollector(loop.clock)
        assert install_tracer(col)
        manager = ScopeManager(loop)
        scope = manager.scope_new("s", delay_ms=1e12)
        scope.signal_new(buffer_signal("pkts"))
        server = ScopeServer(loop, manager)
        near, far = memory_pair(loop.clock)
        server.add_client(far)
        client = ScopeClient(near, loop)
        client.subscribe("out = rate(pkts)")

        def feed(_lost):
            now = loop.clock.now()
            client.send_samples("pkts", [1.0], [now])
            return True

        loop.timeout_add(10.0, feed)
        loop.run_until(500.0)
        names = {s.name for s in col.spans()}
        assert {"ingest", "deliver", "derive", "fanout"} <= names
        ingest = next(s for s in col.spans() if s.name == "ingest")
        deliver = next(s for s in col.spans() if s.name == "deliver")
        assert ingest.depth == 0
        assert deliver.depth >= 1  # nested inside the server's ingest

    def test_route_span_in_sharded_path(self):
        from repro.eventloop.loop import MainLoop
        from repro.net import ShardedScopeManager

        loop = MainLoop()
        col = TraceCollector(loop.clock)
        assert install_tracer(col)
        sharded = ShardedScopeManager(shards=2, loop=loop)
        sharded.push_samples("pkts", [1.0], [2.0])
        names = [s.name for s in col.spans()]
        assert "route" in names
        assert "deliver" in names
