"""Stats bridging: every layer's ad-hoc counters are live registry
cells, so public accessors and published ``__obs.`` views can never
disagree."""

import pytest

from repro.core.manager import ScopeManager
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import ScopeClient, ScopeServer, memory_pair
from repro.net import ShardStats, ShardedScopeManager
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.obs


def _wire_rig():
    loop = MainLoop()
    manager = ScopeManager(loop)
    scope = manager.scope_new("s", delay_ms=1e12)
    scope.signal_new(buffer_signal("pkts"))
    server = ScopeServer(loop, manager)
    near, far = memory_pair(loop.clock)
    state = server.add_client(far)
    client = ScopeClient(near, loop)
    return loop, manager, server, client, state


class TestServerBridge:
    def test_registry_reads_equal_totals_through_churn(self):
        loop, _, server, client, state = _wire_rig()
        reg = MetricsRegistry()
        server.register_metrics(reg)
        client.send_samples("pkts", [1.0, 2.0], [10.0, 20.0])
        loop.run_until(50.0)
        totals = server.totals()
        assert totals["accepted"] == 2
        snap = reg.snapshot()
        for key, value in totals.items():
            assert snap[f"server.{key}"]["value"] == value
        assert snap["server.sessions"]["value"] == 1.0
        # Force a protocol disconnect; the fold into retired must keep
        # the mounted cells equal to totals() with no re-registration.
        client.send_samples("__obs.evil", [3.0], [30.0])
        loop.run_until(100.0)
        assert not state.connected
        snap = reg.snapshot()
        for key, value in server.totals().items():
            assert snap[f"server.{key}"]["value"] == value
        assert snap["server.disconnects.protocol"]["value"] == 1
        assert snap["server.sessions"]["value"] == 0.0
        assert snap["server.retired_sessions"]["value"] == 1.0

    def test_query_ledger_bridged_through_server(self):
        loop, _, server, client, _ = _wire_rig()
        reg = MetricsRegistry()
        server.register_metrics(reg)
        client.subscribe("out = rate(pkts)")

        def feed(_lost):
            client.send_samples("pkts", [1.0], [loop.clock.now()])
            return True

        loop.timeout_add(10.0, feed)
        loop.run_until(300.0)
        stats = server.queries.stats()
        assert stats["queries_compiled"] == 1
        assert stats["samples_fanned"] > 0
        snap = reg.snapshot()
        assert snap["server.queries.queries_compiled"]["value"] == 1
        assert (
            snap["server.queries.samples_fanned"]["value"]
            == stats["samples_fanned"]
        )
        assert snap["server.queries.active"]["value"] == 1.0
        assert snap["server.queries.subscribers"]["value"] == 1.0


class TestClientBridge:
    def test_attributes_totals_and_registry_agree(self):
        loop, _, _, client, _ = _wire_rig()
        reg = MetricsRegistry()
        client.register_metrics(reg)
        client.send_samples("pkts", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        loop.run_until(50.0)
        assert client.sent == 3
        totals = client.totals()
        assert totals["sent"] == 3
        assert totals["sent_frames"] >= 1
        snap = reg.snapshot()
        assert snap["client.sent"]["value"] == 3
        assert snap["client.bytes_sent"]["value"] == client.bytes_sent > 0
        assert snap["client.backlog_frames"]["value"] == 0.0

    def test_legacy_attribute_assignment_still_works(self):
        loop, _, _, client, _ = _wire_rig()
        client.send_samples("pkts", [1.0], [1.0])
        loop.run_until(50.0)
        assert client.sent == 1
        client.sent = 0  # tests and tools reset counters in place
        assert client.sent == 0
        assert client.totals()["sent"] == 0


class TestWriterBridge:
    def test_counters_histogram_and_gauge(self, tmp_path):
        from repro.capture.writer import CaptureWriter

        writer = CaptureWriter(tmp_path / "cap", segment_samples=4)
        reg = MetricsRegistry()
        writer.register_metrics(reg)
        writer.on_push("pkts", [1.0, 2.0], [1.0, 2.0], 5.0)
        assert reg.snapshot()["capture.pending_samples"]["value"] == 2.0
        writer.flush_segment()
        writer.on_push("pkts", [3.0], [3.0], 6.0)
        writer.close()
        snap = reg.snapshot()
        assert snap["capture.samples_written"]["value"] == 3
        assert snap["capture.samples_written"]["value"] == writer.samples_written
        assert snap["capture.segments_written"]["value"] == writer.segments_written
        assert snap["capture.bytes_written"]["value"] == writer.bytes_written > 0
        # Flush latency is wall time: scrape-only, one observation per
        # segment flush.
        assert snap["capture.flush_ms"]["wall"] is True
        assert snap["capture.flush_ms"]["count"] == writer.segments_written
        assert snap["capture.pending_samples"]["value"] == 0.0


class TestShardBridge:
    def test_stats_cells_are_the_mounted_cells(self):
        stats = ShardStats()
        reg = MetricsRegistry()
        stats.register_metrics(reg, "shard0.")
        stats.offered += 5
        stats.accepted = 4
        assert reg.snapshot()["shard0.offered"]["value"] == 5
        assert reg.snapshot()["shard0.accepted"]["value"] == 4

    def test_fold_conserves_counters(self):
        a, b = ShardStats(), ShardStats()
        a.offered += 3
        b.offered += 2
        a.fold(b)
        assert a.offered == 5

    def test_sharded_manager_mount(self):
        sharded = ShardedScopeManager(shards=2)
        reg = MetricsRegistry()
        sharded.register_metrics(reg)
        sharded.push_samples("pkts", [1.0], [2.0])
        snap = reg.snapshot()
        offered = sum(
            snap[f"shard{i}.offered"]["value"] for i in range(2)
        )
        assert offered == sharded.totals()["offered"] == 1


class TestSupervisorBridge:
    def test_restart_remounts_fresh_cells(self, tmp_path):
        from repro.net import Router

        loop = MainLoop()

        def factory(manager, shard_id):
            scope = manager.scope_new(f"s{shard_id}", delay_ms=1e12)
            scope.signal_new(buffer_signal("pkts"))

        sup = Router(2, loop, wal_root=tmp_path, scope_factory=factory)
        reg = MetricsRegistry()
        sup.register_metrics(reg)
        home = sup.shard_of("pkts")
        sup.push_samples("pkts", [1.0], [2.0])
        assert reg.snapshot()[f"shard{home}.offered"]["value"] == 1
        sup.crash_shard(home)
        sup.restart_shard(home)
        # The replacement host carries fresh cells; the registry must
        # read them (replayed history included), not the dead ones.
        host = sup.handle_of(home)
        snap = reg.snapshot()
        assert snap[f"shard{home}.restarts"]["value"] == host.stats.restarts == 1
        assert snap[f"shard{home}.offered"]["value"] == host.stats.offered
        sup.push_samples("pkts", [2.0], [3.0])
        assert (
            reg.snapshot()[f"shard{home}.offered"]["value"]
            == host.stats.offered
        )
        sup.close()
