"""The ``__obs.`` namespace boundary: user pushes rejected everywhere,
trusted ``push_obs`` delivers, queries may read but never define."""

import pytest

from repro.core.cells import OBS_PREFIX
from repro.core.manager import ScopeManager
from repro.core.scope import ScopeError
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import ShardedScopeManager
from repro.query import QueryError, compile_query
from repro.query.errors import QueryCompileError

pytestmark = pytest.mark.obs


def _manager():
    loop = MainLoop()
    manager = ScopeManager(loop)
    scope = manager.scope_new("s", delay_ms=1e12)
    scope.signal_new(buffer_signal("pkts"))
    scope.signal_new(buffer_signal(OBS_PREFIX + "hits"))
    return loop, manager, scope


class TestManagerBoundary:
    def test_push_samples_rejects_reserved(self):
        _, manager, _ = _manager()
        with pytest.raises(ScopeError, match="reserved"):
            manager.push_samples(OBS_PREFIX + "hits", [1.0], [2.0])

    def test_push_sample_rejects_reserved(self):
        _, manager, _ = _manager()
        with pytest.raises(ScopeError, match="reserved"):
            manager.push_sample(OBS_PREFIX + "hits", 1.0, 2.0)

    def test_push_obs_delivers(self):
        _, manager, scope = _manager()
        accepted = manager.push_obs(OBS_PREFIX + "hits", [1.0], [2.0])
        assert accepted == 1

    def test_ordinary_names_unaffected(self):
        _, manager, _ = _manager()
        assert manager.push_samples("pkts", [1.0], [2.0]) == 1

    def test_taps_see_obs_pushes(self):
        _, manager, _ = _manager()
        seen = []
        manager.add_tap(lambda name, t, v, now: seen.append(name))
        manager.push_obs(OBS_PREFIX + "hits", [1.0], [2.0])
        assert seen == [OBS_PREFIX + "hits"]


class TestShardedBoundary:
    def test_sharded_push_samples_rejects(self):
        sharded = ShardedScopeManager(shards=2)
        with pytest.raises(ScopeError, match="reserved"):
            sharded.push_samples(OBS_PREFIX + "x", [1.0], [2.0])

    def test_sharded_push_obs_routes(self):
        sharded = ShardedScopeManager(shards=2)
        # No scope carries the name: delivered (to nobody), not rejected.
        assert sharded.push_obs(OBS_PREFIX + "x", [1.0], [2.0]) == 0
        assert sharded.totals()["offered"] == 1

    def test_ordinary_push_still_counts(self):
        sharded = ShardedScopeManager(shards=2)
        sharded.push_samples("pkts", [1.0], [2.0])
        assert sharded.totals()["offered"] == 1


class TestSupervisorBoundary:
    def test_supervisor_rejects_before_wal(self, tmp_path):
        from repro.net import Router

        loop = MainLoop()

        def factory(manager, shard_id):
            scope = manager.scope_new(f"s{shard_id}", delay_ms=1e12)
            scope.signal_new(buffer_signal("pkts"))

        sup = Router(
            1, loop, wal_root=tmp_path, scope_factory=factory
        )
        with pytest.raises(ScopeError, match="reserved"):
            sup.push_samples(OBS_PREFIX + "x", [1.0], [2.0])
        # Nothing durable was written for the rejected push.
        wal_files = [
            p for p in tmp_path.rglob("*") if p.is_file() and p.stat().st_size
        ]
        assert sup.push_samples("pkts", [1.0], [2.0]) == 1
        wal_files_after = [
            p for p in tmp_path.rglob("*") if p.is_file() and p.stat().st_size
        ]
        assert len(wal_files_after) >= len(wal_files)
        sup.close()

    def test_supervisor_push_obs_skips_wal(self, tmp_path):
        from repro.net import Router

        loop = MainLoop()

        def factory(manager, shard_id):
            scope = manager.scope_new(f"s{shard_id}", delay_ms=1e12)
            scope.signal_new(buffer_signal(OBS_PREFIX + "hits"))

        sup = Router(1, loop, wal_root=tmp_path, scope_factory=factory)
        assert sup.push_obs(OBS_PREFIX + "hits", [1.0], [2.0]) == 1
        sup.close()


class TestServerBoundary:
    def test_reserved_push_disconnects_session(self):
        from repro.net import ScopeClient, ScopeServer, memory_pair

        loop, manager, _ = _manager()
        server = ScopeServer(loop, manager)
        near, far = memory_pair(loop.clock)
        state = server.add_client(far)
        client = ScopeClient(near, loop)
        client.send_samples("pkts", [2.0], [1.0])
        loop.run_until(50.0)
        assert state.connected
        client.send_samples(OBS_PREFIX + "hits", [2.0], [1.0])
        loop.run_until(100.0)
        assert not state.connected
        assert state.disconnect_reason == "protocol"
        # The ordinary sample before the violation still counted.
        assert server.totals()["accepted"] == 1


class TestQueryBoundary:
    def test_defining_reserved_output_rejected(self):
        with pytest.raises(QueryCompileError, match="reserved"):
            compile_query("__obs.rate = rate(pkts)")

    def test_default_name_into_reserved_rejected(self):
        from repro.query.compile import compile_query as cq

        with pytest.raises(QueryError, match="reserved"):
            cq("rate(pkts)", default_name="__obs.derived")

    def test_reading_reserved_sources_allowed(self):
        plan = compile_query("drop_rate = rate(__obs.shard0.dropped_late)")
        assert plan.source_names == ["__obs.shard0.dropped_late"]
        assert plan.output_names == ["drop_rate"]

    def test_live_query_over_obs_cannot_feed_back(self):
        """A derived view over __obs.* emits under a plain name — the
        compile-time rejection means no query output can ever land back
        in the reserved namespace and recurse through the publisher."""
        from repro.query import LiveQuery

        _, manager, scope = _manager()
        scope.signal_new(buffer_signal("hit_rate"))
        live = LiveQuery(compile_query("hit_rate = rate(__obs.hits)"), manager)
        outputs = []
        live.on_output(lambda name, t, v: outputs.append(name))
        manager.push_obs("__obs.hits", [0.0, 1000.0], [1.0, 3.0])
        assert outputs == ["hit_rate"]
        assert live.error is None
