"""Tests for the sharded fan-in layer (`repro.net.shard`)."""

import pytest

from repro.core.manager import ScopeManager
from repro.core.scope import ScopeError
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import ScopeClient, ScopeServer, ShardedScopeManager, memory_pair, shard_of


class TestRouting:
    def test_hash_is_stable_and_process_independent(self):
        # BLAKE2 ring, not Python's salted hash: same name → same shard
        # on every run and every host.  Golden assignments are frozen
        # here so an accidental change to the ring hash or replica
        # layout (which would silently remap every recorded namespace)
        # fails loudly.
        golden = {"throughput": 1, "latency": 3, "cpu": 3, "mem": 2, "disk": 1}
        assert {name: shard_of(name, 4) for name in golden} == golden

    def test_all_shards_reachable(self):
        hits = {shard_of(f"sig{i}", 4) for i in range(200)}
        assert hits == {0, 1, 2, 3}

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_of("x", 0)

    def test_scope_placed_on_home_shard(self):
        sharded = ShardedScopeManager(shards=4)
        scope = sharded.scope_new("alpha", period_ms=50)
        home = sharded.shard_of("alpha")
        assert scope in sharded.managers[home].scopes
        assert "alpha" in sharded
        assert len(sharded) == 1

    def test_explicit_shard_override(self):
        sharded = ShardedScopeManager(shards=4)
        sharded.scope_new("alpha", shard=2, period_ms=50)
        assert "alpha" in sharded.managers[2]

    def test_scope_lookup_searches_all_shards(self):
        sharded = ShardedScopeManager(shards=3)
        sharded.scope_new("a", period_ms=50)
        sharded.scope_new("b", period_ms=50)
        assert sharded.scope("a").name == "a"
        with pytest.raises(ScopeError):
            sharded.scope("ghost")

    def test_scope_remove(self):
        sharded = ShardedScopeManager(shards=3)
        sharded.scope_new("a", period_ms=50)
        sharded.scope_remove("a")
        assert "a" not in sharded
        with pytest.raises(ScopeError):
            sharded.scope_remove("a")


class TestPushRouting:
    def make_sharded(self, shards=4, delay_ms=100_000.0):
        loop = MainLoop()
        sharded = ShardedScopeManager(shards=shards, loop=loop)
        return loop, sharded

    def test_push_lands_on_home_shard_scope(self):
        loop, sharded = self.make_sharded()
        name = "metric"
        home = sharded.shard_of(name)
        scope = sharded.scope_new("display", shard=home, period_ms=50, delay_ms=1000)
        scope.signal_new(buffer_signal(name))
        now = loop.clock.now()
        accepted = sharded.push_samples(name, [now, now], [1.0, 2.0])
        assert accepted == 2
        assert len(scope.buffer) == 2

    def test_foreign_shard_scope_does_not_receive(self):
        loop, sharded = self.make_sharded()
        name = "metric"
        foreign = (sharded.shard_of(name) + 1) % sharded.n_shards
        scope = sharded.scope_new("display", shard=foreign, period_ms=50, delay_ms=1000)
        scope.signal_new(buffer_signal(name))
        accepted = sharded.push_samples(name, [loop.clock.now()], [1.0])
        assert accepted == 0  # home shard has no carrier; by-design partition
        assert len(scope.buffer) == 0

    def test_backpressure_counters_track_late_drops(self):
        loop, sharded = self.make_sharded()
        name = "metric"
        home = sharded.shard_of(name)
        scope = sharded.scope_new("display", shard=home, period_ms=50, delay_ms=100)
        scope.signal_new(buffer_signal(name))
        now = loop.clock.now() + 1000.0
        self_advance = loop.run_for(1000)  # advance clock so stale stamps are late
        sharded.push_samples(name, [now - 900.0, now, now], [1.0, 2.0, 3.0])
        stats = sharded.shard_stats()[home]
        assert stats.offered == 3
        assert stats.accepted == 2
        assert stats.dropped_late == 1
        totals = sharded.totals()
        assert totals == {
            "offered": 3,
            "accepted": 2,
            "dropped_late": 1,
            "tap_bytes": 0,
            "wal_bytes": 0,
            "query_quarantines": 0,
        }

    def test_scalar_push_counted_too(self):
        loop, sharded = self.make_sharded()
        name = "m"
        home = sharded.shard_of(name)
        scope = sharded.scope_new("d", shard=home, period_ms=50, delay_ms=1000)
        scope.signal_new(buffer_signal(name))
        sharded.push_sample(name, loop.clock.now(), 5.0)
        assert sharded.totals()["accepted"] == 1


class TestManagerProtocol:
    def test_topology_version_bumps_on_any_shard_change(self):
        sharded = ShardedScopeManager(shards=3)
        v0 = sharded.topology_version
        sharded.scope_new("a", period_ms=50)
        v1 = sharded.topology_version
        assert v1 != v0
        sharded.scope_remove("a")
        assert sharded.topology_version != v1

    def test_carries_and_auto_create_use_home_shard(self):
        sharded = ShardedScopeManager(shards=4)
        name = "metric"
        home = sharded.shard_of(name)
        sharded.scope_new("display", shard=home, period_ms=50)
        assert not sharded.carries(name)
        assert sharded.auto_create(name)
        assert sharded.carries(name)

    def test_auto_create_without_scope_fails_gracefully(self):
        sharded = ShardedScopeManager(shards=4)
        assert not sharded.auto_create("metric")


class TestServerIntegration:
    def test_server_fans_into_sharded_manager(self):
        """A ScopeServer pointed at a ShardedScopeManager routes remote
        binary streams to per-shard scopes, with auto-create placing
        unknown signals on their home shard."""
        loop = MainLoop()
        sharded = ShardedScopeManager(shards=4, loop=loop)
        # One scope per shard so every signal has a local carrier.
        for i in range(4):
            sharded.scope_new(f"shard{i}", shard=i, period_ms=50, delay_ms=1000)
        sharded.start_all()
        server = ScopeServer(loop, sharded, auto_create=True)
        near, far = memory_pair(loop.clock)
        server.add_client(near_id := far)
        client = ScopeClient(near, loop, mode="binary")
        names = [f"signal{i}" for i in range(12)]
        for name in names:
            client.send_samples(name, [1.0, 2.0, 3.0])
        loop.run_for(300)
        totals = server.totals()
        assert totals["received"] == 36
        assert totals["accepted"] == 36
        # Every signal was created on its home shard.
        for name in names:
            home = sharded.shard_of(name)
            assert name in sharded.managers[home].scopes[0]
        # Multiple shards actually exercised.
        exercised = {sharded.shard_of(n) for n in names}
        assert len(exercised) > 1
        assert sharded.totals()["accepted"] == 36

    def test_loop_xor_loops(self):
        # One layout: every in-loop shard runs on the router loop.
        loop = MainLoop()
        sharded = ShardedScopeManager(shards=2, loop=loop)
        assert [manager.loop for manager in sharded.managers] == [loop, loop]
        sharded.remove_shard(1)
        with pytest.raises(ValueError, match="cannot remove the last shard"):
            sharded.remove_shard(0)
