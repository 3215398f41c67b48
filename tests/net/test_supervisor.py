"""Unit tests for shard supervision: heartbeats, detection, restart."""

import pytest

from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import Router, ShardDown, ShardState, shard_of
from repro.net.host import ShardHost

pytestmark = pytest.mark.faults

SIGNALS = ["alpha", "beta", "gamma", "delta", "epsilon"]
N = 2


def factory(manager, shard_id):
    scope = manager.scope_new(f"scope-{shard_id}", period_ms=50, delay_ms=80.0)
    for name in SIGNALS:
        if shard_of(name, N) == shard_id:
            scope.signal_new(buffer_signal(name, filter=0.25))
    scope.set_polling_mode(50)
    scope.start_polling()


def make_supervisor(tmp_path, **kwargs):
    loop = MainLoop()
    defaults = dict(
        shards=N,
        scope_factory=factory,
        heartbeat_ms=50.0,
        miss_threshold=3,
        segment_samples=128,
    )
    defaults.update(kwargs)
    return loop, Router(loop=loop, wal_root=tmp_path / "wal", **defaults)


class TestHeartbeat:
    def test_running_host_beats_every_interval(self, tmp_path):
        loop, sup = make_supervisor(tmp_path)
        loop.run_until(500.0)
        for host in sup.targets:
            # 500ms at 50ms beats, give or take the inclusive edge.
            assert 8 <= host.beats <= 11
            assert host.state is ShardState.RUNNING
        assert sup.totals()["restarts"] == 0

    def test_stalled_host_freezes_and_restarts(self, tmp_path):
        loop, sup = make_supervisor(tmp_path)
        loop.run_until(300.0)
        sup.stall_shard(0)
        # miss_threshold=3 ticks at 50ms → detection within 200ms.
        loop.run_until(600.0)
        host = sup.handle_of(0)
        assert host.state is ShardState.RUNNING  # fresh replacement
        assert host.stats.restarts == 1
        assert host.stats.missed_beats >= 3
        assert host.stats.last_restart_at is not None
        assert host.stats.last_restart_at - 300.0 <= 4 * 50.0 + 1e-9
        assert len(sup.quarantined) == 1
        assert sup.handle_of(1).stats.restarts == 0  # healthy shard untouched

    def test_crashed_host_detected_within_one_tick(self, tmp_path):
        loop, sup = make_supervisor(tmp_path)
        loop.run_until(275.0)
        sup.crash_shard(1)
        loop.run_until(350.0)  # next monitor tick at 300
        host = sup.handle_of(1)
        assert host.stats.restarts == 1
        assert host.stats.last_restart_at <= 300.0 + 1e-9

    def test_monitor_shorter_than_heartbeat_rejected(self, tmp_path):
        loop = MainLoop()
        with pytest.raises(ValueError):
            Router(
                loop=loop, wal_root=tmp_path / "wal", heartbeat_ms=50.0, monitor_interval_ms=20.0
            )


class TestDelivery:
    def test_crashed_delivery_raises_and_supervisor_absorbs(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        name = SIGNALS[0]
        home = sup.shard_of(name)
        sup.crash_shard(home)
        with pytest.raises(ShardDown):
            sup.handle_of(home).deliver(0.0, name, (0.0,), (1.0,))
        # The routed path absorbs it (WAL holds the batch).
        assert sup.push_samples(name, (0.0,), (1.0,)) == 0
        assert sup.handle_of(home).stats.lost_deliveries == 1

    def test_stall_then_resume_is_lossless(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        name = SIGNALS[0]
        home = sup.shard_of(name)
        loop.clock.wait_until(100.0)
        sup.push_samples(name, (100.0,), (1.0,))
        sup.stall_shard(home)
        loop.clock.wait_until(120.0)
        sup.push_samples(name, (120.0,), (2.0,))  # parks in the inbox
        assert sup.handle_of(home).stats.offered == 1
        sup.resume_shard(home)
        stats = sup.handle_of(home).stats
        assert stats.offered == 2
        assert stats.accepted == 2

    def test_ingest_exception_quarantines_host(self):
        host = ShardHost(0, heartbeat_ms=10.0)

        def boom(name, times, values):
            raise RuntimeError("poisoned batch")

        host.manager.push_samples = boom
        with pytest.raises(ShardDown):
            host.ingest("sig", (0.0,), (1.0,))
        assert host.state is ShardState.CRASHED
        assert isinstance(host.crash_error, RuntimeError)
        # Subsequent routed deliveries are refused until restart.
        with pytest.raises(ShardDown):
            host.deliver(1.0, "sig", (1.0,), (1.0,))


class TestRestartRecovery:
    def test_restart_replays_wal_history(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        name = SIGNALS[0]
        home = sup.shard_of(name)
        for k in range(20):
            loop.clock.wait_until(k * 10.0)
            sup.push_samples(name, (k * 10.0,), (float(k),))
        accepted_before = sup.handle_of(home).stats.accepted
        sup.crash_shard(home)
        sup.restart_shard(home)
        stats = sup.handle_of(home).stats
        assert stats.restarts == 1
        assert stats.replayed_samples == 20
        assert stats.offered == 20
        assert stats.accepted == accepted_before

    def test_restart_with_empty_wal(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        loop.clock.wait_until(500.0)
        sup.crash_shard(0)
        host = sup.restart_shard(0)
        assert host.stats.replayed_samples == 0
        # The fresh private loop caught up to the router clock.
        assert host.loop.clock.now() == 500.0

    def test_restart_bumps_topology_version(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        before = sup.topology_version
        sup.crash_shard(0)
        sup.restart_shard(0)
        assert sup.topology_version != before

    def test_restart_with_torn_wal_tail_skips_partial_segment(self, tmp_path):
        """A WAL tail torn by a real process kill must not poison the
        restart: completed segments replay, the torn one is skipped."""
        loop, sup = make_supervisor(tmp_path, segment_samples=8, auto_start=False)
        name = SIGNALS[0]
        home = sup.shard_of(name)
        import numpy as np

        for k in range(4):  # 4 pushes of 8 samples = 4 sealed segments
            now = (k + 1) * 50.0
            loop.clock.wait_until(now)
            times = np.linspace(now - 5.0, now, 8)
            sup.push_samples(name, times, times * 2.0)
        wal_dir = tmp_path / "wal" / f"shard-{home:02d}"
        tail = sorted(wal_dir.glob("*.gseg"))[-1]
        raw = tail.read_bytes()
        tail.write_bytes(raw[: len(raw) // 3])

        sup.crash_shard(home)
        host = sup.restart_shard(home)
        assert host.stats.replayed_samples == 24  # 3 good segments
        assert host.stats.offered == 24

    def test_double_restart_replays_full_history(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        name = SIGNALS[0]
        home = sup.shard_of(name)
        for k in range(10):
            loop.clock.wait_until(k * 10.0)
            sup.push_samples(name, (k * 10.0,), (float(k),))
        sup.crash_shard(home)
        sup.restart_shard(home)
        for k in range(10, 20):
            loop.clock.wait_until(k * 10.0)
            sup.push_samples(name, (k * 10.0,), (float(k),))
        sup.crash_shard(home)
        sup.restart_shard(home)
        stats = sup.handle_of(home).stats
        assert stats.restarts == 2
        assert stats.replayed_samples == 20  # both halves, second restart
        assert stats.offered == 20


class TestWalRotation:
    def test_snapshot_retires_segments_and_writes_state(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False, segment_samples=8)
        name = SIGNALS[0]
        home = sup.shard_of(name)
        import numpy as np

        for k in range(4):
            now = (k + 1) * 50.0
            loop.clock.wait_until(now)
            times = np.linspace(now - 5.0, now, 8)
            sup.push_samples(name, times, times * 2.0)
        wal_dir = tmp_path / "wal" / f"shard-{home:02d}"
        assert sorted(wal_dir.glob("*.gseg"))
        sup.snapshot_shard(home)
        assert sorted(wal_dir.glob("*.gseg")) == []
        assert sup.state_path(home).exists()
        # The fresh writer keeps recording in the same directory.
        loop.clock.wait_until(300.0)
        times = np.linspace(295.0, 300.0, 8)
        sup.push_samples(name, times, times)
        assert sorted(wal_dir.glob("*.gseg"))
        sup.close()

    def test_restart_after_rotation_replays_suffix_only(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        name = SIGNALS[0]
        home = sup.shard_of(name)
        for k in range(20):
            loop.clock.wait_until(k * 10.0)
            sup.push_samples(name, (k * 10.0,), (float(k),))
        accepted_mid = sup.handle_of(home).stats.accepted
        sup.snapshot_shard(home)
        for k in range(20, 30):
            loop.clock.wait_until(k * 10.0)
            sup.push_samples(name, (k * 10.0,), (float(k),))
        accepted_before = sup.handle_of(home).stats.accepted
        assert accepted_before > accepted_mid
        sup.crash_shard(home)
        sup.restart_shard(home)
        stats = sup.handle_of(home).stats
        assert stats.restarts == 1
        assert stats.replayed_samples == 10  # the post-snapshot suffix only
        assert stats.offered == 30  # snapshot ledger + replayed suffix
        assert stats.accepted == accepted_before
        sup.close()

    def test_rotation_keeps_torn_tail_guarantee(self, tmp_path):
        """The live (post-rotation) segment still recovers from a torn
        tail exactly as before rotation existed."""
        loop, sup = make_supervisor(tmp_path, auto_start=False, segment_samples=8)
        name = SIGNALS[0]
        home = sup.shard_of(name)
        import numpy as np

        for k in range(2):
            now = (k + 1) * 50.0
            loop.clock.wait_until(now)
            sup.push_samples(name, np.linspace(now - 5, now, 8), np.zeros(8))
        sup.snapshot_shard(home)
        for k in range(2, 5):
            now = (k + 1) * 50.0
            loop.clock.wait_until(now)
            sup.push_samples(name, np.linspace(now - 5, now, 8), np.ones(8))
        wal_dir = tmp_path / "wal" / f"shard-{home:02d}"
        sup._wals[home].flush_segment()
        tail = sorted(wal_dir.glob("*.gseg"))[-1]
        raw = tail.read_bytes()
        tail.write_bytes(raw[: len(raw) // 3])
        sup.crash_shard(home)
        host = sup.restart_shard(home)
        # 2 intact post-rotation segments replay; the torn third skips.
        assert host.stats.replayed_samples == 16
        assert host.stats.offered == 16 + 16  # restored ledger + suffix
        sup.close()

    def test_snapshot_refuses_non_running_host(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        name = SIGNALS[0]
        home = sup.shard_of(name)
        sup.push_samples(name, (0.0,), (1.0,))
        sup.stall_shard(home)
        sup.push_samples(name, (1.0,), (2.0,))  # parks in the inbox
        with pytest.raises(ShardDown, match="RUNNING"):
            sup.snapshot_shard(home)
        sup.resume_shard(home)
        sup.snapshot_shard(home)  # fine once the inbox drained
        sup.close()

    def test_rotate_on_restart_retires_replayed_history(self, tmp_path):
        loop, sup = make_supervisor(
            tmp_path, auto_start=False, rotate_on_restart=True
        )
        name = SIGNALS[0]
        home = sup.shard_of(name)
        for k in range(10):
            loop.clock.wait_until(k * 10.0)
            sup.push_samples(name, (k * 10.0,), (float(k),))
        sup.crash_shard(home)
        sup.restart_shard(home)
        wal_dir = tmp_path / "wal" / f"shard-{home:02d}"
        assert sorted(wal_dir.glob("*.gseg")) == []  # history retired
        assert sup.state_path(home).exists()
        # A second crash replays only what arrived after the restart.
        for k in range(10, 15):
            loop.clock.wait_until(k * 10.0)
            sup.push_samples(name, (k * 10.0,), (float(k),))
        sup.crash_shard(home)
        sup.restart_shard(home)
        stats = sup.handle_of(home).stats
        assert stats.restarts == 2
        assert stats.replayed_samples == 5
        assert stats.offered == 15
        sup.close()

    def test_wal_bytes_ledger_counts_and_survives_restart(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        name = SIGNALS[0]
        home = sup.shard_of(name)
        for k in range(12):
            loop.clock.wait_until(k * 10.0)
            sup.push_samples(name, (k * 10.0,), (float(k),))
        assert sup.handle_of(home).stats.wal_bytes == 12 * 16
        assert sup.totals()["wal_bytes"] == 12 * 16
        sup.crash_shard(home)
        sup.restart_shard(home)
        assert sup.handle_of(home).stats.wal_bytes == 12 * 16  # carried forward
        sup.close()


class TestManagerProtocol:
    def test_carries_and_auto_create_route_by_name(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        assert sup.carries(SIGNALS[0])
        assert not sup.carries("unregistered")
        assert sup.auto_create("unregistered")
        assert sup.carries("unregistered")

    def test_routing_matches_module_ring(self, tmp_path):
        loop, sup = make_supervisor(tmp_path, auto_start=False)
        for name in SIGNALS + ["x", "y", "z"]:
            assert sup.shard_of(name) == shard_of(name, N)


class TestHostOrdering:
    def test_deliver_dispatches_equal_instant_sources_first(self):
        """A source due exactly at the push instant runs before the push
        — the property the replay path relies on for byte-identity."""
        order = []
        host = ShardHost(0, heartbeat_ms=10.0)
        scope = host.manager.scope_new("s", period_ms=50, delay_ms=1e9)
        scope.signal_new(buffer_signal("sig"))
        host.loop.timeout_add(30.0, lambda lost: order.append("timer") or False)

        class Probe:
            def __call__(self, name, times, values, now_ms):
                order.append(("push", now_ms))

        host.manager.add_tap(Probe())
        host.deliver(30.0, "sig", (30.0,), (1.0,))
        assert order == ["timer", ("push", 30.0)]
