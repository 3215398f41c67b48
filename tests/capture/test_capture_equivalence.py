"""Randomized record↔replay equivalence: capture must be invisible.

Each seed drives a randomized multi-signal schedule — batch and scalar
pushes, timestamps jittered around the late-drop threshold — through a
live polling manager with a :class:`CaptureWriter` tap attached.  A
fresh, identically configured manager is then re-driven from the store
by a :class:`ReplaySource` at rate 1.  The replayed run must reproduce
the live run **byte for byte**: every accept/late-drop decision, every
buffer counter, every trace column (raw *and* low-pass filtered), and
the per-signal aggregate values.  Finally the store exports to the text
tuple format and a :class:`Player` must deliver the identical sample
stream — the §3.3 compatibility path over the same data.
"""

import io
import random

import numpy as np
import pytest

from repro.capture import (
    CaptureReader,
    CaptureWriter,
    ReplaySource,
    export_text,
    player_from_capture,
)
from repro.core.manager import ScopeManager
from repro.core.signal import buffer_signal
from repro.core.tuples import Player
from repro.eventloop.loop import MainLoop

pytestmark = pytest.mark.capture

SIGNALS = ("alpha", "beta", "gamma")
FILTERS = {"alpha": 0.0, "beta": 0.25, "gamma": 0.0}
RUN_MS = 3_000.0
TICK_MS = 25.0
SEEDS = range(10)


def build_rig(delay_ms):
    """One manager + polling scope carrying the three test signals."""
    loop = MainLoop()
    manager = ScopeManager(loop)
    scope = manager.scope_new("rig", period_ms=50, delay_ms=delay_ms)
    for name in SIGNALS:
        scope.signal_new(buffer_signal(name, filter=FILTERS[name]))
    scope.set_polling_mode(50)
    scope.start_polling()
    return loop, manager, scope


def snapshot(scope):
    """Everything the live run decided, as exact arrays and counters."""
    stats = scope.buffer.stats
    out = {
        "pushed": stats.pushed,
        "dropped_late": stats.dropped_late,
        "popped": stats.popped,
        "polls": scope.polls,
    }
    traces = {}
    aggregates = {}
    for name in SIGNALS:
        channel = scope.channel(name)
        traces[name] = (
            channel.times_array().copy(),
            channel.raw_array().copy(),
            channel.values_array().copy(),  # filtered: replay must re-filter identically
        )
        out[f"buffered_samples[{name}]"] = channel.buffered_samples
        values = channel.values_array()
        aggregates[name] = (
            values.shape[0],
            float(values.sum()) if values.shape[0] else 0.0,
            float(values.min()) if values.shape[0] else 0.0,
            float(values.max()) if values.shape[0] else 0.0,
        )
    return out, traces, aggregates


def live_run(seed, capture_dir):
    """Drive a random schedule live, with a capture tap attached."""
    rng = random.Random(seed)
    delay_ms = rng.choice((40.0, 100.0, 250.0))
    loop, manager, scope = build_rig(delay_ms)
    writer = CaptureWriter(capture_dir, segment_samples=rng.choice((64, 256, 4096)))
    manager.add_tap(writer)

    def feed(_lost) -> bool:
        now = loop.clock.now()
        for name in SIGNALS:
            n = rng.randrange(0, 5)
            if n == 0:
                continue
            # Jitter around the late threshold: some samples are fresh,
            # some exactly on it, some already expired.
            times = sorted(now - rng.uniform(0.0, 2.0 * delay_ms) for _ in range(n))
            values = [rng.uniform(-100.0, 100.0) for _ in range(n)]
            if rng.random() < 0.3:
                for t, v in zip(times, values):
                    manager.push_sample(name, t, v)
            else:
                manager.push_samples(
                    name, np.asarray(times), np.asarray(values)
                )
        return True

    loop.timeout_add(TICK_MS, feed)
    loop.run_until(RUN_MS)
    writer.close()
    return delay_ms, snapshot(scope)


def replay_run(capture_dir, delay_ms):
    """Re-drive a fresh rig from the store at rate 1 (exact timeline)."""
    loop, manager, scope = build_rig(delay_ms)
    source = ReplaySource(CaptureReader(capture_dir), manager)
    loop.attach(source)
    loop.run_until(RUN_MS)
    assert source.exhausted
    return snapshot(scope)


@pytest.mark.parametrize("seed", SEEDS)
def test_replay_reproduces_live_run_bit_for_bit(seed, tmp_path):
    delay_ms, (live, live_traces, live_agg) = live_run(seed, tmp_path / "cap")
    replayed, replay_traces, replay_agg = replay_run(tmp_path / "cap", delay_ms)

    for key in live:
        assert replayed[key] == live[key], (
            f"seed {seed}: {key} diverged: replay {replayed[key]} vs live {live[key]}"
        )
    # Something interesting must actually have happened.
    assert live["pushed"] > 100

    for name in SIGNALS:
        for live_col, replay_col, label in zip(
            live_traces[name], replay_traces[name], ("times", "raw", "filtered")
        ):
            # Byte-identical floats, not approximately equal: the
            # accept decision surface (time + delay <= now) and the
            # one-pole filter recursion are exact-float territory.
            np.testing.assert_array_equal(
                replay_col, live_col, err_msg=f"seed {seed}: {name} {label}"
            )
        assert replay_agg[name] == live_agg[name]


@pytest.mark.parametrize("seed", (0, 3))
def test_schedules_exercise_the_late_drop_edge(seed, tmp_path):
    """Guard the guard: without real drops the equivalence above would
    prove nothing about the decision surface."""
    _, (live, _, _) = live_run(seed, tmp_path / "cap")
    assert live["dropped_late"] > 0
    assert live["pushed"] > live["dropped_late"]


@pytest.mark.parametrize("seed", (1, 4))
def test_text_player_delivers_the_same_samples(seed, tmp_path):
    """The §3.3 text path over the same store: export → Player must
    deliver exactly the captured samples (playback mode accepts all)."""
    live_run(seed, tmp_path / "cap")
    reader = CaptureReader(tmp_path / "cap")

    sink = io.StringIO()
    export_text(reader, sink)
    player = Player(io.StringIO(sink.getvalue()))
    assert len(player) == reader.sample_count

    times, values, ids = reader.columns()
    names = reader.names
    order = np.argsort(times, kind="stable")
    delivered = player.advance_to(float("inf"))
    assert [(p.time_ms, p.value, p.name) for p in delivered] == [
        (t, v, names[i])
        for t, v, i in zip(
            times[order].tolist(), values[order].tolist(), ids[order].tolist()
        )
    ]

    # player_from_capture is the same adapter without the text detour.
    direct = player_from_capture(reader)
    assert [(p.time_ms, p.value, p.name) for p in direct.advance_to(float("inf"))] == [
        (p.time_ms, p.value, p.name) for p in delivered
    ]


def test_sharded_capture_replays_identically(tmp_path):
    """Sharded fan-in: per-shard streams replayed into a fresh sharded
    manager reproduce every shard's traces and drop decisions."""
    from repro.capture import capture_sharded
    from repro.net import ShardedScopeManager

    def build(capture_root=None):
        loop = MainLoop()
        sharded = ShardedScopeManager(shards=3, loop=loop)
        for name in SIGNALS:
            scope = sharded.scope_new(
                f"scope-{name}", shard=sharded.shard_of(name),
                period_ms=50, delay_ms=60.0,
            )
            scope.signal_new(buffer_signal(name))
        for manager in sharded.managers:
            manager.start_all()
        writers = (
            capture_sharded(sharded, capture_root, segment_samples=64)
            if capture_root
            else None
        )
        return loop, sharded, writers

    rng = random.Random(99)
    loop, sharded, writers = build(tmp_path / "cap")

    def feed(_lost) -> bool:
        now = loop.clock.now()
        for name in SIGNALS:
            times = sorted(now - rng.uniform(0.0, 120.0) for _ in range(3))
            sharded.push_samples(name, times, [rng.uniform(0, 10) for _ in range(3)])
        return True

    loop.timeout_add(TICK_MS, feed)
    loop.run_until(RUN_MS)
    for writer in writers:
        writer.close()
    live_totals = sharded.totals()
    live_traces = {
        name: sharded.scope(f"scope-{name}").channel(name).times_array().copy()
        for name in SIGNALS
    }
    assert live_totals["dropped_late"] > 0

    loop2, sharded2, _ = build()
    for index in range(3):
        store = tmp_path / "cap" / f"shard-{index:02d}"
        reader = CaptureReader(store)
        if reader.sample_count:
            loop2.attach(ReplaySource(reader, sharded2))
    loop2.run_until(RUN_MS)
    replay_totals = sharded2.totals()
    assert replay_totals == live_totals
    for name in SIGNALS:
        np.testing.assert_array_equal(
            sharded2.scope(f"scope-{name}").channel(name).times_array(),
            live_traces[name],
        )
