"""Randomized incremental-vs-batch equivalence.

The engine's core guarantee: a query computed incrementally from live
tap batches (jittered sizes, interleaved signals, occasional
out-of-order samples) and the same query executed in one shot over the
capture of that run produce **byte-identical** derived columns.  Three
comparisons per seed:

1. live observer stream  ==  batch execution over the capture,
2. live derived traces *recorded into the capture* (the LiveQuery
   pushes back into the tapped manager, so the CaptureWriter records
   them)  ==  batch re-derivation — the ISSUE's "re-run against a
   capture reproduces the live derived traces bit-for-bit",
3. two incremental runs with different batch splits agree with each
   other.
"""

import numpy as np
import pytest

from repro.capture import CaptureReader, CaptureWriter
from repro.core.manager import ScopeManager
from repro.core.signal import buffer_signal
from repro.net import ShardedScopeManager
from repro.query import LiveQuery, Runtime, compile_query, execute

pytestmark = pytest.mark.query

#: One program exercising every operator family: join (sub/mul), scalar
#: map, comparison, ewma, rate, delta, windowed aggregates, resample,
#: edges, clip, min/max and a shared private intermediate.
PROGRAM = """
_d = a - 0.5*b
diff = _d
smooth = ewma(_d, 0.7)
fast = lowpass(a, 0.3)
slope = rate(a)
step = delta(b)
load = sum_over(a, 25)
peak = max_over(b, 40)
grid = resample(a, 10)
cross = edges(a, 0, either)
band = clip(min(a, b), -1.5, 1.5)
hot = a > b
"""

SIGNALS = ("a", "b", "c")  # c is pushed but unused by the program


def make_streams(rng, n_per_signal):
    """Per-signal (times, values) with jitter and occasional late samples."""
    streams = {}
    for name in SIGNALS:
        gaps = rng.uniform(0.05, 4.0, n_per_signal)
        times = np.cumsum(gaps) + rng.uniform(0, 2.0)
        # ~5% of samples stamped into the past (late; the engine drops
        # them identically in both modes).
        late = rng.random(n_per_signal) < 0.05
        times = np.where(late, times - rng.uniform(1.0, 6.0, n_per_signal), times)
        values = rng.standard_normal(n_per_signal)
        streams[name] = (times, values)
    return streams


def feed_jittered(rng, streams, push):
    """Interleave signals in randomly sized batches through ``push``."""
    cursors = {name: 0 for name in streams}
    while any(cursors[n] < streams[n][0].shape[0] for n in streams):
        name = SIGNALS[int(rng.integers(len(SIGNALS)))]
        times, values = streams[name]
        cursor = cursors[name]
        if cursor >= times.shape[0]:
            continue
        n = int(rng.integers(1, 9))
        push(name, times[cursor : cursor + n], values[cursor : cursor + n])
        cursors[name] = cursor + n


def concat_outputs(chunks):
    out = {}
    for name, (times_list, values_list) in chunks.items():
        if times_list:
            out[name] = (np.concatenate(times_list), np.concatenate(values_list))
        else:
            out[name] = (np.empty(0), np.empty(0))
    return out


class Collector:
    def __init__(self, names):
        self.chunks = {name: ([], []) for name in names}

    def __call__(self, name, times, values):
        self.chunks[name][0].append(times)
        self.chunks[name][1].append(values)

    def columns(self):
        return concat_outputs(self.chunks)


def assert_columns_identical(left, right, context):
    assert set(left) == set(right), context
    for name in left:
        lt, lv = left[name]
        rt, rv = right[name]
        assert lt.tobytes() == rt.tobytes(), f"{context}: {name} times differ"
        assert lv.tobytes() == rv.tobytes(), f"{context}: {name} values differ"


@pytest.mark.parametrize("seed", range(8))
def test_live_tap_vs_capture_execution(tmp_path, seed):
    rng = np.random.default_rng(seed)
    plan = compile_query(PROGRAM)
    streams = make_streams(rng, n_per_signal=400)

    # --- live run: tapped manager, writer attached before the query so
    # the capture records raw pushes ahead of the derived feedback.
    manager = ScopeManager()
    scope = manager.scope_new("rig", delay_ms=1e12)
    for name in SIGNALS:
        scope.signal_new(buffer_signal(name))
    for name in plan.output_names:
        scope.signal_new(buffer_signal(name))
    writer = CaptureWriter(tmp_path / "store", segment_samples=512)
    manager.add_tap(writer)
    live = LiveQuery(plan, manager)
    collector = Collector(plan.output_names)
    live.on_output(collector)
    feed_jittered(
        rng, streams, lambda name, t, v: manager.push_samples(name, t, v)
    )
    live.finish()
    writer.close()
    live_columns = collector.columns()
    assert sum(t.shape[0] for t, _ in live_columns.values()) > 0
    assert any(count > 0 for count in live.dropped.values())

    # --- batch run over the capture's raw columns.
    with CaptureReader(tmp_path / "store") as reader:
        batch_columns = execute(reader, plan)
        # The capture also recorded the live derived traces (the query
        # pushed them back into the tapped manager).
        recorded_columns = {
            name: reader.read_signal(name) for name in plan.output_names
        }
        recorded_columns = {
            name: (t.copy(), v.copy()) for name, (t, v) in recorded_columns.items()
        }

    assert_columns_identical(live_columns, batch_columns, f"seed {seed} live/batch")
    assert_columns_identical(
        recorded_columns, batch_columns, f"seed {seed} recorded/batch"
    )


@pytest.mark.parametrize("seed", range(4))
def test_two_batchings_agree(seed):
    rng = np.random.default_rng(1000 + seed)
    plan = compile_query(PROGRAM)
    streams = make_streams(rng, n_per_signal=300)

    results = []
    for split_seed in (1, 2):
        split_rng = np.random.default_rng(split_seed * 7919 + seed)
        runtime = Runtime(plan)
        collector = Collector(plan.output_names)
        for name in plan.output_names:
            runtime.add_sink(
                name,
                lambda t, v, _name=name: collector(_name, t, v),
            )
        feed_jittered(split_rng, streams, runtime.feed)
        runtime.finish()
        results.append(collector.columns())
    assert_columns_identical(results[0], results[1], f"seed {seed} splits")


def test_live_query_on_sharded_manager(tmp_path):
    """A LiveQuery taps every shard; derived pushes reroute by name."""
    rng = np.random.default_rng(42)
    sharded = ShardedScopeManager(shards=4)
    for name in SIGNALS:
        scope = sharded.scope_new(f"scope-{name}", shard=sharded.shard_of(name))
        scope.signal_new(buffer_signal(name))
    plan = compile_query("d = a - 0.5*b; s = ewma(d, 0.9)")
    live = LiveQuery(plan, sharded)
    collector = Collector(plan.output_names)
    live.on_output(collector)
    streams = make_streams(rng, n_per_signal=200)
    feed_jittered(
        rng, streams, lambda name, t, v: sharded.push_samples(name, t, v)
    )
    live.finish()
    live_columns = collector.columns()

    # Batch mode sees the same raw per-signal streams; the source
    # operators shed the late samples identically in both modes.
    raw = {name: streams[name] for name in ("a", "b")}
    batch_columns = execute(raw, plan)
    assert_columns_identical(live_columns, batch_columns, "sharded live/batch")


class TestTapSafety:
    """A tap runs inside the producer's push path: it must never raise."""

    def test_push_after_finish_is_dropped_not_raised(self):
        manager = ScopeManager()
        scope = manager.scope_new("rig", delay_ms=1e12)
        scope.signal_new(buffer_signal("x"))
        live = LiveQuery("d = ewma(x, 0.9)", manager)
        manager.push_samples("x", [1.0], [1.0])
        live.finish()  # flushes tails, then detaches
        assert not live.attached
        manager.push_samples("x", [2.0], [2.0])  # must not raise

    def test_failing_query_quarantines_itself(self):
        manager = ScopeManager()
        scope = manager.scope_new("rig", delay_ms=1e12)
        for name in ("a", "b", "d"):
            scope.signal_new(buffer_signal(name))
        live = LiveQuery("d = ewma(a / b, 0.9)", manager)
        manager.push_samples("a", [0.0, 1.0], [1.0, 1.0])
        # b = 0 makes a/b infinite; ewma rejects it.  The producer's
        # push must survive and the query must record its failure.
        manager.push_samples("b", [0.0, 1.0], [1.0, 0.0])
        assert live.error is not None
        assert "not finite" in str(live.error)
        manager.push_samples("a", [2.0], [1.0])  # quarantined: ignored

    def make_rig(self):
        manager = ScopeManager()
        scope = manager.scope_new("rig", delay_ms=1e12)
        for name in ("x", "d"):
            scope.signal_new(buffer_signal(name))
        return manager

    def test_failing_output_observer_quarantines_not_raises(self):
        """ANY emission-path failure quarantines — not just QueryError.

        Observers and the manager push-back run inside the producer's
        push path; a crashing observer must never raise through
        ``push_samples``.
        """
        manager = self.make_rig()
        live = LiveQuery("d = ewma(x, 0.9)", manager)
        live.on_output(lambda n, t, v: (_ for _ in ()).throw(RuntimeError("boom")))
        manager.push_samples("x", [1.0], [1.0])  # must not raise
        assert isinstance(live.error, RuntimeError)
        assert live.quarantined

    def test_quarantine_auto_detaches(self):
        manager = self.make_rig()
        live = LiveQuery("d = ewma(x, 0.9)", manager)
        live.on_output(lambda n, t, v: (_ for _ in ()).throw(RuntimeError("boom")))
        assert live.attached
        manager.push_samples("x", [1.0], [1.0])
        # A quarantined query must not stay attached forever, eating a
        # tap slot and re-failing on every future push.
        assert not live.attached

    def test_attach_rejected_on_quarantined_query(self):
        manager = self.make_rig()
        live = LiveQuery("d = ewma(x, 0.9)", manager)
        live.on_output(lambda n, t, v: (_ for _ in ()).throw(RuntimeError("boom")))
        manager.push_samples("x", [1.0], [1.0])
        with pytest.raises(ValueError, match="quarantined"):
            live.attach(manager)

    def test_attach_rejected_on_finished_query(self):
        manager = self.make_rig()
        live = LiveQuery("d = ewma(x, 0.9)", manager)
        live.finish()
        with pytest.raises(ValueError, match="finished"):
            live.attach(manager)

    def test_on_quarantine_observer_fires_once_with_the_error(self):
        manager = self.make_rig()
        live = LiveQuery("d = ewma(x, 0.9)", manager)
        seen = []
        live.on_quarantine(lambda lq, exc: seen.append((lq, exc)))
        live.on_output(lambda n, t, v: (_ for _ in ()).throw(RuntimeError("boom")))
        manager.push_samples("x", [1.0], [1.0])
        manager.push_samples("x", [2.0], [2.0])  # already detached anyway
        assert len(seen) == 1
        assert seen[0][0] is live and isinstance(seen[0][1], RuntimeError)

    def test_failing_quarantine_observer_is_swallowed(self):
        manager = self.make_rig()
        live = LiveQuery("d = ewma(x, 0.9)", manager)
        live.on_quarantine(lambda lq, exc: (_ for _ in ()).throw(ValueError("worse")))
        live.on_output(lambda n, t, v: (_ for _ in ()).throw(RuntimeError("boom")))
        manager.push_samples("x", [1.0], [1.0])  # must not raise
        assert isinstance(live.error, RuntimeError)

    def test_manager_push_failure_quarantines(self):
        class ExplodingManager:
            def __init__(self):
                self.taps = []

            def add_tap(self, tap):
                self.taps.append(tap)

            def remove_tap(self, tap):
                self.taps.remove(tap)

            def push_samples(self, name, times, values):
                raise OSError("downstream gone")

        manager = ExplodingManager()
        live = LiveQuery("d = ewma(x, 0.9)", manager)
        # Feed directly through the tap interface: the derived push-back
        # into the exploding manager must quarantine, not raise.
        live("x", [1.0], [1.0], 1.0)
        assert isinstance(live.error, OSError)
        assert not live.attached and manager.taps == []
