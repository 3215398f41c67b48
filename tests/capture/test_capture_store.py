"""Writer/reader round-trip, metadata, taps and text conversion."""

import io

import numpy as np
import pytest

from repro.capture import (
    CaptureFormatError,
    CaptureReader,
    CaptureWriter,
    Position,
    ReplaySource,
    capture_sharded,
    export_text,
    import_text,
    player_from_capture,
)
from repro.core.manager import ScopeManager
from repro.core.signal import buffer_signal
from repro.core.tuples import Player
from repro.eventloop.loop import MainLoop
from repro.net import ShardedScopeManager

pytestmark = pytest.mark.capture


def write_blocks(path, blocks, segment_samples=1 << 16):
    with CaptureWriter(path, segment_samples=segment_samples) as writer:
        for name, times, values, now in blocks:
            writer.on_push(name, times, values, now)
    return writer


class TestWriter:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        blocks = []
        now = 0.0
        for k in range(20):
            now += float(rng.uniform(1, 50))
            times = np.sort(rng.uniform(now - 100, now, size=rng.integers(1, 40)))
            blocks.append((f"sig{k % 3}", times, rng.standard_normal(times.size), now))
        write_blocks(tmp_path / "cap", blocks, segment_samples=64)

        reader = CaptureReader(tmp_path / "cap")
        assert reader.sample_count == sum(len(b[1]) for b in blocks)
        assert reader.block_count == len(blocks)
        got = list(reader.iter_blocks())
        assert len(got) == len(blocks)
        for (name, times, values, now), (_, block) in zip(blocks, got):
            assert block.name == name
            assert block.push_now == now
            np.testing.assert_array_equal(block.times, times)
            np.testing.assert_array_equal(block.values, values)

    def test_segments_roll_at_threshold(self, tmp_path):
        blocks = [
            ("s", np.arange(10, dtype=float) + 100 * k, np.ones(10), 100.0 * k + 10)
            for k in range(1, 11)
        ]
        writer = write_blocks(tmp_path / "cap", blocks, segment_samples=25)
        assert writer.segments_written == 4  # 30+30+30+10
        reader = CaptureReader(tmp_path / "cap")
        assert len(reader.segments) == 4
        assert reader.sample_count == 100

    def test_blocks_never_split_across_segments(self, tmp_path):
        big = np.arange(100, dtype=float)
        write_blocks(
            tmp_path / "cap", [("s", big, big, 200.0)], segment_samples=10
        )
        reader = CaptureReader(tmp_path / "cap")
        assert reader.block_count == 1
        assert len(reader.segments[0].block(0)) == 100

    def test_copies_producer_buffers(self, tmp_path):
        buf = np.arange(5, dtype=float)
        with CaptureWriter(tmp_path / "cap") as writer:
            writer.on_push("s", buf, buf, 10.0)
            buf[:] = -1  # producer reuses its batch buffer
        block = CaptureReader(tmp_path / "cap").segments[0].block(0)
        np.testing.assert_array_equal(block.times, np.arange(5, dtype=float))

    def test_empty_batches_write_nothing(self, tmp_path):
        with CaptureWriter(tmp_path / "cap") as writer:
            writer.on_push("s", np.empty(0), np.empty(0), 5.0)
        assert writer.samples_written == 0
        assert CaptureReader(tmp_path / "cap").sample_count == 0

    def test_rejects_non_finite_push_instants(self, tmp_path):
        # A NaN deadline would hang the replay event loop forever.
        with CaptureWriter(tmp_path / "cap") as writer:
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="finite"):
                    writer.on_push("s", (1.0,), (1.0,), bad)

    def test_record_api_tolerates_nan_timestamps(self, tmp_path):
        # The text format can carry `nan` times; the derived push
        # schedule must stay finite and monotone regardless.
        import_text("10 1 a\nnan 5 a\n30 2 b\n40 3 b\n", tmp_path / "cap")
        reader = CaptureReader(tmp_path / "cap")
        assert reader.sample_count == 4
        times, values = reader.read_signal("a")
        assert times[0] == 10.0 and np.isnan(times[1]) and values[1] == 5.0
        # ... and the store replays without wedging the loop.
        loop = MainLoop()

        class Count:
            n = 0

            def push_samples(self, name, t, v):
                Count.n += len(t)
                return len(t)

        src = ReplaySource(reader, Count())
        loop.attach(src)
        loop.run(max_iterations=1_000)
        assert src.exhausted and Count.n == 4

    def test_rejects_backwards_push_instants(self, tmp_path):
        with CaptureWriter(tmp_path / "cap") as writer:
            writer.on_push("s", (1.0,), (1.0,), 100.0)
            with pytest.raises(ValueError, match="monotonic"):
                writer.on_push("s", (2.0,), (2.0,), 50.0)

    def test_rejects_existing_capture(self, tmp_path):
        write_blocks(tmp_path / "cap", [("s", (1.0,), (2.0,), 3.0)])
        with pytest.raises(ValueError, match="append-once"):
            CaptureWriter(tmp_path / "cap")

    def test_rejects_mismatched_columns(self, tmp_path):
        with CaptureWriter(tmp_path / "cap") as writer:
            with pytest.raises(ValueError, match="equal-length"):
                writer.on_push("s", (1.0, 2.0), (1.0,), 3.0)

    def test_closed_writer_rejects_pushes(self, tmp_path):
        writer = CaptureWriter(tmp_path / "cap")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.on_push("s", (1.0,), (1.0,), 2.0)

    def test_recorder_compatible_api(self, tmp_path):
        with CaptureWriter(tmp_path / "cap") as writer:
            writer.record(10.0, 1.5, "a")
            writer.record_many(
                [20.0, 30.0, 40.0], [1.0, 2.0, 3.0], ["b", "b", "a"]
            )
        reader = CaptureReader(tmp_path / "cap")
        assert reader.sample_count == 4
        # consecutive same-name runs share one block
        assert reader.block_count == 3
        times, values = reader.read_signal("b")
        np.testing.assert_array_equal(times, [20.0, 30.0])
        np.testing.assert_array_equal(values, [1.0, 2.0])


class TestReaderMetadata:
    def test_names_in_stream_order(self, tmp_path):
        write_blocks(
            tmp_path / "cap",
            [
                ("zeta", (1.0,), (1.0,), 1.0),
                ("alpha", (2.0,), (2.0,), 2.0),
                ("zeta", (3.0,), (3.0,), 3.0),
            ],
        )
        assert CaptureReader(tmp_path / "cap").names == ["zeta", "alpha"]

    def test_time_range_and_duration(self, tmp_path):
        write_blocks(
            tmp_path / "cap",
            [("s", (50.0, 80.0), (0.0, 0.0), 90.0), ("s", (70.0, 400.0), (0.0, 0.0), 410.0)],
            segment_samples=2,
        )
        reader = CaptureReader(tmp_path / "cap")
        assert reader.start_time_ms == 50.0
        assert reader.end_time_ms == 400.0
        assert reader.duration_ms == 350.0

    def test_empty_capture(self, tmp_path):
        CaptureWriter(tmp_path / "cap").close()
        reader = CaptureReader(tmp_path / "cap")
        assert reader.sample_count == 0
        assert reader.names == []
        assert reader.duration_ms == 0.0
        assert reader.seek(0.0) == reader.end_position()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CaptureFormatError, match="no capture directory"):
            CaptureReader(tmp_path / "nope")


class TestSeek:
    def blocks(self):
        # Jittered: block times overlap backwards, as live captures do.
        return [
            ("a", np.array([10.0, 20.0, 30.0]), np.zeros(3), 35.0),
            ("b", np.array([25.0, 28.0]), np.zeros(2), 40.0),
            ("a", np.array([50.0, 60.0]), np.zeros(2), 65.0),
            ("b", np.array([55.0, 90.0]), np.zeros(2), 95.0),
        ]

    @pytest.mark.parametrize("segment_samples", (2, 1 << 16))
    def test_first_tuple_at_or_after(self, tmp_path, segment_samples):
        write_blocks(tmp_path / "cap", self.blocks(), segment_samples)
        reader = CaptureReader(tmp_path / "cap")
        for t, expected in [
            (0.0, 10.0),  # before everything
            (10.0, 10.0),  # exact hit on an indexed timestamp
            (21.0, 30.0),  # inside block 0
            (26.0, 30.0),  # stream order: block 0's 30 precedes block 1's 28
        ]:
            pos = reader.seek(t)
            _, first = next(iter(reader.iter_blocks(pos)))
            assert first.times[0] == expected, (t, pos)

    def test_seek_lands_in_stream_order(self, tmp_path):
        write_blocks(tmp_path / "cap", self.blocks())
        reader = CaptureReader(tmp_path / "cap")
        # t=26: stream-order first sample >= 26 is 30.0 (block 0, offset 2),
        # not block 1's 28.0.
        pos = reader.seek(26.0)
        assert pos == Position(segment=0, block=0, offset=2)
        # t=31: blocks 0 and 1 top out below t; the cum-max index skips
        # straight to the first block holding a sample >= t.
        pos = reader.seek(31.0)
        _, first = next(iter(reader.iter_blocks(pos)))
        assert first.times[0] == 50.0

    def test_seek_past_end(self, tmp_path):
        write_blocks(tmp_path / "cap", self.blocks())
        reader = CaptureReader(tmp_path / "cap")
        assert reader.seek(1e9) == reader.end_position()
        assert list(reader.iter_blocks(reader.seek(1e9))) == []

    def test_nan_timestamps_do_not_poison_the_index(self, tmp_path):
        # The buffer keeps NaN timestamps on the accept side, so a
        # tapped live run can legitimately record one.
        write_blocks(
            tmp_path / "cap",
            [
                ("s", np.array([1.0, np.nan]), np.array([1.0, 2.0]), 5.0),
                ("s", np.array([np.nan, np.nan]), np.array([3.0, 4.0]), 6.0),
                ("s", np.array([5.0, 6.0]), np.array([5.0, 6.0]), 7.0),
            ],
        )
        reader = CaptureReader(tmp_path / "cap")
        pos = reader.seek(5.0)
        _, first = next(iter(reader.iter_blocks(pos)))
        assert first.times[0] == 5.0
        # NaN samples still replay through verbatim.
        times, _ = reader.read_signal("s")
        assert np.isnan(times[1]) and np.isnan(times[2]) and np.isnan(times[3])

    def test_seek_respects_unsorted_blocks(self, tmp_path):
        write_blocks(
            tmp_path / "cap",
            [("s", np.array([30.0, 10.0, 40.0]), np.zeros(3), 50.0)],
        )
        reader = CaptureReader(tmp_path / "cap")
        pos = reader.seek(20.0)
        # first sample >= 20 in stream order is the leading 30.0
        assert pos.offset == 0


class TestTaps:
    def test_manager_tap_sees_offered_stream(self, tmp_path):
        loop = MainLoop()
        manager = ScopeManager(loop)
        scope = manager.scope_new("s", period_ms=50, delay_ms=10.0)
        scope.signal_new(buffer_signal("sig"))
        with CaptureWriter(tmp_path / "cap") as writer:
            manager.add_tap(writer)
            loop.clock.advance(100)
            # one fresh, one late (dropped) — the tap records both
            accepted = manager.push_samples("sig", [95.0, 10.0], [1.0, 2.0])
            manager.push_sample("sig", 99.0, 3.0)
            manager.remove_tap(writer)
            manager.push_samples("sig", [100.0], [4.0])  # not captured
        assert accepted == 1
        reader = CaptureReader(tmp_path / "cap")
        times, values = reader.read_signal("sig")
        np.testing.assert_array_equal(times, [95.0, 10.0, 99.0])
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])

    def test_scope_tap(self, tmp_path):
        loop = MainLoop()
        scope = ScopeManager(loop).scope_new("s", delay_ms=1e6)
        scope.signal_new(buffer_signal("sig"))
        with CaptureWriter(tmp_path / "cap") as writer:
            scope.add_tap(writer)
            scope.push_samples("sig", np.array([1.0, 2.0]), np.array([5.0, 6.0]))
            scope.push_sample("sig", 3.0, 7.0)
            scope.remove_tap(writer)
        reader = CaptureReader(tmp_path / "cap")
        assert reader.sample_count == 3

    def test_sharded_capture_one_stream_per_shard(self, tmp_path):
        loop = MainLoop()
        sharded = ShardedScopeManager(shards=3, loop=loop)
        names = [f"sig{i}" for i in range(9)]
        for name in names:
            sharded.scope_new(f"scope-{name}", shard=sharded.shard_of(name), delay_ms=1e6)
            sharded.scope(f"scope-{name}").signal_new(buffer_signal(name))
        writers = capture_sharded(sharded, tmp_path / "cap", segment_samples=8)
        for k, name in enumerate(names):
            sharded.push_samples(name, [float(k)], [float(k) * 2])
        for writer in writers:
            writer.close()
        total = 0
        for index in range(3):
            reader = CaptureReader(tmp_path / "cap" / f"shard-{index:02d}")
            for captured in reader.names:
                assert sharded.shard_of(captured) == index
            total += reader.sample_count
        assert total == len(names)


class TestTextConversion:
    def test_export_import_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        blocks = []
        now = 0.0
        for k in range(6):
            now += 10.0
            times = np.sort(rng.uniform(now - 30, now, 5))
            blocks.append((f"s{k % 2}", times, rng.standard_normal(5) * 1e6, now))
        write_blocks(tmp_path / "a", blocks)

        sink = io.StringIO()
        n = export_text(CaptureReader(tmp_path / "a"), sink)
        assert n == 30
        import_text(sink.getvalue(), tmp_path / "b")

        ta, va, ia = CaptureReader(tmp_path / "a").columns()
        tb, vb, _ = CaptureReader(tmp_path / "b").columns()
        order = np.argsort(ta, kind="stable")
        np.testing.assert_array_equal(ta[order], tb)
        np.testing.assert_array_equal(va[order], vb)

    def test_player_from_capture_matches_export(self, tmp_path):
        write_blocks(
            tmp_path / "cap",
            [
                ("a", np.array([10.0, 30.0]), np.array([1.0, -0.0]), 35.0),
                ("b", np.array([20.0]), np.array([1e300]), 40.0),
            ],
        )
        sink = io.StringIO()
        export_text(CaptureReader(tmp_path / "cap"), sink)
        via_text = Player(io.StringIO(sink.getvalue()))
        direct = player_from_capture(str(tmp_path / "cap"))
        a = [(t.time_ms, t.value, t.name) for t in via_text.advance_to(float("inf"))]
        b = [(t.time_ms, t.value, t.name) for t in direct.advance_to(float("inf"))]
        assert a == b
        assert [round(t) for t, _, _ in b] == [10, 20, 30]


class TestColumnsFor:
    def blocks(self):
        return [
            ("a", np.array([1.0, 2.0]), np.array([10.0, 20.0]), 3.0),
            ("b", np.array([1.5]), np.array([-1.0]), 3.5),
            ("a", np.array([4.0, 5.0, 6.0]), np.array([30.0, 40.0, 50.0]), 7.0),
            ("c", np.array([5.5]), np.array([9.0]), 8.0),
            ("b", np.array([6.5, 7.5]), np.array([-2.0, -3.0]), 9.0),
        ]

    def test_multi_signal_single_pass(self, tmp_path):
        write_blocks(tmp_path / "cap", self.blocks(), segment_samples=3)
        reader = CaptureReader(tmp_path / "cap")
        columns = reader.columns_for(["a", "b"])
        assert columns["a"][0].tolist() == [1.0, 2.0, 4.0, 5.0, 6.0]
        assert columns["a"][1].tolist() == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert columns["b"][0].tolist() == [1.5, 6.5, 7.5]
        assert columns["b"][1].tolist() == [-1.0, -2.0, -3.0]

    def test_matches_read_signal(self, tmp_path):
        write_blocks(tmp_path / "cap", self.blocks(), segment_samples=2)
        reader = CaptureReader(tmp_path / "cap")
        for name in ("a", "b", "c"):
            times, values = reader.read_signal(name)
            ctimes, cvalues = reader.columns_for([name])[name]
            assert times.tobytes() == ctimes.tobytes()
            assert values.tobytes() == cvalues.tobytes()

    def test_absent_name_yields_empty_columns(self, tmp_path):
        write_blocks(tmp_path / "cap", self.blocks())
        reader = CaptureReader(tmp_path / "cap")
        times, values = reader.columns_for(["nope"])["nope"]
        assert times.shape[0] == 0 and values.shape[0] == 0
        times, values = reader.read_signal("nope")
        assert times.shape[0] == 0

    def test_duplicate_request_names_collapse(self, tmp_path):
        write_blocks(tmp_path / "cap", self.blocks())
        reader = CaptureReader(tmp_path / "cap")
        columns = reader.columns_for(["a", "a", "b"])
        assert set(columns) == {"a", "b"}
        assert columns["a"][0].shape[0] == 5

    def test_signal_sample_counts(self, tmp_path):
        write_blocks(tmp_path / "cap", self.blocks(), segment_samples=2)
        reader = CaptureReader(tmp_path / "cap")
        assert reader.signal_sample_counts() == {"a": 5, "b": 3, "c": 1}


class TestIterBlocksFilter:
    def test_names_filter_skips_other_signals(self, tmp_path):
        write_blocks(
            tmp_path / "cap",
            [
                ("x", np.array([1.0]), np.array([1.0]), 2.0),
                ("y", np.array([2.0]), np.array([2.0]), 3.0),
                ("x", np.array([3.0]), np.array([3.0]), 4.0),
            ],
            segment_samples=1,
        )
        reader = CaptureReader(tmp_path / "cap")
        names = [block.name for _, block in reader.iter_blocks(names=["x"])]
        assert names == ["x", "x"]

    def test_filtered_blocks_skip_payload_crc(self, tmp_path):
        """Blocks of unrequested signals are skipped before decoding."""
        write_blocks(
            tmp_path / "cap",
            [
                ("keep", np.array([1.0]), np.array([1.0]), 2.0),
                ("skip", np.array([2.0]), np.array([2.0]), 3.0),
            ],
        )
        reader = CaptureReader(tmp_path / "cap")
        segment = reader.segments[0]
        list(reader.iter_blocks(names=["keep"]))
        skip_id = segment.names.index("skip")
        skip_blocks = np.flatnonzero(segment.directory["name_id"] == skip_id)
        assert not segment._verified[skip_blocks].any()

    def test_no_filter_yields_everything(self, tmp_path):
        write_blocks(
            tmp_path / "cap",
            [
                ("x", np.array([1.0]), np.array([1.0]), 2.0),
                ("y", np.array([2.0]), np.array([2.0]), 3.0),
            ],
        )
        reader = CaptureReader(tmp_path / "cap")
        assert len(list(reader.iter_blocks())) == 2
