"""ReplaySource player controls: seek, rate, pause/resume, rewind."""

import numpy as np
import pytest

from repro.capture import CaptureReader, CaptureWriter, ReplaySource, player_from_capture
from repro.eventloop.loop import MainLoop

pytestmark = pytest.mark.capture

#: Push instants 100, 200, ... 1000; each batch holds 4 samples stamped
#: shortly before its push.
PUSH_NOWS = [100.0 * k for k in range(1, 11)]


class Sink:
    """Records (clock_now, name, times, values) for every delivered push."""

    def __init__(self, loop):
        self.loop = loop
        self.pushes = []

    def push_samples(self, name, times, values):
        self.pushes.append(
            (self.loop.clock.now(), name, np.array(times), np.array(values))
        )
        return len(times)

    @property
    def delivery_instants(self):
        return [now for now, *_ in self.pushes]

    @property
    def all_times(self):
        return np.concatenate([t for _, _, t, _ in self.pushes])


@pytest.fixture
def store(tmp_path):
    path = tmp_path / "cap"
    with CaptureWriter(path, segment_samples=12) as writer:
        for now in PUSH_NOWS:
            times = np.linspace(now - 30.0, now, 4)
            writer.on_push("sig", times, times * 0.5, now)
    return path


def drive(store, until_ms, **replay_opts):
    loop = MainLoop()
    sink = Sink(loop)
    source = ReplaySource(CaptureReader(store), sink, **replay_opts)
    loop.attach(source)
    loop.run_until(until_ms)
    return loop, sink, source


class TestSchedule:
    def test_rate_1_preserves_instants_and_timestamps(self, store):
        _, sink, source = drive(store, 2_000.0)
        assert source.exhausted
        assert sink.delivery_instants == PUSH_NOWS
        expected = np.concatenate(
            [np.linspace(now - 30.0, now, 4) for now in PUSH_NOWS]
        )
        np.testing.assert_array_equal(sink.all_times, expected)

    def test_deliveries_are_batched_per_push(self, store):
        _, sink, _ = drive(store, 2_000.0)
        assert len(sink.pushes) == len(PUSH_NOWS)
        assert all(t.shape[0] == 4 for _, _, t, _ in sink.pushes)


class TestSeek:
    def test_seek_lands_on_first_tuple_at_or_after_t(self, store):
        reader = CaptureReader(store)
        loop = MainLoop()
        sink = Sink(loop)
        source = ReplaySource(reader, sink)
        loop.attach(source)
        source.seek(432.0)  # between batch 4 (tops at 400) and batch 5
        loop.run_until(5_000.0)
        first = sink.all_times[0]
        assert first >= 432.0
        # and it is the *first* such sample: 470.0 opens batch 5.
        assert first == 470.0

    def test_seek_to_exact_indexed_timestamp(self, store):
        # 500.0 is a stored timestamp: seek must land exactly on it.
        loop = MainLoop()
        sink = Sink(loop)
        source = ReplaySource(CaptureReader(store), sink)
        loop.attach(source)
        source.seek(500.0)
        loop.run_until(5_000.0)
        assert sink.all_times[0] == 500.0

    def test_seek_mid_block_delivers_the_tail(self, store):
        loop = MainLoop()
        sink = Sink(loop)
        source = ReplaySource(CaptureReader(store), sink)
        loop.attach(source)
        source.seek(480.0)  # batch 5 is [470, 480, 490, 500]
        loop.run_until(5_000.0)
        np.testing.assert_array_equal(
            sink.pushes[0][2], np.array([480.0, 490.0, 500.0])
        )

    def test_seek_past_end_is_immediately_exhausted(self, store):
        loop = MainLoop()
        source = ReplaySource(CaptureReader(store), Sink(loop))
        loop.attach(source)
        source.seek(1e9)
        assert source.exhausted


class TestRate:
    @pytest.mark.parametrize("rate", (0.5, 2.0))
    def test_rate_scales_inter_sample_spacing(self, store, rate):
        _, sink, source = drive(store, 10_000.0, rate=rate, start_at=100.0)
        assert source.exhausted
        instants = np.array(sink.delivery_instants)
        # Inter-push spacing scales by 1/rate: 2x halves it, 0.5x doubles.
        np.testing.assert_allclose(np.diff(instants), 100.0 / rate, rtol=1e-12)
        # Delivered timestamps ride the same affine map, so inter-sample
        # spacing inside a batch scales identically.
        for _, _, times, _ in sink.pushes:
            np.testing.assert_allclose(np.diff(times), 10.0 / rate, rtol=1e-12)

    def test_set_rate_mid_replay(self, store):
        loop = MainLoop()
        sink = Sink(loop)
        source = ReplaySource(CaptureReader(store), sink)
        loop.attach(source)
        loop.run_until(450.0)  # batches at 100..400 delivered at rate 1
        assert len(sink.pushes) == 4
        source.set_rate(2.0)
        loop.run_until(5_000.0)
        assert source.exhausted
        instants = np.array(sink.delivery_instants)
        np.testing.assert_allclose(np.diff(instants[:4]), 100.0)
        np.testing.assert_allclose(np.diff(instants[4:]), 50.0)


class TestPauseResume:
    def test_pause_stops_delivery_resume_preserves_spacing(self, store):
        loop = MainLoop()
        sink = Sink(loop)
        source = ReplaySource(CaptureReader(store), sink)
        loop.attach(source)
        loop.run_until(250.0)
        assert len(sink.pushes) == 2
        source.pause()
        loop.run_until(1_500.0)  # a long paused stretch delivers nothing
        assert len(sink.pushes) == 2
        assert not source.exhausted
        source.resume()
        loop.run_until(3_000.0)
        assert source.exhausted
        # No burst catch-up: the remaining 8 batches keep 100 ms spacing
        # from the resume point.
        resumed = np.array(sink.delivery_instants[2:])
        np.testing.assert_allclose(np.diff(resumed), 100.0)
        assert resumed[0] >= 1_500.0


class TestRewind:
    def test_rewind_after_exhaustion_matches_player_rewind(self, store):
        loop = MainLoop()
        sink = Sink(loop)
        source = ReplaySource(CaptureReader(store), sink)
        loop.attach(source)
        loop.run_until(2_000.0)
        assert source.exhausted
        first_pass = sink.all_times.copy()

        source.rewind()
        assert not source.exhausted
        # Exhaustion detached the source from the loop; the second pass
        # is an explicit re-attach, like re-opening the player.
        assert not source.attached
        loop.attach(source)
        loop.run_until(4_000.0)
        assert source.exhausted
        second_pass = sink.all_times[first_pass.shape[0] :]
        np.testing.assert_array_equal(second_pass, first_pass)

        # Same contract as the text player: rewind restarts from the
        # first tuple and a full advance re-delivers everything.
        player = player_from_capture(str(store))
        once = [(p.time_ms, p.value) for p in player.advance_to(float("inf"))]
        assert player.exhausted
        player.rewind()
        again = [(p.time_ms, p.value) for p in player.advance_to(float("inf"))]
        assert once == again
        assert sorted(t for t, _ in once) == sorted(first_pass.tolist())


class TestExhaustion:
    def test_exhausted_source_detaches_and_run_terminates(self, store):
        """`loop.run()` must terminate once replay finishes — an
        exhausted source may not keep the loop spinning forever."""
        loop = MainLoop()
        sink = Sink(loop)
        source = ReplaySource(CaptureReader(store), sink)
        loop.attach(source)
        loop.run(max_iterations=10_000)
        assert source.exhausted
        assert not source.attached
        assert loop.sources == []
        assert sink.all_times.shape[0] == 4 * len(PUSH_NOWS)

    def test_paused_source_stays_attached(self, store):
        loop = MainLoop()
        source = ReplaySource(CaptureReader(store), Sink(loop))
        loop.attach(source)
        loop.run_until(150.0)
        source.pause()
        loop.run_until(1_000.0)
        assert source.attached and not source.exhausted


class TestValidation:
    def test_rejects_nonpositive_rate(self, store):
        with pytest.raises(ValueError):
            ReplaySource(CaptureReader(store), object(), rate=0.0)
        source = ReplaySource(CaptureReader(store), object())
        with pytest.raises(ValueError):
            source.set_rate(-1.0)
