"""Tests for offline printing of recorded data (Future Work, built)."""

import io
import math

import pytest

from repro.gui.printing import (
    SignalSummary,
    format_summary,
    print_recording,
    print_summary,
)
from repro.core.scope import Scope
from repro.core.signal import func_signal
from repro.core.tuples import Recorder
from repro.eventloop.loop import MainLoop


def make_recording(n=100, period_ms=50.0):
    sink = io.StringIO()
    rec = Recorder(sink)
    rec.comment("printing test recording")
    for i in range(n):
        t = i * period_ms
        rec.record(t, 50 + 40 * math.sin(i / 8.0), "wave")
        rec.record(t, float(i % 10), "saw")
    return sink.getvalue()


class TestSummary:
    def test_per_signal_statistics(self):
        data = make_recording(n=100)
        summaries = print_summary(data)
        assert set(summaries) == {"wave", "saw"}
        wave = summaries["wave"]
        assert wave.points == 100
        assert 9.0 <= wave.minimum <= 11.0
        assert 89.0 <= wave.maximum <= 91.0
        assert wave.duration_ms == pytest.approx(99 * 50.0)
        saw = summaries["saw"]
        assert saw.minimum == 0.0
        assert saw.maximum == 9.0

    def test_format_summary_lines(self):
        data = make_recording(n=20)
        text = format_summary(print_summary(data))
        assert "wave:" in text and "saw:" in text
        assert "20 points" in text

    def test_empty_recording(self):
        assert print_summary("# nothing\n") == {}

    def test_summary_dataclass_duration(self):
        s = SignalSummary("x", 5, 0, 1, 0.5, 100.0, 400.0)
        assert s.duration_ms == 300.0


class TestPrintRecording:
    def test_ascii_output_produced(self):
        art = print_recording(make_recording())
        assert art.strip()
        assert len(art.splitlines()) > 5

    def test_ppm_written(self, tmp_path):
        path = str(tmp_path / "capture.ppm")
        print_recording(make_recording(), ppm_path=path)
        from repro.gui.render import read_ppm

        canvas = read_ppm(path)
        assert canvas.width == 512
        # The traces painted something that is not background/chrome.
        assert canvas.count_pixels((64, 160, 43)) > 0  # palette green

    def test_reads_from_file_path(self, tmp_path):
        path = tmp_path / "rec.tuples"
        path.write_text(make_recording())
        summaries = print_summary(str(path))
        assert summaries["wave"].points == 100

    def test_live_capture_prints_identically(self, tmp_path):
        """A live scope's recording prints without information loss."""
        loop = MainLoop()
        scope = Scope("live", loop, period_ms=25)
        scope.signal_new(
            func_signal("tone", lambda *_: math.sin(loop.clock.now() / 100.0))
        )
        sink = io.StringIO()
        scope.record_to(Recorder(sink))
        scope.start_polling()
        loop.run_for(3000)
        scope.record_to(None)

        summaries = print_summary(sink.getvalue(), period_ms=25)
        assert summaries["tone"].points == scope.polls
        assert summaries["tone"].minimum == pytest.approx(
            min(scope.channel("tone").raw_values())
        )
