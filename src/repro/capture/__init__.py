"""Columnar capture store: segmented on-disk recording and replay.

The storage leg of the columnar pipeline (Section 3.3's record/replay at
binary-wire speed):

* :class:`CaptureWriter` — a push *tap* writing segmented, CRC-protected
  columnar segment files (:mod:`repro.capture.format`).
* :class:`CaptureReader` — mmapped, validated access with indexed
  O(log n) timestamp seek.
* :class:`ReplaySource` — an event-loop source that re-drives a manager,
  sharded manager or scope from a store: play / pause / seek / rewind /
  rate, bit-exact at rate 1.
* :func:`export_text` / :func:`import_text` — the Section 3.3 tuple text
  format as a lossless interchange codec for the same data;
  :func:`player_from_capture` — playback straight from a store.
* :func:`capture_sharded` — one segment stream per shard of a
  :class:`~repro.net.router.Router`.
"""

from repro.capture.convert import export_text, import_text, player_from_capture
from repro.capture.format import CaptureFormatError
from repro.capture.reader import Block, CaptureReader, Position
from repro.capture.replay import ReplaySource, catch_up
from repro.capture.writer import CaptureWriter, capture_sharded

__all__ = [
    "Block",
    "CaptureFormatError",
    "CaptureReader",
    "CaptureWriter",
    "Position",
    "ReplaySource",
    "capture_sharded",
    "catch_up",
    "export_text",
    "import_text",
    "player_from_capture",
]
