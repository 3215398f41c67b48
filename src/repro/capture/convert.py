"""Text ↔ capture conversion: the Section 3.3 tuple format as a codec.

The textual ``time value name`` format stays the interchange and
compatibility representation of recorded data (human-readable files,
old clients, ``recorded_signals.tuples``); the binary segment store is
the performance representation.  These adapters move between them
losslessly: text rendering is ``repr``-exact for float64 (see
:func:`repro.core.tuples.format_tuple`), so a capture exported to text
and re-imported reproduces the identical columns.
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import IO, Iterable, Union

from repro.capture.reader import CaptureReader
from repro.capture.writer import CaptureWriter
from repro.core.tuples import Player, Recorder, Tuple3, parse_stream


def export_text(
    reader: Union[CaptureReader, str, Path],
    sink: Union[IO[str], str],
    single_signal: bool = False,
    header: bool = True,
) -> int:
    """Write a capture store as a tuple-format text file; returns tuples written.

    The text format requires non-decreasing times, while a captured
    *offered* stream may jitter backwards (samples stamped slightly in
    the past), so tuples are emitted in timestamp order with stream
    order breaking ties.  Returns the number of tuples written.
    """
    if not isinstance(reader, CaptureReader):
        reader = CaptureReader(reader)
    times, values, ids = reader.sorted_columns()
    names = reader.names
    recorder = Recorder(sink, single_signal=single_signal)
    try:
        if header:
            recorder.comment(
                f"exported from capture store {reader.path.name}: "
                f"{times.shape[0]} samples, {len(names)} signals"
            )
        recorder.record_many(
            times.tolist(),
            values.tolist(),
            [names[i] for i in ids.tolist()],
        )
    finally:
        recorder.close()
    return int(times.shape[0])


def player_from_capture(
    source: Union[CaptureReader, str, Path], default_name: str = "signal"
) -> Player:
    """A playback :class:`~repro.core.tuples.Player` over a capture store.

    ``source`` is a :class:`CaptureReader` or a capture directory path.
    Tuples come in :meth:`CaptureReader.sorted_columns` order — the
    order :func:`export_text` writes — so playback works on either
    representation of the same recording, without the text detour.
    """
    reader = source if isinstance(source, CaptureReader) else CaptureReader(source)
    times, values, ids = reader.sorted_columns()
    names = reader.names
    player = Player([], default_name=default_name)
    player._tuples = [
        Tuple3(time_ms=t, value=v, name=names[i])
        for t, v, i in zip(times.tolist(), values.tolist(), ids.tolist())
    ]
    return player


def import_text(
    source: Union[IO[str], str, Iterable[str]],
    dest: Union[str, Path],
    **writer_opts,
) -> CaptureWriter:
    """Build a capture store from a tuple-format text source.

    ``source`` is a path to an existing tuple file, inline tuple text,
    an open file, or a line iterable.  Each tuple's push instant is its
    own timestamp, so replaying the imported store presents every
    sample exactly on time — the semantics of playback-mode acquisition.
    Returns the closed :class:`CaptureWriter` (for its stats).
    """
    if isinstance(source, str) and "\n" not in source and os.path.exists(source):
        with open(source) as fh:
            lines: Iterable[str] = fh.read().splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    elif isinstance(source, io.IOBase) or hasattr(source, "read"):
        lines = source.read().splitlines()  # type: ignore[union-attr]
    else:
        lines = source
    with CaptureWriter(dest, **writer_opts) as writer:
        parsed = list(parse_stream(lines))
        writer.record_many(
            [p.time_ms for p in parsed],
            [p.value for p in parsed],
            [p.name for p in parsed],
        )
    return writer
