"""The textual tuple format (Section 3.3) and record/replay support.

Signals are streamed to gscope, recorded to files and replayed from files
in a single textual format.  Each tuple has three fields::

    time value signal-name

where ``time`` is in milliseconds and must be non-decreasing across
successive tuples of a stream or file.  As a special case, a stream that
carries exactly one signal may omit the name, giving two-field
``time value`` tuples.

Blank lines and lines starting with ``#`` are ignored, which lets
recorded files carry human-readable headers.

The text format remains the *interchange* representation: it is what
old clients stream, what ``recorded_signals.tuples`` files hold, and
what humans read and edit.  High-volume recording and indexed replay
live in the binary segmented store (:mod:`repro.capture`); the two
round-trip losslessly (:func:`format_tuple` renders float64 exactly,
see :func:`repro.capture.export_text` / :func:`repro.capture.import_text`),
so :class:`Recorder` and :class:`Player` double as the text codec for
the same data.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Union


@dataclass(frozen=True)
class Tuple3:
    """One parsed tuple: time (ms), value, and optional signal name."""

    time_ms: float
    value: float
    name: Optional[str] = None


class TupleFormatError(ValueError):
    """Raised on malformed tuple text or time-order violations."""


def format_tuple(time_ms: float, value: float, name: Optional[str] = None) -> str:
    """Serialise one tuple to its textual line (no trailing newline).

    Times and values are rendered with ``repr``-level precision trimmed of
    redundant zeros so replay reproduces the recorded values exactly.
    """

    def fmt(x: float) -> str:
        x = float(x)
        # Integer-valued floats render without the ".0" for readability,
        # but only where that stays an exact, compact round-trip: -0.0
        # must keep its sign and huge magnitudes (1e300 has 300 integer
        # digits) must stay in scientific notation.
        if x.is_integer() and abs(x) < 1e16 and not (
            x == 0.0 and math.copysign(1.0, x) < 0
        ):
            return str(int(x))
        return repr(x)

    if name is None:
        return f"{fmt(time_ms)} {fmt(value)}"
    if any(ch.isspace() for ch in name):
        raise TupleFormatError(f"signal name may not contain whitespace: {name!r}")
    return f"{fmt(time_ms)} {fmt(value)} {name}"


def parse_tuple(line: str) -> Optional[Tuple3]:
    """Parse one line; return ``None`` for blanks and ``#`` comments."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = text.split()
    if len(parts) not in (2, 3):
        raise TupleFormatError(f"expected 'time value [name]', got {line!r}")
    try:
        time_ms = float(parts[0])
        value = float(parts[1])
    except ValueError as exc:
        raise TupleFormatError(f"non-numeric field in {line!r}") from exc
    name = parts[2] if len(parts) == 3 else None
    return Tuple3(time_ms=time_ms, value=value, name=name)


def parse_stream(lines: Iterable[str]) -> Iterator[Tuple3]:
    """Parse a line iterable, enforcing non-decreasing time order."""
    last_time: Optional[float] = None
    for lineno, line in enumerate(lines, start=1):
        parsed = parse_tuple(line)
        if parsed is None:
            continue
        if last_time is not None and parsed.time_ms < last_time:
            raise TupleFormatError(
                f"line {lineno}: time {parsed.time_ms} goes backwards "
                f"(previous {last_time})"
            )
        last_time = parsed.time_ms
        yield parsed


class Recorder:
    """Records displayed samples to a file in tuple format.

    The scope calls :meth:`record` for every sample it paints; recording
    "the polled data to a file" is a polling-mode feature (Section 3.1).
    The recorder enforces the format's non-decreasing time rule at write
    time so every recorded file is replayable.
    """

    def __init__(self, sink: Union[IO[str], str], single_signal: bool = False) -> None:
        self._owns_sink = isinstance(sink, str)
        self._sink: IO[str] = open(sink, "w") if isinstance(sink, str) else sink
        self.single_signal = single_signal
        self._last_time: Optional[float] = None
        self.count = 0

    def comment(self, text: str) -> None:
        """Write a ``#`` comment line (headers, experiment metadata)."""
        for line in text.splitlines() or [""]:
            self._sink.write(f"# {line}\n")

    def record(self, time_ms: float, value: float, name: Optional[str] = None) -> None:
        """Append one sample tuple."""
        if self._last_time is not None and time_ms < self._last_time:
            raise TupleFormatError(
                f"record time {time_ms} precedes previous {self._last_time}"
            )
        self._last_time = time_ms
        written_name = None if self.single_signal else name
        if not self.single_signal and name is None:
            raise TupleFormatError("multi-signal recording requires a signal name")
        self._sink.write(format_tuple(time_ms, value, written_name) + "\n")
        self.count += 1

    def record_many(
        self,
        times: Sequence[float],
        values: Sequence[float],
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        """Append a batch of sample tuples with a single sink write.

        The batch must be internally time-ordered and must not precede
        the last recorded tuple — the same non-decreasing rule
        :meth:`record` enforces per call, checked once over the batch.
        """
        n = len(times)
        if n == 0:
            return
        if names is None:
            names = [None] * n
        prev = self._last_time
        lines = []
        for time_ms, value, name in zip(times, values, names):
            if prev is not None and time_ms < prev:
                raise TupleFormatError(
                    f"record time {time_ms} precedes previous {prev}"
                )
            prev = time_ms
            written_name = None if self.single_signal else name
            if not self.single_signal and name is None:
                raise TupleFormatError("multi-signal recording requires a signal name")
            lines.append(format_tuple(time_ms, value, written_name))
        self._last_time = prev
        self._sink.write("\n".join(lines) + "\n")
        self.count += n

    def close(self) -> None:
        self._sink.flush()
        if self._owns_sink:
            self._sink.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Player:
    """Replays a recorded tuple file (playback acquisition mode, §3.1).

    The scope asks the player for all tuples up to the current playback
    time each poll.  Tuples are displayed at the x position implied by
    their timestamp: "if the polling period is 50 ms, then data points in
    the file that are 100 ms apart will be displayed 2 pixels apart"
    (Section 3.3) — the scope does that mapping; the player just delivers
    time-ordered tuples.
    """

    def __init__(
        self,
        source: Union[IO[str], str, Iterable[str]],
        default_name: str = "signal",
    ) -> None:
        if isinstance(source, str):
            with open(source) as fh:
                lines: Iterable[str] = fh.read().splitlines()
        elif isinstance(source, io.IOBase) or hasattr(source, "read"):
            lines = source.read().splitlines()  # type: ignore[union-attr]
        else:
            lines = source
        self.default_name = default_name
        self._tuples: List[Tuple3] = list(parse_stream(lines))
        self._pos = 0

    def __len__(self) -> int:
        return len(self._tuples)

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._tuples)

    @property
    def names(self) -> List[str]:
        """Distinct signal names present in the recording."""
        seen: List[str] = []
        for t in self._tuples:
            name = t.name or self.default_name
            if name not in seen:
                seen.append(name)
        return seen

    @property
    def duration_ms(self) -> float:
        """Timestamp span of the recording (0 for empty recordings)."""
        if not self._tuples:
            return 0.0
        return self._tuples[-1].time_ms - self._tuples[0].time_ms

    @property
    def start_time_ms(self) -> float:
        return self._tuples[0].time_ms if self._tuples else 0.0

    def advance_to(self, playback_time_ms: float) -> List[Tuple3]:
        """Return all tuples with time <= ``playback_time_ms`` not yet played."""
        out: List[Tuple3] = []
        while self._pos < len(self._tuples) and self._tuples[self._pos].time_ms <= playback_time_ms:
            t = self._tuples[self._pos]
            if t.name is None:
                t = Tuple3(time_ms=t.time_ms, value=t.value, name=self.default_name)
            out.append(t)
            self._pos += 1
        return out

    def rewind(self) -> None:
        """Restart playback from the first tuple."""
        self._pos = 0
