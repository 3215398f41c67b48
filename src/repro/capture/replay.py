"""Replay: re-driving a live system from a capture store.

A :class:`ReplaySource` is an event-loop :class:`~repro.eventloop.sources.Source`
that re-pushes a capture's recorded batches into anything exposing the
manager push protocol (``push_samples(name, times, values)`` — a
:class:`~repro.core.manager.ScopeManager`, a
:class:`~repro.net.router.Router`, or a single
:class:`~repro.core.scope.Scope`).  It is the Section 3.3 player for the
columnar store: play, pause, resume, seek, rewind, and an arbitrary
replay rate.

Determinism contract
--------------------

At ``rate=1.0`` with no explicit start (the default), batches are
re-pushed at the **exact clock instants** the capture recorded, with the
**exact recorded timestamps** — no arithmetic touches either float64
column.  Driving a fresh manager configured like the original through
``run_until`` therefore reproduces every accept/late-drop decision and
every trace byte for byte (the late-drop predicate compares the same
floats against the same clock values).

``seek`` and ``rewind`` preserve that exactness: on the undisturbed
capture timeline they jump within the original schedule (a position
behind the clock delivers its backlog immediately, like the text
player's ``advance_to`` after ``rewind``).  Any configuration that
leaves the capture timeline — ``rate != 1``, ``start_at=``, ``resume``
after a pause, or a mid-replay ``set_rate`` — maps both push instants
and sample timestamps through one affine transform
``f(x) = anchor_wall + (x - anchor_capture) / rate``, which scales every
inter-sample gap by ``1/rate`` (2x replay halves spacing, 0.5x doubles
it) while keeping each sample's timestamp in lockstep with its delivery
instant.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.capture.reader import CaptureReader, Position
from repro.core.cells import is_reserved
from repro.eventloop.sources import Priority, Source

#: Same readiness epsilon as TimeoutSource, so replay deadlines and
#: timer deadlines landing on one instant dispatch in the same batch.
_READY_EPS = 1e-9


class ReplaySource(Source):
    """Event-loop source that re-pushes captured batches on schedule.

    Parameters
    ----------
    reader:
        The capture store (or a path to one).
    target:
        Receiver of ``push_samples(name, times, values)`` calls.
    rate:
        Playback speed multiplier (2.0 = twice as fast).  Must be > 0.
    start_at:
        Clock instant (ms) at which the first pending batch should
        replay.  None (default) keeps the capture's own timeline.
    """

    def __init__(
        self,
        reader: Union[CaptureReader, str],
        target,
        rate: float = 1.0,
        start_at: Optional[float] = None,
        priority: Priority = Priority.DEFAULT,
    ) -> None:
        super().__init__(self._never_called, priority)
        if rate <= 0:
            raise ValueError(f"replay rate must be positive: {rate}")
        self.reader = (
            reader if isinstance(reader, CaptureReader) else CaptureReader(reader)
        )
        self.target = target
        # Captures can hold recorded `__obs.` telemetry; replaying those
        # rows needs the sink's trusted entry (when it has one).
        self._push_obs = getattr(target, "push_obs", None)
        self._rate = float(rate)
        self._start_at = start_at
        # Flat (segment, block) schedule; data stays mmapped until used.
        self._schedule = [
            (seg_index, block_index)
            for seg_index, segment in enumerate(self.reader.segments)
            for block_index in range(segment.block_count)
        ]
        # Blocks before each segment, so a Position maps to its flat
        # cursor in O(1) and seek stays O(log n) end to end.
        self._block_prefix = [0]
        for segment in self.reader.segments:
            self._block_prefix.append(self._block_prefix[-1] + segment.block_count)
        self._cursor = 0
        self._offset = 0  # intra-block offset (mid-block seek landing)
        self._paused = False
        # Affine time map: wall = anchor_wall + (capture - anchor_capture)/rate.
        # None anchor_wall = anchor lazily at the next probe.  Until a
        # seek/rewind/resume disturbs the timeline, rate-1 playback is an
        # identity map and both columns pass through untouched.
        self._anchor_wall: Optional[float] = None
        self._anchor_capture = 0.0
        self._identity_ok = start_at is None and self._rate == 1.0
        self.delivered_samples = 0
        self.delivered_blocks = 0

    @staticmethod
    def _never_called() -> bool:  # pragma: no cover - dispatch is overridden
        return True

    # ------------------------------------------------------------------
    # Time mapping
    # ------------------------------------------------------------------
    def _anchor(self, now_ms: float) -> None:
        seg, block = self._schedule[self._cursor]
        self._anchor_capture = float(
            self.reader.segments[seg].directory[block]["push_now"]
        )
        if self._start_at is not None:
            self._anchor_wall = float(self._start_at)
            self._start_at = None
        elif self._identity_ok:
            self._anchor_wall = self._anchor_capture
        else:
            self._anchor_wall = float(now_ms)

    @property
    def _exact(self) -> bool:
        return self._anchor_wall == self._anchor_capture and self._rate == 1.0

    def _wall_of(self, capture_ms: float) -> float:
        if self._exact:
            return capture_ms
        assert self._anchor_wall is not None
        return self._anchor_wall + (capture_ms - self._anchor_capture) / self._rate

    def _next_wall(self, now_ms: float) -> Optional[float]:
        if self._paused or self._cursor >= len(self._schedule):
            return None
        if self._anchor_wall is None:
            self._anchor(now_ms)
        seg, block = self._schedule[self._cursor]
        return self._wall_of(
            float(self.reader.segments[seg].directory[block]["push_now"])
        )

    # ------------------------------------------------------------------
    # Source protocol
    # ------------------------------------------------------------------
    def ready(self, now_ms: float) -> bool:
        wall = self._next_wall(now_ms)
        return wall is not None and now_ms >= wall - _READY_EPS

    def next_deadline(self, now_ms: float) -> Optional[float]:
        return self._next_wall(now_ms)

    def dispatch(self, now_ms: float) -> bool:
        """Deliver every batch whose mapped push instant has arrived.

        Returns False — detaching the source — once the schedule is
        exhausted, so a loop with nothing else to do terminates instead
        of polling a source that can never fire again.  After
        :meth:`rewind`/:meth:`seek`, re-``attach`` the source to play
        again.  A *paused* source stays attached: resume revives it.
        """
        while True:
            wall = self._next_wall(now_ms)
            if wall is None:
                return self._paused or not self.exhausted
            if now_ms < wall - _READY_EPS:
                return True
            seg, block_index = self._schedule[self._cursor]
            block = self.reader.segments[seg].block(block_index)
            times, values = block.times, block.values
            if self._offset:
                times = times[self._offset :]
                values = values[self._offset :]
            if not self._exact:
                times = self._anchor_wall + (times - self._anchor_capture) / self._rate
            name = block.name
            if is_reserved(name) and self._push_obs is not None:
                # Recorded self-instrumentation replays through the
                # trusted entry — the manager boundary rejects reserved
                # names on the ordinary push path.
                self._push_obs(name, times, values)
            else:
                self.target.push_samples(name, times, values)
            self.delivered_samples += times.shape[0]
            self.delivered_blocks += 1
            self._cursor += 1
            self._offset = 0

    # ------------------------------------------------------------------
    # Player controls (Section 3.3)
    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._schedule)

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def rate(self) -> float:
        return self._rate

    def pause(self) -> None:
        """Freeze playback; pending batches stay pending."""
        self._paused = True

    def resume(self) -> None:
        """Resume after :meth:`pause`, re-anchored at the current clock.

        The remaining schedule replays with its inter-batch spacing
        intact — paused wall time is not "caught up" in a burst.
        """
        if not self._paused:
            return
        self._paused = False
        self._reanchor()

    def set_rate(self, rate: float) -> None:
        """Change playback speed mid-replay (re-anchors at the clock)."""
        if rate <= 0:
            raise ValueError(f"replay rate must be positive: {rate}")
        self._rate = float(rate)
        self._reanchor()

    def seek(self, t: float) -> Position:
        """Jump so the next delivered sample is the first with time >= ``t``.

        Uses the store's O(log n) directory index.  On the undisturbed
        capture timeline the remaining stream keeps its original push
        instants and timestamps (seeking backwards past the clock
        delivers the backlog immediately); a re-based replay re-anchors
        at the current clock.
        """
        position = self.reader.seek(t)
        self.seek_position(position)
        return position

    def seek_position(self, position: Position) -> None:
        """Jump to an explicit :class:`Position` (e.g. from the reader)."""
        if position.segment >= len(self.reader.segments):
            self._cursor = len(self._schedule)
        else:
            self._cursor = self._block_prefix[position.segment] + position.block
        self._offset = position.offset if not self.exhausted else 0
        self._reanchor(keep_identity=True)

    def rewind(self) -> None:
        """Restart from the first batch (:meth:`~repro.core.tuples.Player.rewind`).

        On the undisturbed capture timeline this matches the text
        player exactly: the whole stream re-delivers with its original
        timestamps, immediately if the clock is already past them —
        just as :meth:`Player.rewind` followed by ``advance_to`` does.
        A re-based replay (rate/seek/resume touched the timeline)
        re-anchors at the current clock and re-paces instead.

        An exhausted source has detached itself from its loop; after
        rewinding, ``loop.attach(source)`` starts the second pass.
        """
        self._cursor = 0
        self._offset = 0
        self._reanchor(keep_identity=True)

    def _reanchor(self, keep_identity: bool = False) -> None:
        self._anchor_wall = None
        if not keep_identity:
            self._identity_ok = False


def catch_up(reader, target, loop, through_ms: float) -> ReplaySource:
    """Replay a capture into ``target`` up to and including ``through_ms``.

    The recovery primitive behind supervised shard restart: attach an
    exact-timeline :class:`ReplaySource` to ``loop`` (typically a fresh
    private loop at t=0) and drive the loop *through* ``through_ms`` —
    inclusive, so a batch recorded exactly at the deadline is delivered,
    and so are any of the target's own sources due at that instant, in
    plain (priority, id) dispatch order.  Because the replayed stream
    re-delivers at the recorded instants with the recorded timestamps,
    the target ends byte-identical to one that lived through the
    original traffic up to ``through_ms``.

    The source is attached *after* the target's existing sources, so at
    any shared instant the target's timers dispatch before the replayed
    push — the same order a live push (run loop, then push) produces.

    Returns the (possibly exhausted) :class:`ReplaySource` so the caller
    can inspect ``delivered_samples`` or keep replaying the tail.
    """
    source = ReplaySource(reader, target)
    loop.attach(source)
    loop.run_through(through_ms)
    return source
