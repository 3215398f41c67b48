"""The main loop: prepare → poll → dispatch, like glib's ``GMainLoop``.

One iteration:

1. collect ready sources (timers past deadline, readable/writable
   channels),
2. if none are ready and idle sources exist, dispatch idles,
3. if still nothing, wait on the clock until the earliest timer deadline
   (a :class:`~repro.eventloop.clock.VirtualClock` jumps; a
   :class:`~repro.eventloop.clock.SystemClock` sleeps; a
   :class:`~repro.eventloop.clock.KernelTimerModel` rounds the wakeup up
   to the next kernel tick and may add scheduling latency),
4. dispatch ready sources in priority order; callbacks returning falsy are
   removed (glib semantics).

Indexed scheduler
-----------------

Sources are partitioned at attach time instead of being rescanned every
iteration:

* **timers** (plain :class:`TimeoutSource`) keep their deadlines in a
  lazy-invalidation heap: each source has at most one live heap entry;
  removal or restart marks the old entry dead in place and dead entries
  are discarded when they surface at the top.  Finding the earliest
  deadline and collecting the ready batch are O(log n) per ready source
  rather than O(total sources).
* **idles** live in their own id-indexed dict; an iteration with timer or
  I/O work never touches them.
* **polled** sources (I/O watches and any custom :class:`Source`
  subclass) keep predicate readiness: they are the only partition the
  loop still probes per iteration, so a thousand quiet timers no longer
  tax an I/O poll and vice versa.
* **hinted** I/O watches split off from the polled partition: an IN
  watch whose channel can notify on the readable edge (the zero-delay
  in-memory transport — see
  :meth:`~repro.net.transport.MemoryEndpoint.add_ready_listener`) is
  probed only after a hint fires, the in-process analogue of moving
  from ``select()`` to ``epoll``.  A loop tick is then O(ready), not
  O(watches) — the property that lets one server carry a thousand
  quiet subscriber connections for free.  Channels that cannot promise
  the edge (real sockets, delayed links, fault-injected links) stay
  level-polled with unchanged semantics.

``attach``/``remove`` are O(1) dict operations.  Dispatch semantics are
unchanged from the scan implementation: ready sources run in
(priority, id) order, callbacks returning falsy are detached, lost
timeout intervals are accounted by :class:`TimeoutSource.dispatch`, and
``run_until`` leaves the clock exactly at its deadline.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

from repro.eventloop.clock import Clock, VirtualClock
from repro.eventloop.sources import (
    IdleSource,
    IOCondition,
    IOWatch,
    Pollable,
    Priority,
    Source,
    TimeoutSource,
)

# Heap entries are mutable: [deadline_ms, push_seq, source | None].
# ``source is None`` marks a dead entry (the source was removed or its
# deadline changed).  The tiebreaker is a per-loop monotonic push
# sequence, NOT the source id: a dead entry and a live one can share an
# id (remove + re-attach at one instant), and equal (deadline, id)
# prefixes would make heapq compare Source with None.
_HeapEntry = List[Any]

_READY_EPS = 1e-9


def _dispatch_key(source: Source) -> tuple:
    return (source.priority, source.id)


class _LoopObs:
    """Instrument bundle mounted by :meth:`MainLoop.observe`.

    Holds direct cell references so the per-dispatch cost with
    observation on is a dict get plus an integer add; with observation
    off (``loop._obs is None``, the default) the dispatch loop pays a
    single pointer compare.
    """

    __slots__ = (
        "by_priority",
        "other",
        "timer_lag",
        "slow_threshold_ms",
        "slow_callbacks",
        "callback_wall_ms",
        "perf",
    )

    def __init__(
        self,
        by_priority: Dict[int, Any],
        other: Any,
        timer_lag: Any,
        slow_threshold_ms: Optional[float],
        slow_callbacks: Any,
        callback_wall_ms: Any,
        perf: Callable[[], float],
    ) -> None:
        self.by_priority = by_priority
        self.other = other
        self.timer_lag = timer_lag
        self.slow_threshold_ms = slow_threshold_ms
        self.slow_callbacks = slow_callbacks
        self.callback_wall_ms = callback_wall_ms
        self.perf = perf


class MainLoop:
    """Event loop multiplexing timeouts, idles and I/O watches.

    Parameters
    ----------
    clock:
        Time source.  Defaults to a fresh :class:`VirtualClock` so unit
        tests are deterministic; pass :class:`SystemClock` for real-time
        runs and benchmarks.
    max_io_poll_ms:
        When only I/O watches are installed there is no deadline to sleep
        toward; the loop re-polls channels at this granularity to avoid a
        busy spin on a system clock.
    """

    def __init__(self, clock: Optional[Clock] = None, max_io_poll_ms: float = 1.0) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.max_io_poll_ms = float(max_io_poll_ms)
        # All attached sources, id -> source, in attach order (dict
        # preserves insertion), so `sources` matches the old list.
        self._by_id: Dict[int, Source] = {}
        # Partitions (disjoint, also id -> source, attach-ordered).
        self._timers: Dict[int, TimeoutSource] = {}
        self._idles: Dict[int, Source] = {}
        self._polled: Dict[int, Source] = {}
        self._io_count = 0  # IOWatch instances inside _polled
        # Hinted I/O watches: channels that notify on the readable edge
        # (in-memory transports) instead of being probed every iteration.
        # An iteration only probes members of the _hinted set — with a
        # thousand quiet subscriber connections this is what keeps one
        # loop tick O(ready), not O(watches).
        self._hint_polled: Dict[int, Source] = {}
        self._hinted: set = set()
        self._hint_remove: Dict[int, Callable[[], None]] = {}
        # Timer index: heap of live entries + id -> its current entry.
        self._timer_heap: List[_HeapEntry] = []
        self._timer_entry: Dict[int, _HeapEntry] = {}
        self._heap_seq = 0  # heap tiebreaker; bumped on every push
        self._running = False
        self.iterations = 0
        self.dispatches = 0
        self._obs: Optional[_LoopObs] = None  # see observe()

    # ------------------------------------------------------------------
    # Source management
    # ------------------------------------------------------------------
    def attach(self, source: Source) -> int:
        """Attach a source and return its id.  O(1) (O(log n) for timers)."""
        if source.attached:
            raise ValueError(f"source {source.id} already attached")
        source.attached = True
        source.destroyed = False
        sid = source.id
        self._by_id[sid] = source
        # Exact-type check: TimeoutSource subclasses may override the
        # deadline discipline the heap relies on, so they stay predicate-
        # polled like any other custom source.
        if type(source) is TimeoutSource:
            source.start(self.clock.now())
            self._timers[sid] = source
            self._push_timer(source)
        elif isinstance(source, TimeoutSource):
            source.start(self.clock.now())
            self._polled[sid] = source
        elif isinstance(source, IdleSource):
            self._idles[sid] = source
        else:
            if isinstance(source, IOWatch) and self._try_hint(source):
                return sid
            self._polled[sid] = source
            if isinstance(source, IOWatch):
                self._io_count += 1
        return sid

    def _try_hint(self, source: IOWatch) -> bool:
        """Move an IN watch to the hinted partition when its channel can
        notify on the readable edge; False keeps it level-polled."""
        if source.condition != IOCondition.IN:
            return False
        register = getattr(source.channel, "add_ready_listener", None)
        if register is None:
            return False
        sid = source.id
        hint = self._hinted.add

        def on_edge() -> None:
            hint(sid)

        if not register(on_edge):
            return False
        self._hint_polled[sid] = source
        self._hint_remove[sid] = lambda: source.channel.remove_ready_listener(
            on_edge
        )
        # Probe once at attach: bytes may already be queued in the link.
        self._hinted.add(sid)
        return True

    def remove(self, source_id: int) -> bool:
        """Detach the source with ``source_id``; True if it was present."""
        source = self._by_id.get(source_id)
        if source is None:
            return False
        source.destroy()
        self._detach(source)
        return True

    def _detach(self, source: Source) -> None:
        """Drop an attached source from every index (idempotent)."""
        sid = source.id
        if self._by_id.pop(sid, None) is None:
            return
        source.attached = False
        if self._timers.pop(sid, None) is not None:
            entry = self._timer_entry.pop(sid, None)
            if entry is not None:
                entry[2] = None  # lazy invalidation; discarded on surfacing
        elif self._idles.pop(sid, None) is None:
            if self._hint_polled.pop(sid, None) is not None:
                self._hinted.discard(sid)
                self._hint_remove.pop(sid)()
            else:
                removed = self._polled.pop(sid, None)
                if removed is not None and isinstance(removed, IOWatch):
                    self._io_count -= 1

    def _push_timer(self, source: TimeoutSource) -> None:
        """(Re)index a timer at its current deadline.

        Idempotent reconciliation: an existing entry already at the
        source's deadline is kept; a stale one is invalidated in place
        and replaced.
        """
        old = self._timer_entry.pop(source.id, None)
        if old is not None:
            if old[0] == source.deadline:
                self._timer_entry[source.id] = old
                return
            old[2] = None
        self._heap_seq += 1
        entry: _HeapEntry = [source.deadline, self._heap_seq, source]
        self._timer_entry[source.id] = entry
        heapq.heappush(self._timer_heap, entry)

    def timeout_add(
        self,
        interval_ms: float,
        callback: Callable[..., Any],
        priority: Priority = Priority.DEFAULT,
    ) -> int:
        """``g_timeout_add``: run ``callback(lost)`` every ``interval_ms``.

        ``lost`` is the number of intervals skipped since the previous
        dispatch (0 when on schedule) — the hook gscope uses to advance
        the display after lost timeouts.
        """
        return self.attach(TimeoutSource(interval_ms, callback, priority))

    def idle_add(
        self,
        callback: Callable[..., Any],
        priority: Priority = Priority.DEFAULT_IDLE,
    ) -> int:
        """``g_idle_add``: run ``callback()`` when the loop is otherwise idle."""
        return self.attach(IdleSource(callback, priority))

    def io_add_watch(
        self,
        channel: Pollable,
        condition: IOCondition,
        callback: Callable[..., Any],
        priority: Priority = Priority.DEFAULT,
    ) -> int:
        """``g_io_add_watch``: run ``callback(channel, condition)`` on readiness."""
        return self.attach(IOWatch(channel, condition, callback, priority))

    # ------------------------------------------------------------------
    # Self-instrumentation
    # ------------------------------------------------------------------
    def observe(
        self,
        registry,
        prefix: str = "loop.",
        slow_callback_ms: Optional[float] = None,
    ) -> bool:
        """Mount event-loop instruments into a metrics registry.

        Installs per-priority dispatch counters, a timer-lag histogram
        (loop-clock milliseconds past the deadline — deterministic, so
        the publisher may export it) and, when ``slow_callback_ms`` is
        given, a wall-clock callback profiler: every dispatched
        callback's real duration feeds ``callback_wall_ms`` and those at
        or over the threshold bump ``slow_callbacks`` (both ``wall``
        instruments: scrape-only, never published).

        Returns False — mounting nothing and leaving dispatch untouched
        — when the registry reports the obs plane disabled
        (``REPRO_OBS=0``).
        """
        if not registry.enabled():
            return False
        import time as _time

        by_priority = {
            int(p): registry.counter(f"{prefix}dispatch.{p.name.lower()}")
            for p in Priority
        }
        registry.gauge(f"{prefix}sources", fn=lambda: float(len(self._by_id)))
        registry.gauge(f"{prefix}timers", fn=lambda: float(len(self._timers)))
        self._obs = _LoopObs(
            by_priority=by_priority,
            other=registry.counter(f"{prefix}dispatch.other"),
            timer_lag=registry.histogram(f"{prefix}timer_lag_ms"),
            slow_threshold_ms=(
                float(slow_callback_ms) if slow_callback_ms is not None else None
            ),
            slow_callbacks=registry.counter(f"{prefix}slow_callbacks", wall=True),
            callback_wall_ms=registry.histogram(
                f"{prefix}callback_wall_ms", wall=True
            ),
            perf=_time.perf_counter,
        )
        return True

    def unobserve(self) -> None:
        """Detach loop instruments; cells stay mounted in the registry."""
        self._obs = None

    @property
    def sources(self) -> List[Source]:
        return list(self._by_id.values())

    @property
    def timer_count(self) -> int:
        """Heap-indexed timer sources currently attached."""
        return len(self._timers)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def _pop_ready_timers(self, now: float) -> List[Source]:
        """Pop every live timer entry due at ``now`` off the heap.

        Popped timers are *in flight*: they have no heap entry until
        :meth:`_dispatch` re-indexes the ones that stay attached.
        """
        heap = self._timer_heap
        ready: List[Source] = []
        if not heap:
            return ready
        entries = self._timer_entry
        pop = heapq.heappop
        # Same float expression as TimeoutSource.ready so heap collection
        # is bit-identical to the scan it replaces.
        while heap and now >= heap[0][0] - _READY_EPS:
            entry = pop(heap)
            source = entry[2]
            if source is None or entries.get(source.id) is not entry:
                continue  # dead or superseded entry
            del entries[source.id]
            ready.append(source)
        return ready

    def _ready_sources(self, now: float, include_idle: bool) -> List[Source]:
        ready = self._pop_ready_timers(now)
        if self._polled:
            ready.extend(s for s in self._polled.values() if s.ready(now))
        if self._hinted:
            # Probe only the hinted watches; a hint that probes dry is
            # cleared (the next send on the channel re-arms it), one
            # that probes ready stays armed — level-triggered semantics
            # for a callback that does not fully drain the channel.
            for sid in list(self._hinted):
                source = self._hint_polled.get(sid)
                if source is None:
                    self._hinted.discard(sid)
                elif source.ready(now):
                    ready.append(source)
                else:
                    self._hinted.discard(sid)
        if not ready and include_idle and self._idles:
            ready = list(self._idles.values())
        if len(ready) > 1:
            ready.sort(key=_dispatch_key)
        return ready

    def _earliest_deadline(self, now: float) -> Optional[float]:
        heap = self._timer_heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)  # shed dead entries as they surface
        best: Optional[float] = heap[0][0] if heap else None
        if self._polled:
            for source in self._polled.values():
                deadline = source.next_deadline(now)
                if deadline is not None and (best is None or deadline < best):
                    best = deadline
        return best

    def _dispatch(self, ready: List[Source], now: float) -> int:
        count = 0
        timers = self._timers
        entries = self._timer_entry
        heap = self._timer_heap
        push = heapq.heappush
        obs = self._obs
        try:
            for src in ready:
                if src.destroyed or not src.attached:
                    continue
                if obs is not None:
                    cell = obs.by_priority.get(src.priority, obs.other)
                    cell.inc()
                    if src.id in timers:
                        # Deadline read *before* dispatch advances it:
                        # lag is pure loop-clock arithmetic, so it stays
                        # deterministic (and publishable) on a
                        # VirtualClock.
                        obs.timer_lag.observe(now - src.deadline)
                    if obs.slow_threshold_ms is not None:
                        t0 = obs.perf()
                        keep = src.dispatch(now)
                        wall_ms = (obs.perf() - t0) * 1000.0
                        obs.callback_wall_ms.observe(wall_ms)
                        if wall_ms >= obs.slow_threshold_ms:
                            obs.slow_callbacks.inc()
                    else:
                        keep = src.dispatch(now)
                else:
                    keep = src.dispatch(now)
                count += 1
                sid = src.id
                if not keep or src.destroyed:
                    self._detach(src)
                elif sid in timers:
                    entry = entries.get(sid)
                    if entry is None:
                        # In flight (popped ready): index the new deadline.
                        self._heap_seq += 1
                        entry = [src.deadline, self._heap_seq, src]
                        entries[sid] = entry
                        push(heap, entry)
                    elif entry[0] != src.deadline:
                        # The callback detached and re-attached this very
                        # timer: attach indexed the pre-dispatch deadline,
                        # dispatch then advanced it.  Reconcile.
                        self._push_timer(src)
        except BaseException:
            # A raising callback must not strand the rest of the popped
            # batch: re-index any in-flight timer left undispatched.
            for src in ready:
                if src.attached and src.id in timers:
                    self._push_timer(src)
            self.dispatches += count
            raise
        self.dispatches += count
        return count

    def iteration(self, may_block: bool = True) -> bool:
        """Run one loop iteration; return True if anything was dispatched.

        With ``may_block=False`` the iteration only dispatches work that is
        already ready (plus idles) and never waits on the clock.
        """
        self.iterations += 1
        now = self.clock.now()
        ready = self._ready_sources(now, include_idle=True)
        if ready:
            return self._dispatch(ready, now) > 0
        if not may_block:
            return False
        deadline = self._earliest_deadline(now)
        has_io = self._io_count > 0 or bool(self._hint_polled)
        if deadline is None and not has_io:
            return False  # nothing will ever become ready
        if deadline is None or (has_io and deadline - now > self.max_io_poll_ms):
            deadline = now + self.max_io_poll_ms
        self.clock.wait_until(deadline)
        now = self.clock.now()
        ready = self._ready_sources(now, include_idle=False)
        return self._dispatch(ready, now) > 0

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, max_iterations: Optional[int] = None) -> None:
        """Run until :meth:`quit` or until no source can ever fire again.

        ``max_iterations`` is a safety valve for tests.
        """
        self._running = True
        done = 0
        while self._running and self._by_id:
            # Partition counts replace the per-iteration rebuild of the
            # timed-or-io list: blocking is allowed exactly when a
            # non-idle source exists.
            self.iteration(
                may_block=bool(self._timers or self._polled or self._hint_polled)
            )
            done += 1
            if max_iterations is not None and done >= max_iterations:
                break
        self._running = False

    def run_until(self, deadline_ms: float) -> None:
        """Run iterations until the clock reaches ``deadline_ms``.

        Primarily for :class:`VirtualClock` runs: the loop processes every
        event with a deadline at or before ``deadline_ms`` and leaves the
        clock exactly at ``deadline_ms``.
        """
        self._running = True
        clock_now = self.clock.now
        while self._running:
            now = clock_now()
            if now >= deadline_ms:
                break
            ready = self._ready_sources(now, include_idle=False)
            if ready:
                self._dispatch(ready, now)
                continue
            next_deadline = self._earliest_deadline(now)
            if self._io_count:
                step = min(
                    next_deadline if next_deadline is not None else deadline_ms,
                    now + self.max_io_poll_ms,
                    deadline_ms,
                )
            elif next_deadline is None or next_deadline > deadline_ms:
                self.clock.wait_until(deadline_ms)
                break
            else:
                step = next_deadline
            self.clock.wait_until(max(step, now))
        self._running = False

    def run_for(self, duration_ms: float) -> None:
        """Run for ``duration_ms`` from the current clock time."""
        self.run_until(self.clock.now() + duration_ms)

    def run_through(self, deadline_ms: float) -> None:
        """Like :meth:`run_until`, but *inclusive* of the deadline.

        ``run_until(t)`` leaves sources whose deadline is exactly ``t``
        undispatched (the clock lands on ``t`` and the loop exits).
        ``run_through(t)`` additionally dispatches everything due at
        ``t`` itself — in the same (priority, id) order an ongoing run
        would use — and leaves the clock at ``t``.  This is the
        catch-up primitive: advancing a shard's private loop to the
        router clock *through* ``t`` guarantees that any work scheduled
        at ``t`` (a poll, a heartbeat, a replayed push) has happened
        before the caller applies state at ``t``, so a live delivery
        and a replayed one observe identical orderings.

        Idle sources are not dispatched by the inclusive drain: they
        are fallback work, not deadline work, and draining them here
        would make catch-up diverge from a plain ``run_until`` ride.
        """
        self.run_until(deadline_ms)
        now = self.clock.now()
        while True:
            ready = self._ready_sources(now, include_idle=False)
            if not ready:
                break
            self._dispatch(ready, now)

    def quit(self) -> None:
        """Stop :meth:`run` / :meth:`run_until` after the current iteration."""
        self._running = False

    @property
    def running(self) -> bool:
        return self._running
