"""Shard hosts: one shard's manager on a private loop, with a heartbeat.

A :class:`ShardHost` is the unit that WAL-first supervision restarts
(see :class:`~repro.net.router.Router` with ``wal_root=``).  It runs in
the router's process for in-process supervised shards, and inside every
forked worker (:mod:`repro.net.worker`).  Each host owns a private
:class:`~repro.eventloop.loop.MainLoop` with its own virtual clock, so
its timeline moves only when a delivery, a monitor tick or a replay
drives it.

The host is also the one place a shard's state is captured and rebuilt:
:meth:`ShardHost.snapshot_state` builds the snapshot dict that WAL
rotation writes to disk (and a worker ships to the router), and
:meth:`ShardHost.restore` loads such a snapshot and replays the WAL
suffix on top of it.

Byte-identical recovery
-----------------------

A restarted shard is not approximately recovered — its traces, filtered
columns, aggregates and every Section 4.4 accept/late-drop decision are
*byte-identical* to a shard that never failed.  The argument:

1. A live delivery advances the private loop *through* the router
   instant (:meth:`~repro.eventloop.loop.MainLoop.run_through`) and then
   pushes, so every source due at or before the push instant has
   dispatched first, and the manager reads a clock equal to the router
   clock.
2. The WAL records exactly the offered columns and their push instants
   (the same contract the capture equivalence suite already proves
   replayable bit-for-bit).
3. On restart :meth:`ShardHost.restore` re-pushes each batch at its
   recorded instant on the fresh loop.  The replay source is attached
   after the host's own timers, so at any shared instant the
   poll/heartbeat timers dispatch before the replayed push — the same
   (priority, id) order the live path produced in (1).  A rotation
   snapshot shortcuts the prefix: the fresh host dry-advances to the
   snapshot instant (its timers reproduce polls and beats
   deterministically), loads the captured state, and replays only the
   segments written after it.

A *stall* that clears before detection never restarts: deliveries
accumulate in the host's inbox and drain in order at their recorded
instants on :meth:`ShardHost.resume` — the same interleaving again.

Caveat: byte-identity covers signals registered by the
``scope_factory``.  Signals *auto-created* by the server on first
arrival are not re-created by replay (signal registration is not in the
WAL); they resume on their next live arrival instead.
"""

from __future__ import annotations

import enum
import pickle
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Deque, Optional

import numpy as np

from repro.capture.reader import CaptureReader
from repro.capture.replay import catch_up
from repro.core.cells import is_reserved
from repro.core.manager import ScopeManager
from repro.eventloop.loop import MainLoop
from repro.net.shard import ShardStats

__all__ = [
    "ShardDown",
    "ShardHost",
    "ShardState",
    "SupervisionStats",
]

#: Builds one shard's scopes/signals on a fresh manager.  Called with
#: ``(manager, shard_id)`` at host construction *and again at every
#: restart* — it must be deterministic, and it should start polling
#: (replay re-drives the polls).
ScopeFactory = Callable[[ScopeManager, int], None]

#: Ledger fields a snapshot carries, in on-disk order.
_SNAPSHOT_STATS = ("offered", "accepted", "dropped_late")


class ShardState(enum.Enum):
    RUNNING = "running"
    STALLED = "stalled"
    CRASHED = "crashed"


class ShardDown(RuntimeError):
    """Raised when delivering to a shard that cannot take the batch."""


class SupervisionStats(ShardStats):
    """:class:`~repro.net.shard.ShardStats` plus failover counters.

    ``lost_deliveries`` counts pushes that hit a dead shard
    (WAL-covered); ``replayed_samples`` counts samples re-driven by
    restart catch-up.  ``last_restart_at`` is a timestamp, not a
    counter (excluded from ``as_dict``/``fold``).
    """

    COUNTER_FIELDS = ShardStats.COUNTER_FIELDS + (
        "restarts",
        "missed_beats",
        "lost_deliveries",
        "replayed_samples",
    )
    SCALAR_FIELDS = ("last_restart_at",)


@dataclass
class _Delivery:
    """One push parked in a stalled host's inbox."""

    now: float
    name: str
    times: np.ndarray
    values: np.ndarray


class ShardHost:
    """One shard's manager on a private loop, with a heartbeat.

    The host can be stalled (deliveries park in an inbox; the private
    loop — and with it the heartbeat — stops advancing), crashed
    (deliveries raise :class:`ShardDown`), and resumed.  The router's
    monitor detects the first two through :meth:`failed` and
    :meth:`beating` and replaces the host wholesale; a stall that clears
    first drains its inbox in recorded order and never diverges.
    """

    def __init__(
        self,
        shard_id: int,
        scope_factory: Optional[ScopeFactory] = None,
        heartbeat_ms: float = 50.0,
        stats: Optional[SupervisionStats] = None,
    ) -> None:
        if heartbeat_ms <= 0:
            raise ValueError(f"heartbeat_ms must be positive: {heartbeat_ms}")
        self.shard_id = shard_id
        self.heartbeat_ms = float(heartbeat_ms)
        self.loop = MainLoop()  # private loop, private virtual clock at 0
        self.beats = 0
        self._beats_probed = 0
        #: Set by :meth:`restore`: whether a snapshot was loaded, and how
        #: many WAL samples were replayed on top of it.
        self.restored = False
        self.replayed_samples = 0
        # The heartbeat attaches before the factory's poll timers and
        # before any replay source, so its dispatch order relative to
        # them is the same on the original host and on every restart.
        self._beat_id = self.loop.timeout_add(self.heartbeat_ms, self._beat)
        self.manager = ScopeManager(self.loop)
        if scope_factory is not None:
            scope_factory(self.manager, shard_id)
        self.state = ShardState.RUNNING
        self.stats = stats if stats is not None else SupervisionStats()
        self._inbox: Deque[_Delivery] = deque()
        self.crash_error: Optional[BaseException] = None

    def _beat(self, lost: int = 0) -> bool:
        self.beats += 1
        return True

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def ingest(self, name: str, times, values) -> int:
        """Push at the current private-loop instant, with accounting.

        An exception out of the manager quarantines the host (state →
        CRASHED, error retained) and surfaces as :class:`ShardDown`: a
        poisoned batch must not wedge the router loop, and the WAL-based
        restart gets a chance to re-run history without it being
        re-offered live.

        Ingest is a *trusted* delivery edge (everything reaching it was
        validated at the router/server boundary): reserved ``__obs.``
        columns — live from a publisher upstream, or re-driven from the
        WAL during restart catch-up — enter through ``push_obs`` and
        deliver like any other signal.
        """
        try:
            if is_reserved(name):
                accepted = self.manager.push_obs(name, times, values)
            else:
                accepted = self.manager.push_samples(name, times, values)
        except Exception as exc:
            self.crash(exc)
            raise ShardDown(
                f"shard {self.shard_id} ingest raised: {exc!r}"
            ) from exc
        n = len(times)
        self.stats.offered += n
        self.stats.accepted += accepted
        self.stats.dropped_late += n - accepted
        return accepted

    def deliver(self, now: float, name: str, times, values) -> int:
        """Deliver one routed push at router instant ``now``.

        RUNNING: advance the private loop through ``now`` (polls and
        heartbeats due at or before it dispatch first) and ingest.
        STALLED: park a copy in the inbox — acceptance unknown, report 0
        for now; :meth:`resume` settles the truth.  CRASHED: raise
        :class:`ShardDown` (the caller's WAL already holds the batch).
        """
        if self.state is ShardState.CRASHED:
            raise ShardDown(f"shard {self.shard_id} is down")
        if self.state is ShardState.STALLED:
            self._inbox.append(
                _Delivery(
                    float(now),
                    name,
                    np.array(times, dtype=np.float64, copy=True),
                    np.array(values, dtype=np.float64, copy=True),
                )
            )
            return 0
        self.loop.run_through(now)
        return self.ingest(name, times, values)

    def advance(self, now: float) -> None:
        """Advance the private loop to the router instant (monitor tick).

        Only a RUNNING host advances — that is precisely what makes a
        stalled or crashed host's heartbeat freeze and the failure
        detectable.
        """
        if self.state is ShardState.RUNNING:
            self.loop.run_through(now)

    # ------------------------------------------------------------------
    # Liveness (the router monitor's probes)
    # ------------------------------------------------------------------
    def failed(self) -> bool:
        """True once the host crashed (injected or quarantined)."""
        return self.state is ShardState.CRASHED

    def beating(self) -> bool:
        """True when the heartbeat advanced since the previous probe."""
        fresh = self.beats != self._beats_probed
        self._beats_probed = self.beats
        return fresh

    # ------------------------------------------------------------------
    # Fault injection / recovery hooks
    # ------------------------------------------------------------------
    def stall(self) -> None:
        """Wedge the host: deliveries park, the heartbeat freezes."""
        if self.state is ShardState.RUNNING:
            self.state = ShardState.STALLED

    def resume(self) -> None:
        """Clear a stall, draining parked deliveries in recorded order.

        Each entry replays at its recorded router instant — the loop
        runs through it first, exactly as the live path would have — so
        a survived stall is byte-identical to no stall at all.
        """
        if self.state is not ShardState.STALLED:
            return
        self.state = ShardState.RUNNING
        while self._inbox:
            entry = self._inbox.popleft()
            self.loop.run_through(entry.now)
            self.ingest(entry.name, entry.times, entry.values)

    def crash(self, error: Optional[BaseException] = None) -> None:
        """Kill the host: inbox lost (WAL-covered), deliveries refused."""
        self.state = ShardState.CRASHED
        self.crash_error = error
        self._inbox.clear()

    # ------------------------------------------------------------------
    # Snapshot + restore
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """The shard's data plane and ingest ledger at its current instant.

        Only a RUNNING host may snapshot: a stalled host's parked inbox
        (and a crashed host's lost one) holds WAL'd-but-unapplied
        deliveries the capture would silently drop.
        """
        if self.state is not ShardState.RUNNING:
            raise ShardDown(
                f"shard {self.shard_id} is {self.state.value}; only a RUNNING "
                "shard can snapshot (parked deliveries would be lost)"
            )
        return {
            "now": self.loop.clock.now(),
            "manager": self.manager.state_dict(),
            "stats": {key: getattr(self.stats, key) for key in _SNAPSHOT_STATS},
        }

    def restore(
        self,
        state_path: Optional[Path],
        wal_path: Optional[Path],
        start_now: float,
    ) -> None:
        """Catch a fresh host up to ``start_now``: snapshot, then WAL.

        Loads the rotation snapshot at ``state_path`` (if one exists)
        over the factory-built host, then replays the WAL segments under
        ``wal_path`` at their recorded instants (a torn tail from a real
        process kill is skipped) and advances through ``start_now``.
        Sets :attr:`restored` and :attr:`replayed_samples`.
        """
        self.restored = state_path is not None and Path(state_path).exists()
        if self.restored:
            with open(state_path, "rb") as fh:
                snap = pickle.load(fh)
            self.loop.run_through(float(snap["now"]))
            self.manager.load_state(snap["manager"])
            for key in _SNAPSHOT_STATS:
                setattr(self.stats, key, int(snap["stats"][key]))
        if wal_path is not None and any(Path(wal_path).glob("*.gseg")):
            # Every WAL push instant is at or before start_now, so the
            # replay is exhausted (and detached) when catch_up returns.
            with CaptureReader(wal_path, recover_tail=True) as reader:
                source = catch_up(
                    reader,
                    SimpleNamespace(push_samples=self.ingest),
                    self.loop,
                    float(start_now),
                )
            self.replayed_samples = source.delivered_samples
        else:
            self.loop.run_through(float(start_now))
