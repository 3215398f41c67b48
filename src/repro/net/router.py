"""One router for every shard backend: in-loop, supervised, forked.

A single :class:`~repro.core.manager.ScopeManager` fans every sample out
over one set of scopes; at production fan-in scale that one registry
becomes the ingest bottleneck.  A :class:`Router` splits the *signal
namespace* across N shards on a consistent-hash ring
(:class:`~repro.net.shard.HashRing`) and satisfies the manager protocol
a :class:`~repro.net.server.ScopeServer` consumes (``push_samples``,
``carries``, ``auto_create``, ``topology_version``), so a server can be
pointed at a router or a plain manager interchangeably.

Each shard's *target* is one of three objects, chosen at construction:

* ``backend="loop"`` without ``wal_root`` — a
  :class:`~repro.core.manager.ScopeManager` on the router loop.
  Verdicts are synchronous, and the router keeps the shard ledgers;
* ``backend="loop"`` with ``wal_root`` — a
  :class:`~repro.net.host.ShardHost` on a private loop, supervised;
* ``backend="worker"`` — a :class:`~repro.net.worker.WorkerHandle` on a
  forked child process running a ``ShardHost``.  Pushes are
  asynchronous: they return the *offered* count, and the child's
  accept/late-drop verdicts reach the router's ledgers on
  :meth:`Router.drain`.

Hosts and workers share one small delivery protocol: ``deliver(now,
name, times, values)`` (raising :class:`~repro.net.host.ShardDown` when
the shard cannot take the batch), ``advance(now)``,
``snapshot_state()``, and the monitor probes ``failed()`` and
``beating()``.

Placement contract
------------------

A signal lives on its home shard, ``shard_of(name)``.  ``scope_new``
places each scope on the shard of the *scope's* name by default
(override with ``shard=``); register a signal on a scope whose shard
matches the signal's home, or let ``auto_create`` do it.  Pushes route
to the home shard only; a scope on a foreign shard never sees the
signal, by design (that is what makes routing O(1)).  In-loop shards
can change membership live (:meth:`Router.add_shard` /
:meth:`Router.remove_shard`): about ``1/N`` of the names move, each
*scope* migrates to its name's new home, and every membership change or
restart bumps ``topology_version``, which invalidates the route cache
and every downstream carried-name cache.

WAL-first supervision
---------------------

With ``wal_root=`` the router supervises its shards:

* **writes ahead** — every offered push is recorded to the shard's
  :class:`~repro.capture.writer.CaptureWriter` (``wal_root/shard-NN/``)
  *before* delivery, so samples sent into the void during an undetected
  crash window are never lost, only deferred.  Reserved ``__obs.``
  names are rejected before the WAL write;
* **detects** — a monitor timer on the router loop advances every shard
  and probes it: a shard that has failed (crashed host, dead or
  crash-reporting worker) restarts at once, and one whose heartbeat
  stays silent for ``miss_threshold`` consecutive ticks restarts too.
  Detection latency is bounded by ``(miss_threshold + 1) *
  monitor_interval_ms`` for hosts;
* **restarts** — the same ``scope_factory`` builds a fresh target,
  which restores the last rotation snapshot and replays the WAL
  suffix through the router's current instant before it takes new
  traffic (:meth:`~repro.net.host.ShardHost.restore`; a worker does it
  in the child before it reports ``ready``).  The result is
  byte-identical to a shard that never failed — see
  :mod:`repro.net.host` for the argument and its one caveat;
* **rotates** — :meth:`Router.snapshot_shard` writes the shard's state
  atomically to ``wal_root/shard-NN.state`` and retires every WAL
  segment it covers, so recovery becomes snapshot + suffix replay.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.capture.writer import CaptureWriter
from repro.core import spans
from repro.core.manager import ScopeManager, check_user_name
from repro.core.scope import Scope, ScopeError
from repro.eventloop.loop import MainLoop
from repro.net.host import ScopeFactory, ShardDown, ShardHost, SupervisionStats
from repro.net.shard import HashRing, ShardStats
from repro.net.worker import WorkerHandle

__all__ = [
    "BACKENDS",
    "ProcessShardedScopeManager",
    "Router",
    "ShardedScopeManager",
]

#: Where shards run: in this process, or one forked worker per shard.
BACKENDS = ("loop", "worker")

#: Scrape-only gauges of a worker's current handle: router-side socket
#: queue and shared-memory ring.  They reflect kernel/socket timing, so
#: they are mounted ``wall=True`` (never published).
_WORKER_GAUGES = {
    "worker_pending_bytes": lambda handle: float(handle.pending_bytes),
    "ring_occupancy": lambda handle: (
        handle.ring.occupancy() if handle.ring is not None else 0.0
    ),
    "ring_fallbacks": lambda handle: float(
        handle.ring.fallbacks if handle.ring is not None else 0
    ),
}


class Router:
    """Routes pushes to N shards on one ring; optionally supervises them.

    Parameters
    ----------
    shards:
        Initial number of shards (ids ``0..shards-1``; ids survive
        restarts, so routing never changes under failover).
    loop:
        The router loop — the one the server, clients and monitor share,
        and the home of in-loop shards.  Its clock stamps deliveries and
        WAL push instants.  Default: a fresh loop.
    backend:
        ``"loop"`` (shards in this process) or ``"worker"`` (one forked
        worker process per shard).
    scope_factory:
        Deterministic builder ``(manager, shard_id) -> None`` run on each
        fresh shard manager — at construction and at every restart.  It
        should register signals and start polling.
    wal_root:
        Turns on WAL-first supervision: per-shard write-ahead logs under
        ``wal_root/shard-NN/`` and rotation snapshots beside them.
    use_shm:
        Worker backend: column bytes travel a shared-memory ring instead
        of the socket.
    heartbeat_ms:
        Supervised in-loop hosts: heartbeat period on the private loop.
    heartbeat_s:
        Worker backend: idle beat interval on the control channel (real
        seconds).
    monitor_interval_ms / miss_threshold:
        Monitor tick period (default: ``heartbeat_ms``; never shorter,
        or a healthy host would look silent) and the number of silent
        ticks that trigger a restart.
    segment_samples:
        WAL segment flush threshold.
    auto_start:
        Arm the monitor at construction (supervised routers only).
    rotate_on_restart:
        Snapshot and retire the WAL right after every restart.
    """

    def __init__(
        self,
        shards: int = 4,
        loop: Optional[MainLoop] = None,
        *,
        backend: str = "loop",
        scope_factory: Optional[ScopeFactory] = None,
        wal_root: Optional[Union[str, Path]] = None,
        use_shm: bool = False,
        heartbeat_ms: float = 50.0,
        heartbeat_s: float = 1.0,
        monitor_interval_ms: Optional[float] = None,
        miss_threshold: int = 3,
        segment_samples: int = 1 << 12,
        auto_start: bool = True,
        rotate_on_restart: bool = False,
    ) -> None:
        if shards <= 0:
            raise ValueError(f"shards must be positive: {shards}")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}: {backend!r}")
        if miss_threshold <= 0:
            raise ValueError(f"miss_threshold must be positive: {miss_threshold}")
        interval = heartbeat_ms if monitor_interval_ms is None else monitor_interval_ms
        if interval < heartbeat_ms:
            raise ValueError(
                "monitor interval shorter than the heartbeat would declare "
                f"healthy hosts dead: {interval} < {heartbeat_ms}"
            )
        self.backend = backend
        self.loop = loop if loop is not None else MainLoop()
        self.scope_factory = scope_factory
        self.wal_root = Path(wal_root) if wal_root is not None else None
        self.use_shm = bool(use_shm)
        self.heartbeat_ms = float(heartbeat_ms)
        self.heartbeat_s = float(heartbeat_s)
        self.monitor_interval_ms = float(interval)
        self.miss_threshold = int(miss_threshold)
        self.segment_samples = int(segment_samples)
        self.rotate_on_restart = bool(rotate_on_restart)
        # In-loop shards without a WAL are plain managers on the router
        # side: verdicts are synchronous and the router keeps the ledger.
        self._local = backend == "loop" and wal_root is None
        self._stats_cls = ShardStats if wal_root is None else SupervisionStats
        self._ring = HashRing(range(shards))
        # name → shard id, invalidated wholesale on membership change.
        self._route_cache: Dict[str, int] = {}
        self._targets: Dict[int, object] = {}
        self._stats: Dict[int, ShardStats] = {}
        self._retired = ShardStats()  # counters of removed shards
        self._wals: Optional[Dict[int, CaptureWriter]] = (
            None if wal_root is None else {}
        )
        self._silent_ticks: Dict[int, int] = {}
        self._epoch = 0  # bumps topology_version on ring change or restart
        self._next_id = shards
        self._tap_count = 0  # taps attached through the router
        # Worker queries: qid → home shard, so detach knows whom to tell.
        self._query_homes: Dict[str, int] = {}
        self._next_qid = 0
        self._monitor_id: Optional[int] = None
        self._metrics = None  # (registry, prefix) once mounted
        self._closed = False
        #: Replaced targets, retained for post-mortem (crash_error, stats).
        self.quarantined: List[object] = []
        try:
            for shard_id in range(shards):
                self._build_shard(shard_id)
        except BaseException:
            self.close()
            raise
        if self._wals is not None and auto_start:
            self.start()

    # ------------------------------------------------------------------
    # Shard targets
    # ------------------------------------------------------------------
    def _build_shard(self, shard_id: int) -> None:
        self._stats[shard_id] = self._stats_cls()
        self._silent_ticks[shard_id] = 0
        if self._wals is not None:
            self._wals[shard_id] = CaptureWriter(
                self._wal_path(shard_id), segment_samples=self.segment_samples
            )
        self._targets[shard_id] = self._new_target(shard_id, None)

    def _new_target(self, shard_id: int, start_now: Optional[float]):
        """Build one shard's target; a restart passes ``start_now``.

        A restarted host or worker restores the shard's snapshot and
        replays its WAL through ``start_now`` before it is returned.
        """
        supervised = self._wals is not None
        if self.backend == "worker":
            return WorkerHandle(
                shard_id,
                self.scope_factory,
                heartbeat_s=self.heartbeat_s,
                wal_path=self._wal_path(shard_id) if supervised else None,
                state_path=self.state_path(shard_id) if supervised else None,
                start_now=start_now or 0.0,
                use_shm=self.use_shm,
            )
        if not supervised:
            manager = ScopeManager(self.loop)
            if self.scope_factory is not None:
                self.scope_factory(manager, shard_id)
            return manager
        host = ShardHost(
            shard_id, self.scope_factory, self.heartbeat_ms, stats=self._stats[shard_id]
        )
        if start_now is not None:
            host.restore(self.state_path(shard_id), self._wal_path(shard_id), start_now)
        return host

    @property
    def n_shards(self) -> int:
        return len(self._targets)

    @property
    def shard_ids(self) -> List[int]:
        """Live shard ids, ascending (contiguous until membership changes)."""
        return sorted(self._targets)

    def handle_of(self, shard_id: int):
        """The delivery target of one shard (manager, host or worker)."""
        try:
            return self._targets[shard_id]
        except KeyError:
            raise ValueError(f"unknown shard id: {shard_id}") from None

    @property
    def targets(self) -> list:
        """Every shard's target, in shard-id order."""
        return [self._targets[i] for i in sorted(self._targets)]

    def manager_of(self, shard_id: int) -> ScopeManager:
        """The in-process manager of one shard."""
        target = self.handle_of(shard_id)
        if isinstance(target, WorkerHandle):
            raise ValueError(
                f"shard {shard_id} is a worker process; its manager lives "
                "in the child"
            )
        return target.manager if isinstance(target, ShardHost) else target

    @property
    def managers(self) -> List[ScopeManager]:
        """The per-shard managers, in shard-id order."""
        return [self.manager_of(i) for i in sorted(self._targets)]

    @property
    def loops(self) -> List[MainLoop]:
        """Distinct loops driving the shard managers, in first-use order."""
        seen: List[MainLoop] = []
        for manager in self.managers:
            if manager.loop not in seen:
                seen.append(manager.loop)
        return seen

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, name: str) -> int:
        """Home shard id for a signal (or scope) name."""
        shard_id = self._route_cache.get(name)
        if shard_id is None:
            shard_id = self._route_cache[name] = self._ring.locate(name)
        return shard_id

    def push_sample(self, name: str, time_ms: float, value: float) -> int:
        return self.push_samples(name, (time_ms,), (value,))

    def push_samples(self, name: str, times, values) -> int:
        """Route one signal's columns to its home shard.

        In-loop shards return how many samples a scope accepted; the
        shortfall is counted as that shard's late drops — the
        slow-consumer signal (Section 4.4).  Supervised shards WAL the
        batch first; a push that finds its shard dead returns 0 and is
        counted in ``lost_deliveries`` (the restart replays it).  Worker
        shards return the offered count.

        Reserved ``__obs.`` names are rejected; internal telemetry
        enters through :meth:`push_obs`.
        """
        tracer = spans.tracer
        if tracer is not None:
            with tracer.span("route", signal=name, n=len(times)):
                return self._route(name, times, values, False)
        return self._route(name, times, values, False)

    def push_obs(self, name: str, times, values) -> int:
        """Trusted reserved-namespace entry: identical routing/accounting.

        This is what lets a :class:`~repro.obs.metrics.MetricsPublisher`
        sink straight into the router — ``__obs.`` samples ride the same
        ring, the same shard ledgers, the same taps and WALs.
        """
        return self._route(name, times, values, True)

    def _route(self, name: str, times, values, trusted: bool) -> int:
        shard_id = self.shard_of(name)
        target = self._targets[shard_id]
        stats = self._stats[shard_id]
        n = len(times)
        if self._local:
            # The manager rejects reserved names on push_samples itself.
            accepted = (target.push_obs if trusted else target.push_samples)(
                name, times, values
            )
            stats.offered += n
            stats.accepted += accepted
            stats.dropped_late += n - accepted
            if self._tap_count:
                stats.tap_bytes += 16 * n * self._tap_count
            return accepted
        if not trusted:
            check_user_name(name)  # before the WAL: never durable history
        now = self.loop.clock.now()
        if self._wals is not None:
            self._wals[shard_id].on_push(name, times, values, now)
            stats.wal_bytes += 16 * n  # two float64 columns
        try:
            delivered = target.deliver(now, name, times, values)
        except ShardDown:
            if self._wals is None:
                raise  # no WAL holds the batch: the caller must hear
            stats.lost_deliveries += 1
            return 0
        if self.backend == "worker":
            stats.offered += delivered
        return delivered

    def advance_all(self, now: Optional[float] = None) -> None:
        """Advance every host's or worker's private clock to ``now``.

        Without traffic a private loop only moves on messages; this is
        the tick that keeps polls and heartbeats going on idle shards.
        In-loop shards share the router loop and need no advancing.
        """
        if self._local:
            return
        if now is None:
            now = self.loop.clock.now()
        for target in self._targets.values():
            target.advance(now)

    # ------------------------------------------------------------------
    # Ring membership (in-loop shards)
    # ------------------------------------------------------------------
    def _bump_epoch(self) -> None:
        self._epoch += 1
        self._route_cache.clear()

    def _require_membership(self) -> None:
        if not self._local:
            raise ValueError("membership changes need in-loop shards without a WAL")

    def _migrate_scopes(self) -> None:
        """Move every scope to its name's (possibly new) home shard."""
        for shard_id in sorted(self._targets):
            manager = self._targets[shard_id]
            for scope in manager.scopes:
                home = self.shard_of(scope.name)
                if home != shard_id:
                    self._targets[home].adopt_scope(manager.release_scope(scope.name))

    def add_shard(self) -> int:
        """Add one shard; remap (and migrate) ~1/N of the namespace.

        Returns the new shard id.
        """
        self._require_membership()
        shard_id = self._next_id
        self._next_id += 1
        self._build_shard(shard_id)
        self._ring.add(shard_id)
        self._bump_epoch()
        self._migrate_scopes()
        self._remount_metrics()
        return shard_id

    def remove_shard(self, shard_id: int) -> None:
        """Retire a shard; its ~1/N arc remaps to the survivors.

        The retired shard's scopes migrate to their names' new homes and
        its ingest counters fold into the retained totals, so
        :meth:`totals` keeps counting its traffic.
        """
        self.handle_of(shard_id)
        if len(self._targets) == 1:
            raise ValueError("cannot remove the last shard")
        self._require_membership()
        self._ring.remove(shard_id)
        self._bump_epoch()
        retiring = self._targets.pop(shard_id)
        for scope in retiring.scopes:
            home = self.shard_of(scope.name)
            self._targets[home].adopt_scope(retiring.release_scope(scope.name))
        del self._silent_ticks[shard_id]
        self._retired.fold(self._stats.pop(shard_id))
        self._migrate_scopes()
        self._remount_metrics()

    # ------------------------------------------------------------------
    # Scope lifecycle (delegated to the owning shard)
    # ------------------------------------------------------------------
    def scope_new(
        self, name: str, shard: Optional[int] = None, **kwargs: object
    ) -> Scope:
        """Create a scope on ``shard`` (default: the name's home shard)."""
        shard_id = self.shard_of(name) if shard is None else shard
        return self.manager_of(shard_id).scope_new(name, **kwargs)

    def scope_remove(self, name: str) -> None:
        for manager in self.managers:
            if name in manager:
                manager.scope_remove(name)
                return
        raise ScopeError(f"unknown scope: {name!r}")

    def scope(self, name: str) -> Scope:
        for manager in self.managers:
            if name in manager:
                return manager.scope(name)
        raise ScopeError(f"unknown scope: {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(name in manager for manager in self.managers)

    def __len__(self) -> int:
        return sum(len(manager) for manager in self.managers)

    @property
    def scopes(self) -> List[Scope]:
        """Every scope across every shard, in shard-id order."""
        return [scope for manager in self.managers for scope in manager.scopes]

    def start_all(self) -> None:
        for manager in self.managers:
            manager.start_all()

    def stop_all(self) -> None:
        for manager in self.managers:
            manager.stop_all()

    def run_for(self, duration_ms: float) -> None:
        """Drive every distinct shard loop for ``duration_ms``."""
        for loop in self.loops:
            loop.run_for(duration_ms)

    # ------------------------------------------------------------------
    # Capture taps and continuous queries
    # ------------------------------------------------------------------
    def add_tap(self, tap) -> None:
        """Attach one push tap across every in-loop shard.

        A push routes to exactly one home shard, so the tap still sees
        each offered batch once.
        """
        if not self._local:
            raise ValueError(
                "taps attach to in-loop shards; supervised and worker shards "
                "replace their managers on restart"
            )
        for manager in self.managers:
            manager.add_tap(tap)
        self._tap_count += 1

    def remove_tap(self, tap) -> None:
        for manager in self.managers:
            manager.remove_tap(tap)
        self._tap_count -= 1

    def attach_query(
        self,
        query: str,
        params: Optional[Dict[str, float]] = None,
        timeout_s: float = 10.0,
    ):
        """Attach a continuous query; ``$name`` parameters bind first.

        In-loop shards: the :class:`~repro.query.live.LiveQuery` taps
        every shard and pushes its derived outputs back through the
        router, so sources and outputs may live on different shards; it
        is returned.  Worker shards: the bound text is compiled here and
        shipped to the single worker owning **all** its sources (a
        process shard sees only its own pushes, so a query spanning
        workers would silently starve — it is rejected); the outputs
        live on that worker, and the query id is returned for
        :meth:`detach_query`.  Either way a mid-stream failure
        quarantines the query and is counted as ``query_quarantines`` on
        its home shard.  Worker queries are not re-attached after a
        worker restart.
        """
        from repro.query import LiveQuery, QueryCompileError, bind_params, compile_query

        bound = bind_params(query, params)
        plan = compile_query(bound)
        if self.backend == "loop":
            live = LiveQuery(plan, self)
            home = self.shard_of(sorted(plan.source_names)[0])

            def count_quarantine(_live, _exc, shard_id=home) -> None:
                stats = self._stats.get(shard_id)
                if stats is not None:
                    stats.query_quarantines += 1

            live.on_quarantine(count_quarantine)
            return live
        homes = {self.shard_of(name) for name in plan.source_names}
        if len(homes) > 1:
            raise ValueError(
                f"query sources {sorted(plan.source_names)} span shards "
                f"{sorted(homes)}; process-plane queries need a single "
                f"home worker"
            )
        shard_id = homes.pop()
        qid = f"pq{self._next_qid}"
        self._next_qid += 1
        reply = self._targets[shard_id].attach_query(qid, bound, timeout_s=timeout_s)
        if reply.get("error"):
            raise QueryCompileError(str(reply["error"]))
        self._query_homes[qid] = shard_id
        return qid

    def detach_query(self, qid: str, timeout_s: float = 10.0) -> None:
        """Detach a worker query by id (idempotent)."""
        shard_id = self._query_homes.pop(qid, None)
        if shard_id is not None:
            self._targets[shard_id].detach_query(qid, timeout_s=timeout_s)

    # ------------------------------------------------------------------
    # Manager protocol (what ScopeServer consumes)
    # ------------------------------------------------------------------
    @property
    def topology_version(self) -> int:
        """Changes whenever any shard's scope set, the ring, or a shard
        restarts.

        Membership changes remap names across shards and a restart
        brings a fresh manager, so every cached name→carrier conclusion
        is stale even though no single manager's scope set changed;
        folding the epoch in gives downstream caches (the server's
        auto-create path, the route cache) one invalidation signal.
        """
        local = 0 if self.backend == "worker" else sum(
            manager.topology_version for manager in self.managers
        )
        return self._epoch * 1_000_003 + local

    def carries(self, name: str) -> bool:
        """True when the name's home shard carries the signal."""
        return self.manager_of(self.shard_of(name)).carries(name)

    def auto_create(self, name: str) -> bool:
        """Auto-register ``name`` on its home shard's first scope."""
        return self.manager_of(self.shard_of(name)).auto_create(name)

    # ------------------------------------------------------------------
    # Supervision: monitor, restart, snapshot + WAL rotation
    # ------------------------------------------------------------------
    def _wal_path(self, shard_id: int) -> Path:
        return self.wal_root / f"shard-{shard_id:02d}"

    def state_path(self, shard_id: int) -> Path:
        """Snapshot file for one shard (sibling of its WAL directory)."""
        return self.wal_root / f"shard-{shard_id:02d}.state"

    def start(self) -> None:
        """Arm the monitor on the router loop."""
        if self._monitor_id is None:
            self._monitor_id = self.loop.timeout_add(
                self.monitor_interval_ms, self._monitor
            )

    def stop(self) -> None:
        """Disarm the monitor (faults go undetected while stopped)."""
        if self._monitor_id is not None:
            self.loop.remove(self._monitor_id)
            self._monitor_id = None

    @property
    def monitoring(self) -> bool:
        return self._monitor_id is not None

    def _monitor(self, lost: int = 0) -> bool:
        now = self.loop.clock.now()
        for shard_id in sorted(self._targets):
            target = self._targets[shard_id]
            if target.failed():
                self.restart_shard(shard_id)
                continue
            target.advance(now)
            if target.beating():
                self._silent_ticks[shard_id] = 0
                continue
            self._stats[shard_id].missed_beats += 1
            self._silent_ticks[shard_id] += 1
            if self._silent_ticks[shard_id] >= self.miss_threshold:
                self.restart_shard(shard_id)
        return True

    def restart_shard(self, shard_id: int):
        """Replace a shard's target and catch it up from snapshot + WAL.

        A worker's old process is killed outright (it is usually already
        dead).  The WAL's partial segment is flushed so the fresh target
        sees every recorded push, and the fresh target restores through
        the router's current instant before it is installed — no new
        delivery can race the recovery.  The shard's ledger persists:
        its ingest counters are rebuilt by the restore, the supervision
        counters carry on.  The replaced target moves to
        :attr:`quarantined`.
        """
        if self._wals is None:
            raise ValueError("restart needs a supervised router (wal_root=)")
        old = self.handle_of(shard_id)
        if isinstance(old, WorkerHandle):
            old.kill()
            old.close(timeout_s=2.0)
        self._wals[shard_id].flush_segment()
        now = self.loop.clock.now()
        stats = self._stats[shard_id]
        stats.restarts += 1
        stats.last_restart_at = now
        stats.offered = stats.accepted = stats.dropped_late = 0
        target = self._new_target(shard_id, now)
        stats.replayed_samples = target.replayed_samples
        self._targets[shard_id] = target
        self._silent_ticks[shard_id] = 0
        target.beating()  # the next tick measures from the restart
        self._epoch += 1
        self.quarantined.append(old)
        if self.rotate_on_restart:
            # The fresh target embodies the full WAL history; snapshot it
            # and retire the replayed segments immediately.
            self.snapshot_shard(shard_id)
        return target

    def _restart_failed(self) -> None:
        for shard_id in sorted(self._targets):
            if self._targets[shard_id].failed():
                self.restart_shard(shard_id)

    def snapshot(self, shard_id: int) -> dict:
        """One host's or worker's state dict at its latest instant.

        A worker's request is queued behind every delivery already sent,
        so the state covers all of them.
        """
        return self.handle_of(shard_id).snapshot_state()

    def snapshot_shard(self, shard_id: int) -> dict:
        """Snapshot one shard at the router instant and retire its WAL.

        The shard advances through the router's current instant, its
        state dict is written atomically to :meth:`state_path`, and every
        WAL segment — all covered by the snapshot — is deleted, with a
        fresh writer continuing in the same directory.  WAL disk stays
        bounded by the snapshot cadence instead of growing with history.
        Only a running shard can snapshot.
        """
        target = self.handle_of(shard_id)
        target.advance(self.loop.clock.now())
        snap = target.snapshot_state()
        state_path = self.state_path(shard_id)
        tmp = state_path.with_suffix(".state.tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(snap, fh)
        os.replace(tmp, state_path)  # atomic: never a torn state file
        # The live (partial) segment is flushed by close(); the fresh
        # writer restarts segment numbering at zero, preserving the
        # reader's contiguous-from-0 contract.
        writer = self._wals[shard_id]
        writer.close()
        for segment in sorted(writer.path.glob("*.gseg")):
            segment.unlink()
        self._wals[shard_id] = CaptureWriter(
            writer.path, segment_samples=self.segment_samples
        )
        return snap

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash_shard(self, shard_id: int) -> None:
        """Crash an in-process host, or SIGKILL a worker process."""
        target = self.handle_of(shard_id)
        if isinstance(target, WorkerHandle):
            target.kill()
        else:
            target.crash()

    def stall_shard(self, shard_id: int) -> None:
        self.handle_of(shard_id).stall()

    def resume_shard(self, shard_id: int) -> None:
        self.handle_of(shard_id).resume()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def drain(self, timeout_s: float = 60.0) -> None:
        """Worker backend: block until every worker has ingested
        everything routed to it, then pull the workers' ledgers.

        Supervised workers restart first if dead, and the target is the
        WAL ledger: a respawned worker's ``offered`` covers replayed
        *and* live samples, and the WAL count is exactly that union.
        Real-time bound: raises :class:`~repro.net.worker.WorkerDied`
        if a worker falls permanently behind (or died) within
        ``timeout_s``.
        """
        if self._wals is not None:
            self._restart_failed()
        for shard_id in sorted(self._targets):
            handle = self._targets[shard_id]
            stats = self._stats[shard_id]
            goal = (
                stats.wal_bytes // 16 if self._wals is not None else handle.samples_sent
            )
            remote = handle.drain(goal, timeout_s=timeout_s)
            for key in ("offered", "accepted", "dropped_late", "query_quarantines"):
                setattr(stats, key, int(remote[key]))

    def shard_stats(self) -> List[ShardStats]:
        """Per-shard ledgers in shard-id order (live references)."""
        return [self._stats[i] for i in sorted(self._stats)]

    def totals(self) -> Dict[str, int]:
        """Ledgers summed across shards, retired ones included.

        Worker verdicts are as of the last :meth:`drain`.
        """
        out = self._retired.as_dict()
        for stats in self._stats.values():
            for key, value in stats.as_dict().items():
                out[key] = out.get(key, 0) + value
        return out

    def register_metrics(self, registry, prefix: str = "shard") -> None:
        """Mount per-shard ledgers as ``<prefix><id>.<field>`` cells.

        ``__obs.shard0.dropped_late`` is exactly shard 0's live
        ``dropped_late`` cell, published by a
        :class:`~repro.obs.metrics.MetricsPublisher` walking this
        registry.  Ledgers outlive restarts, so one mount stays live;
        membership changes re-mount, and the retired ledger is mounted
        under ``<prefix>_retired.`` (an underscore, not a dot: the query
        lexer's NAME token keeps it queryable).  Worker shards add
        scrape-only queue and shm-ring gauges that follow respawns.
        """
        self._metrics = (registry, prefix)
        for shard_id in sorted(self._stats):
            shard_prefix = f"{prefix}{shard_id}."
            self._stats[shard_id].register_metrics(registry, shard_prefix)
            if self.backend == "worker":
                for field, read in _WORKER_GAUGES.items():
                    registry.gauge(
                        shard_prefix + field,
                        fn=lambda sid=shard_id, read=read: read(self._targets[sid]),
                        wall=True,
                    )
        self._retired.register_metrics(registry, f"{prefix}_retired.")

    def _remount_metrics(self) -> None:
        if self._metrics is not None:
            registry, prefix = self._metrics
            registry.unmount_prefix(prefix)
            self.register_metrics(registry, prefix)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout_s: float = 10.0) -> None:
        """Stop monitoring, shut workers down, seal the WALs."""
        if self._closed:
            return
        self._closed = True
        self.stop()
        for target in self._targets.values():
            if isinstance(target, WorkerHandle):
                target.close(timeout_s=timeout_s)
        for wal in (self._wals or {}).values():
            wal.close()

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def ShardedScopeManager(shards: int = 4, loop: Optional[MainLoop] = None) -> Router:
    """An in-loop :class:`Router`: one ScopeManager per shard."""
    return Router(shards, loop)


def ProcessShardedScopeManager(
    shards: int = 4,
    scope_factory: Optional[ScopeFactory] = None,
    loop: Optional[MainLoop] = None,
    heartbeat_s: float = 1.0,
    use_shm: bool = False,
) -> Router:
    """A worker :class:`Router` without a WAL: one forked worker per shard."""
    return Router(
        shards,
        loop,
        backend="worker",
        scope_factory=scope_factory,
        heartbeat_s=heartbeat_s,
        use_shm=use_shm,
    )
