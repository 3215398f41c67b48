"""Server-side continuous queries: compiled plans, multiplexed fan-out.

The paper's model has every dashboard client pull raw signals and
derive locally, which multiplies ingest *and* derivation cost by the
number of viewers.  This module moves the PR 5 query engine to the
server: a client ships query text (plus bind-time parameters) in a
``QUERY`` frame, the server compiles it into a
:class:`~repro.query.compile.Plan` and attaches one
:class:`~repro.query.live.LiveQuery` tap at ingest, and N subscribers
of the same derived view share that single evaluation — only the
derived columns fan out, as ordinary NAME_DEF + SAMPLES frames.

The QUERY channel (JSON payloads, version-2 frames)::

    client → server
      {"op": "query",       "id": qid, "text": "...", "params": {...}}
      {"op": "subscribe",   "id": qid}
      {"op": "unsubscribe", "id": qid}

    server → client
      {"op": "compiled",     "id": qid, "outputs": [...], "sources": [...]}
      {"op": "subscribed",   "id": qid}
      {"op": "unsubscribed", "id": qid}
      {"op": "error",        "id": qid, "error": "..."}

Sharing is keyed on the **canonical compiled plan**
(:func:`~repro.query.compile.plan_key`): whitespace, comments,
intermediate naming and parameter spelling all vanish in compilation,
so two clients subscribing ``rate(pkts)`` and ``rate( pkts )  # same``
share one evaluation, while different bound parameter values compile to
different folded constants and evaluate separately.  Subscriptions are
refcounted: the last unsubscribe (or disconnect) detaches the
``LiveQuery`` from the manager — detach is immediate and without
replay, exactly like any tap removal.

A shared query that fails mid-stream quarantines itself (PR 9's
:class:`LiveQuery` semantics: auto-detach, error recorded); the
multiplexer then notifies every subscriber with an ``error`` reply and
drops the shared evaluation, counting it in :meth:`QueryMultiplexer.stats`.

Fan-out cost model: one derived batch is **encoded once per distinct
wire id** and the same immutable bytes are handed to every subscriber's
transmit queue, so the marginal cost of subscriber N is an enqueue and
a transport send of shared bytes — no per-subscriber encode, no
per-subscriber evaluation.  That is what makes 1k subscribers on one
view cost close to one (benchmark X12e pins the <2x target).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core import spans
from repro.core.cells import NULL, Counter
from repro.eventloop.sources import IOCondition
from repro.net.protocol import (
    ProtocolError,
    encode_binary_samples,
    encode_name_def,
    encode_query,
)
from repro.net.transport import TransportClosed
from repro.query import (
    LiveQuery,
    Plan,
    QueryError,
    bind_params,
    compile_query,
    plan_key,
)

__all__ = ["QueryMultiplexer", "SharedQuery"]

#: Query-plane ledger counters, cell-backed so ``register_metrics`` can
#: publish them; ``stats()`` reads the same cells.
_COUNTER_FIELDS = (
    "queries_compiled",
    "compile_errors",
    "quarantined",
    "samples_fanned",
    "encode_bytes_saved",
)


class _SessionTx:
    """Server→client transmit queue for one subscriber session.

    The server's receive path never writes; subscriptions make sessions
    full-duplex.  Sends are try-first: most transports (the in-memory
    pair always, sockets usually) take the whole buffer immediately, and
    only a partial write arms an OUT watch to drain the rest.  Queued
    entries are immutable ``bytes`` shared across subscribers — the
    queue holds references, never copies.

    Each session has its own server→client name interning (ids must be
    unique per connection across *all* its subscriptions), kept separate
    from the client→server table in ``ClientState.names``.
    """

    def __init__(self, loop, endpoint) -> None:
        self.loop = loop
        self.endpoint = endpoint
        self.name_ids: Dict[str, int] = {}
        self._queue: Deque[bytes] = deque()
        self._head_offset = 0
        self._watch_id: Optional[int] = None
        self.down = False
        self.bytes_sent = 0

    def intern(self, name: str) -> int:
        """Wire id for ``name``, queueing its NAME_DEF on first use."""
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = len(self.name_ids)
            self.name_ids[name] = name_id
            self.send(encode_name_def(name_id, name))
        return name_id

    def send(self, data: bytes) -> None:
        if self.down:
            return
        if not self._queue:
            # Fast path (the fan-out hot loop lands here): nothing
            # queued, try the whole buffer in one transport call.
            try:
                sent = self.endpoint.send(data)
            except BlockingIOError:
                sent = 0  # kernel buffer full; fall through to the queue
            except (TransportClosed, OSError):
                self._mark_down()
                return
            self.bytes_sent += sent
            if sent == len(data):
                return
            self._head_offset = sent
            self._queue.append(data)
            self._ensure_watch()
            return
        self._queue.append(data)
        self._drain()

    def _drain(self) -> None:
        while self._queue:
            head = self._queue[0]
            try:
                if not self.endpoint.writable():
                    self._ensure_watch()
                    return
                sent = self.endpoint.send(
                    head[self._head_offset :] if self._head_offset else head
                )
            except (TransportClosed, OSError):
                self._mark_down()
                return
            self.bytes_sent += sent
            self._head_offset += sent
            if self._head_offset < len(head):
                self._ensure_watch()
                return
            self._queue.popleft()
            self._head_offset = 0
        self._remove_watch()

    def _ensure_watch(self) -> None:
        if self._watch_id is None and not self.down:
            self._watch_id = self.loop.io_add_watch(
                self.endpoint, IOCondition.OUT, self._on_writable
            )

    def _on_writable(self, channel, condition) -> bool:
        self._drain()
        return self._watch_id is not None

    def _remove_watch(self) -> None:
        if self._watch_id is not None:
            self.loop.remove(self._watch_id)
            self._watch_id = None

    def _mark_down(self) -> None:
        # The read path owns the disconnect; we just stop queueing.
        self.down = True
        self._queue.clear()
        self._head_offset = 0
        self._remove_watch()

    def close(self) -> None:
        self._remove_watch()
        self._queue.clear()
        self._head_offset = 0
        self.down = True


class _Session:
    """Per-client query bookkeeping: compiled plans and subscriptions."""

    def __init__(self, loop, endpoint) -> None:
        self.tx = _SessionTx(loop, endpoint)
        self.compiled: Dict[str, Plan] = {}  # qid → compiled plan
        self.subscribed: Dict[str, "SharedQuery"] = {}

    def reply(self, payload: Dict[str, Any]) -> None:
        self.tx.send(encode_query(payload))


class SharedQuery:
    """One live evaluation serving every subscriber of a derived view."""

    def __init__(self, key: Tuple, live: LiveQuery, fanned=NULL, bytes_saved=NULL) -> None:
        self.key = key
        self.live = live
        #: Subscribers as (session, qid) — one session may subscribe the
        #: same view under several qids (different dashboards, one
        #: connection); each gets its own ack/teardown lifecycle but the
        #: frames are shared per session-direction interning.
        self.subscribers: List[Tuple[_Session, str]] = []
        self.samples_fanned = 0
        # Multiplexer-level ledger cells (NULL when standalone): every
        # fanned sample and every encode skipped by frame sharing.
        self._fanned_cell = fanned
        self._saved_cell = bytes_saved
        # Unique transmit queues, derived from `subscribers`; rebuilt
        # lazily after membership changes so the fan-out hot loop walks
        # a flat list instead of re-deduplicating sessions every batch.
        self._targets: Optional[List[_SessionTx]] = None

    @property
    def refcount(self) -> int:
        return len(self.subscribers)

    def add_subscriber(self, session: "_Session", qid: str) -> None:
        self.subscribers.append((session, qid))
        self._targets = None

    def remove_subscriber(self, session: "_Session", qid: str) -> bool:
        try:
            self.subscribers.remove((session, qid))
        except ValueError:
            return False
        self._targets = None
        return True

    def clear_subscribers(self) -> None:
        self.subscribers.clear()
        self._targets = None

    def fan_out(self, name: str, times, values) -> None:
        """Ship one derived batch to every subscriber.

        Encoded once per distinct wire id: subscribers whose sessions
        interned ``name`` to the same id (the common case — derived
        names intern in emission order) share the exact frame bytes.
        """
        targets = self._targets
        if targets is None:
            seen = set()
            targets = []
            for session, _qid in self.subscribers:
                if id(session) not in seen:
                    seen.add(id(session))  # one copy per session
                    targets.append(session.tx)
            self._targets = targets
        if not targets:
            return
        tracer = spans.tracer
        if tracer is not None:
            with tracer.span("fanout", signal=name, n=int(times.shape[0]), targets=len(targets)):
                self._fan_out(name, times, values, targets)
        else:
            self._fan_out(name, times, values, targets)

    def _fan_out(self, name: str, times, values, targets: List[_SessionTx]) -> None:
        frames_by_id: Dict[int, bytes] = {}
        for tx in targets:
            name_id = tx.name_ids.get(name)
            if name_id is None:
                name_id = tx.intern(name)
            frame = frames_by_id.get(name_id)
            if frame is None:
                frame = encode_binary_samples(name_id, times, values)
                frames_by_id[name_id] = frame
            else:
                # Encode-once dividend: this subscriber reuses an
                # already-encoded frame instead of paying its own encode.
                self._saved_cell.inc(len(frame))
            tx.send(frame)
        fanned = times.shape[0] * len(targets)
        self.samples_fanned += fanned
        self._fanned_cell.inc(fanned)


class QueryMultiplexer:
    """The server's continuous-query registry.

    Owns every compiled plan, shared evaluation and subscriber transmit
    queue for one :class:`~repro.net.server.ScopeServer`.  The server
    calls :meth:`handle` for each QUERY frame and :meth:`drop_session`
    when a client leaves; everything else is internal.
    """

    def __init__(self, loop, manager) -> None:
        self.loop = loop
        self.manager = manager
        self._shared: Dict[Tuple, SharedQuery] = {}
        self._sessions: Dict[int, _Session] = {}  # id(ClientState) → session
        # Ledger cells: cumulative across dropped views (a retired
        # SharedQuery's fanned samples stay counted), so stats() needs no
        # retired/active split.
        self._cells: Dict[str, Counter] = {k: Counter(k) for k in _COUNTER_FIELDS}

    @property
    def queries_compiled(self) -> int:
        return self._cells["queries_compiled"].value

    @property
    def compile_errors(self) -> int:
        return self._cells["compile_errors"].value

    @property
    def quarantined(self) -> int:
        return self._cells["quarantined"].value

    # -- session plumbing ----------------------------------------------
    def _session(self, state) -> _Session:
        session = self._sessions.get(id(state))
        if session is None:
            session = _Session(self.loop, state.endpoint)
            self._sessions[id(state)] = session
        return session

    def drop_session(self, state) -> None:
        """Unsubscribe everything a departing client held (no replay)."""
        session = self._sessions.pop(id(state), None)
        if session is None:
            return
        for qid, shared in list(session.subscribed.items()):
            self._unsubscribe(session, shared, qid)
        session.subscribed.clear()
        session.tx.close()

    # -- the QUERY channel ---------------------------------------------
    def handle(self, state, payload: Dict[str, Any]) -> None:
        """Dispatch one decoded QUERY payload from ``state``.

        Compile failures are *replies*, not protocol violations — a bad
        query must not kill a connection that also streams raw samples.
        A structurally malformed payload (missing op/id, wrong types)
        raises :class:`ProtocolError` and disconnects, like any other
        garbage on the wire.
        """
        op = payload.get("op")
        qid = payload.get("id")
        if not isinstance(op, str) or not isinstance(qid, (str, int)):
            raise ProtocolError(f"malformed QUERY payload: {payload!r}")
        qid = str(qid)
        session = self._session(state)
        if op == "query":
            self._op_query(session, qid, payload)
        elif op == "subscribe":
            self._op_subscribe(session, qid)
        elif op == "unsubscribe":
            self._op_unsubscribe(session, qid)
        else:
            raise ProtocolError(f"unknown QUERY op: {op!r}")

    def _op_query(self, session: _Session, qid: str, payload: Dict) -> None:
        text = payload.get("text")
        params = payload.get("params") or {}
        if not isinstance(text, str) or not isinstance(params, dict):
            raise ProtocolError(f"malformed query request: {payload!r}")
        try:
            plan = compile_query(bind_params(text, params))
        except QueryError as exc:
            self._cells["compile_errors"].inc()
            session.reply({"op": "error", "id": qid, "error": str(exc)})
            return
        session.compiled[qid] = plan
        self._cells["queries_compiled"].inc()
        session.reply(
            {
                "op": "compiled",
                "id": qid,
                "outputs": plan.output_names,
                "sources": plan.source_names,
            }
        )

    def _op_subscribe(self, session: _Session, qid: str) -> None:
        if qid in session.subscribed:
            session.reply({"op": "subscribed", "id": qid})  # idempotent
            return
        plan = session.compiled.get(qid)
        if plan is None:
            session.reply(
                {"op": "error", "id": qid, "error": f"unknown query id {qid!r}"}
            )
            return
        key = plan_key(plan)
        shared = self._shared.get(key)
        if shared is None:
            try:
                live = LiveQuery(plan, self.manager)
            except (QueryError, ValueError) as exc:
                session.reply({"op": "error", "id": qid, "error": str(exc)})
                return
            shared = SharedQuery(
                key,
                live,
                fanned=self._cells["samples_fanned"],
                bytes_saved=self._cells["encode_bytes_saved"],
            )
            live.on_output(shared.fan_out)
            live.on_quarantine(
                lambda _live, exc, s=shared: self._on_quarantine(s, exc)
            )
            self._shared[key] = shared
        shared.add_subscriber(session, qid)
        session.subscribed[qid] = shared
        session.reply({"op": "subscribed", "id": qid})

    def _op_unsubscribe(self, session: _Session, qid: str) -> None:
        shared = session.subscribed.pop(qid, None)
        if shared is not None:
            self._unsubscribe(session, shared, qid)
        session.reply({"op": "unsubscribed", "id": qid})

    def _unsubscribe(self, session: _Session, shared: SharedQuery, qid: str) -> None:
        if not shared.remove_subscriber(session, qid):
            return
        if not shared.subscribers:
            # Last subscriber gone: detach the evaluation immediately.
            # No replay on re-subscribe — a fresh LiveQuery starts from
            # the live stream, like any newly attached tap.
            shared.live.detach()
            self._shared.pop(shared.key, None)

    # -- failure surface -----------------------------------------------
    def _on_quarantine(self, shared: SharedQuery, exc: BaseException) -> None:
        """A shared evaluation died: tell every subscriber, drop it."""
        self._cells["quarantined"].inc()
        self._shared.pop(shared.key, None)
        for session, qid in shared.subscribers:
            session.subscribed.pop(qid, None)
            session.reply(
                {
                    "op": "error",
                    "id": qid,
                    "error": f"query quarantined: {exc}",
                }
            )
        shared.clear_subscribers()

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """The query-plane ledger (shared views, subscribers, failures).

        A view over the same cells :meth:`register_metrics` mounts —
        bridged accessors and published ``__obs.`` samples can never
        disagree.
        """
        return {
            "active_queries": len(self._shared),
            "subscribers": sum(s.refcount for s in self._shared.values()),
            "queries_compiled": self._cells["queries_compiled"].value,
            "compile_errors": self._cells["compile_errors"].value,
            "quarantined": self._cells["quarantined"].value,
            "samples_fanned": self._cells["samples_fanned"].value,
        }

    def register_metrics(self, registry, prefix: str = "queries.") -> None:
        """Mount the ledger cells plus live membership gauges."""
        for key in _COUNTER_FIELDS:
            registry.mount(prefix + key, self._cells[key])
        registry.gauge(f"{prefix}active", fn=lambda: float(len(self._shared)))
        registry.gauge(
            f"{prefix}subscribers",
            fn=lambda: float(sum(s.refcount for s in self._shared.values())),
        )

    def shared_queries(self) -> List[SharedQuery]:
        """Live shared evaluations (test/diagnostic surface)."""
        return list(self._shared.values())
