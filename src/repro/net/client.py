"""The gscope client API (Section 4.4).

"Clients use the gscope client API to connect to a server ... Clients
asynchronously send BUFFER signal data in tuple format to the server."

A :class:`ScopeClient` wraps an endpoint and timestamps outgoing samples
with its local clock (remote machines have their own clocks; the
display-delay mechanism absorbs skew up to the configured delay).  Sends
are asynchronous: samples queue locally and drain through an I/O watch
when the transport is writable, keeping the application single-threaded
and non-blocking, as Section 4.3 prescribes.

Two wire modes (see :mod:`repro.net.protocol`):

* ``"binary"`` (default) — batches go out as binary columnar frames:
  one length-prefixed frame per :meth:`send_samples` call, the time and
  value columns as contiguous ``float64`` payloads with no per-sample
  strings.  Signal names are interned once per connection via
  ``NAME_DEF`` control frames.
* ``"text"`` — the paper's newline-delimited tuple lines, for servers
  and tools that only speak the textual format.

Control frames (the HELLO handshake and name definitions) live in a
separate queue that back-pressure never drops — dropping a ``NAME_DEF``
would orphan every later frame that references its id.  The data-frame
queue is bounded by ``max_queue``; overflow drops the oldest whole frame,
except a partially-transmitted head frame, which is never dropped (that
would cut the byte stream mid-frame and corrupt the connection).

Reconnect
---------

Given a ``connect`` factory, the client survives a dead connection: it
notices (a failed send, or an endpoint reporting itself/its peer closed
during a flush), tears down the watch, and retries ``connect()`` under
capped exponential backoff with seeded jitter.  On success it re-runs
the session preamble — HELLO plus every ``NAME_DEF`` already interned,
in id order, since the new server session has no memory of the old — and
resends the head data frame *from byte zero*.  That is safe precisely
because queued frames keep their full bytes until fully transmitted:
fully-sent frames were popped (at-most-once per connection), and a
half-sent head lands on a fresh session that never saw its first half.
Data queued while down obeys the same bounded-queue overflow rule, so a
long outage degrades exactly like slow-consumer backpressure: oldest
frames drop, counted, freshest data survives to be displayed.

Subscriptions
-------------

:meth:`ScopeClient.subscribe` joins the server's continuous-query plane
(see :mod:`repro.net.queryservice`): the query text plus bind-time
parameters go out as a ``QUERY`` frame, the server compiles and
evaluates once per *distinct compiled plan* across all its clients, and
the derived columns come back as ordinary NAME_DEF + SAMPLES frames on
this same connection.  Subscribing makes the client full-duplex — an IN
watch decodes the server→client stream into per-subscription buffers.
Subscriptions survive reconnects: the preamble re-issues every active
QUERY + SUBSCRIBE, and a per-output monotonic guard sheds any overlap
so the resumed derived stream never duplicates a sample the old session
already delivered.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.cells import Counter, cell_property
from repro.eventloop.clock import Clock
from repro.eventloop.loop import MainLoop
from repro.eventloop.sources import IOCondition
from repro.net.protocol import (
    FrameDecoder,
    FrameKind,
    ProtocolError,
    encode_binary_samples,
    encode_hello,
    encode_name_def,
    encode_query,
    encode_sample,
    encode_samples,
)
from repro.net.transport import TransportClosed

ArrayLike = Union[Sequence[float], np.ndarray]

#: Client-side ledger counters, cell-backed so ``register_metrics`` can
#: mount them; ``totals()`` and the legacy attributes read the same cells.
_COUNTER_FIELDS = (
    "sent",
    "sent_frames",
    "bytes_sent",
    "dropped_samples",
    "dropped_frames",
    "reconnects",
)


class Subscription:
    """A client-side handle on one server-evaluated derived view.

    Created by :meth:`ScopeClient.subscribe`; derived batches arriving
    from the server accumulate in per-output column buffers (read them
    with :meth:`columns`, or drain as they arrive with :meth:`on_batch`
    callbacks).  The handle rides the client's reconnect path: after a
    session loss the QUERY + SUBSCRIBE preamble is re-issued
    automatically, and a per-output monotonic time guard drops any
    batch rows at-or-before the last delivered instant, so the resumed
    stream contains **no duplicated derived samples** (overlap is
    counted in :attr:`stale_dropped`, not silently eaten).
    """

    def __init__(self, client: "ScopeClient", qid: str, text: str, params, plan) -> None:
        self.client = client
        self.qid = qid
        self.text = text
        self.params = dict(params or {})
        self.plan = plan
        self.output_names = list(plan.output_names)
        self._outputs = set(self.output_names)
        self.active = True  # until unsubscribed or server-errored
        self.acked = False  # server confirmed compile
        self.subscribed = False  # server confirmed subscription
        self.error: Optional[str] = None
        self.received = 0
        self.stale_dropped = 0
        self.batches = 0
        self._buffers: Dict[str, List] = {name: [] for name in self.output_names}
        self._last_time: Dict[str, float] = {
            name: -np.inf for name in self.output_names
        }
        self._callbacks: List[Callable] = []

    def on_batch(self, fn: Callable[[str, np.ndarray, np.ndarray], None]) -> None:
        """Also deliver every derived batch to ``fn(name, times, values)``."""
        self._callbacks.append(fn)

    def wants(self, name: str) -> bool:
        return self.active and name in self._outputs

    def _deliver(self, name: str, times: np.ndarray, values: np.ndarray) -> None:
        last = self._last_time[name]
        if times.shape[0] and times[0] <= last:
            # Reconnect overlap: the fresh server evaluation re-derived
            # instants the old session already delivered.  Derived
            # emissions are monotone per output, so one searchsorted
            # finds the resume point.
            keep = int(np.searchsorted(times, last, side="right"))
            self.stale_dropped += keep
            times = times[keep:]
            values = values[keep:]
        if not times.shape[0]:
            return
        self._last_time[name] = float(times[-1])
        self.received += times.shape[0]
        self.batches += 1
        self._buffers[name].append((times, values))
        for fn in self._callbacks:
            fn(name, times, values)

    def columns(self, name: Optional[str] = None):
        """Concatenated ``(times, values)`` delivered for one output.

        ``name`` defaults to the single output of a one-output query.
        """
        if name is None:
            if len(self.output_names) != 1:
                raise ValueError(
                    f"query has {len(self.output_names)} outputs; name one of "
                    f"{self.output_names}"
                )
            name = self.output_names[0]
        parts = self._buffers[name]
        if not parts:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy()
        times = np.concatenate([t for t, _ in parts])
        values = np.concatenate([v for _, v in parts])
        return times, values

    def clear(self) -> None:
        """Drop buffered columns (the monotonic guard keeps its state)."""
        for parts in self._buffers.values():
            parts.clear()

    def unsubscribe(self) -> None:
        """Stop the stream; the last subscriber detaches the evaluation."""
        if not self.active:
            return
        self.active = False
        self.client._unsubscribe(self)


class ScopeClient:
    """Pushes named samples to a remote scope server.

    Parameters
    ----------
    endpoint:
        A connected transport endpoint (memory or socket).
    loop:
        The client's main loop; its clock stamps outgoing samples and an
        I/O watch drains the send queue.
    max_queue:
        Bound on locally queued data frames.  When the transport
        back-pressures past this, the *oldest* frames drop — freshest
        data matters most on a live display, and the server would drop
        stale frames anyway.
    mode:
        Wire format: ``"binary"`` (columnar frames, the default) or
        ``"text"`` (tuple lines, the compatibility mode).
    connect:
        Optional zero-argument factory returning a fresh connected
        endpoint (or raising / returning None while the server is
        unreachable).  Providing it arms automatic reconnection; without
        it a dead connection simply stops draining the queue.
    backoff_base_ms / backoff_cap_ms:
        Reconnect backoff schedule: attempt ``k`` waits
        ``min(cap, base * 2**k)`` plus seeded jitter in ``[0, base)``,
        so a fleet of clients losing one server does not retry in
        lockstep.
    backoff_seed:
        Seed for the jitter stream — reconnect timing is replayable.
    """

    def __init__(
        self,
        endpoint,
        loop: MainLoop,
        max_queue: int = 4096,
        mode: str = "binary",
        connect: Optional[Callable[[], object]] = None,
        backoff_base_ms: float = 50.0,
        backoff_cap_ms: float = 5000.0,
        backoff_seed: int = 0,
    ) -> None:
        if max_queue <= 0:
            raise ValueError(f"max_queue must be positive: {max_queue}")
        if mode not in ("binary", "text"):
            raise ValueError(f"mode must be 'binary' or 'text': {mode!r}")
        if backoff_base_ms <= 0 or backoff_cap_ms < backoff_base_ms:
            raise ValueError(
                f"need 0 < base <= cap: base={backoff_base_ms}, cap={backoff_cap_ms}"
            )
        self.endpoint = endpoint
        self.loop = loop
        self.max_queue = max_queue
        self.mode = mode
        # Each queued data frame is [bytes, sample_count, sent_offset]:
        # batched sends put N samples into one frame (counters stay in
        # samples), and the full frame bytes are kept until the frame is
        # completely on the wire so a reconnect can resend from byte 0.
        self._pending: Deque[List] = deque()
        # Control frames (HELLO, NAME_DEF): flushed before data, never
        # dropped, bounded by the number of distinct signal names.
        self._control: Deque[bytes] = deque()
        self._name_ids: Dict[str, int] = {}
        self._hello_queued = False
        self._watch_id: Optional[int] = None
        self._connect = connect
        self._backoff_base = float(backoff_base_ms)
        self._backoff_cap = float(backoff_cap_ms)
        self._backoff_rng = random.Random(backoff_seed)
        self._attempts = 0
        self._retry_id: Optional[int] = None
        self._closed = False
        self._cells: Dict[str, Counter] = {k: Counter(k) for k in _COUNTER_FIELDS}
        # Subscription plane (armed by the first subscribe()): the
        # server→client stream needs its own decoder, name table and IN
        # watch; all three reset on reconnect (new session, new ids).
        self._subs: Dict[str, Subscription] = {}
        self._next_qid = 0
        self._rx: Optional[FrameDecoder] = None
        self._rx_names: Dict[int, str] = {}
        self._rx_watch_id: Optional[int] = None

    # Legacy counter attributes, now views over the ledger cells (one
    # source of truth shared with register_metrics / totals()).
    sent = cell_property("sent")
    sent_frames = cell_property("sent_frames")
    bytes_sent = cell_property("bytes_sent")
    dropped_samples = cell_property("dropped_samples")
    dropped_frames = cell_property("dropped_frames")
    reconnects = cell_property("reconnects")

    @property
    def clock(self) -> Clock:
        return self.loop.clock

    @property
    def dropped(self) -> int:
        """Samples shed by queue overflow (alias of ``dropped_samples``)."""
        return self.dropped_samples

    @property
    def _head_partial(self) -> bool:
        return bool(self._pending) and self._pending[0][2] > 0

    def _intern(self, name: str) -> int:
        """Intern a signal name, queueing its NAME_DEF on first use."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            if not self._hello_queued:
                self._control.append(encode_hello())
                self._hello_queued = True
            name_id = len(self._name_ids)
            self._name_ids[name] = name_id
            self._control.append(encode_name_def(name_id, name))
        return name_id

    def send_sample(
        self, name: str, value: float, time_ms: Optional[float] = None
    ) -> None:
        """Queue one sample for asynchronous transmission.

        ``time_ms`` defaults to the client clock's *now*, matching the
        paper's push-with-timestamp usage.
        """
        stamp = self.clock.now() if time_ms is None else float(time_ms)
        if self.mode == "binary":
            frame = encode_binary_samples(
                self._intern(name), (stamp,), (float(value),)
            )
        else:
            frame = encode_sample(stamp, value, name)
        self._enqueue(frame, 1)

    def send_samples(
        self,
        name: str,
        values: ArrayLike,
        times: Optional[ArrayLike] = None,
    ) -> None:
        """Queue a batch of one signal's samples as a single wire frame.

        Accepts ndarrays directly — in binary mode the columns are
        serialised with ``tobytes`` and never touch per-sample Python
        objects.  ``times`` defaults to stamping every sample with the
        client clock's *now*.  Empty batches queue nothing (no queue
        slot, no writable-watch wakeup).
        """
        v = np.ascontiguousarray(values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"values must be 1-D: shape {v.shape}")
        n = v.shape[0]
        if n == 0:
            return
        if times is None:
            t = np.full(n, self.clock.now(), dtype=np.float64)
        else:
            t = np.ascontiguousarray(times, dtype=np.float64)
            if t.shape != v.shape:
                raise ValueError(
                    f"times and values must be equal length: {t.shape} vs {v.shape}"
                )
        if self.mode == "binary":
            frame = encode_binary_samples(self._intern(name), t, v)
        else:
            frame = encode_samples(t, v, name)
        if frame:
            self._enqueue(frame, n)

    def _enqueue(self, frame: bytes, nsamples: int) -> None:
        if len(self._pending) >= self.max_queue:
            # Drop the oldest *whole* frame.  A partially-sent head frame
            # must survive — truncating it mid-frame would desynchronise
            # the byte stream and the server would disconnect us.
            drop_at = 1 if self._head_partial else 0
            if drop_at < len(self._pending):
                if drop_at == 0:
                    _, dropped_count, _ = self._pending.popleft()
                else:
                    _, dropped_count, _ = self._pending[drop_at]
                    del self._pending[drop_at]
                self._cells["dropped_samples"].inc(dropped_count)
                self._cells["dropped_frames"].inc()
            # else: the only queued frame is mid-transmission; overshoot
            # the bound by one frame rather than corrupt the stream.
        self._pending.append([frame, nsamples, 0])
        self._ensure_watch()
        self._try_flush()

    def _ensure_watch(self) -> None:
        if (
            self._watch_id is None
            and self._retry_id is None
            and (self._pending or self._control)
        ):
            self._watch_id = self.loop.io_add_watch(
                self.endpoint, IOCondition.OUT, self._on_writable
            )

    def _on_writable(self, channel, condition) -> bool:
        self._try_flush()
        if self._watch_id is None:
            return False  # reconnect tore this watch down mid-dispatch
        if not self._pending and not self._control:
            self._watch_id = None
            return False  # drop the watch until there is data again
        return True

    # ------------------------------------------------------------------
    # Subscriptions (the continuous-query plane)
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query: str,
        params: Optional[Dict[str, float]] = None,
        on_batch: Optional[Callable] = None,
    ) -> Subscription:
        """Subscribe to a server-evaluated derived view.

        ``query`` is ordinary query text, optionally with ``$name``
        placeholders bound by ``params`` (one template, many per-user
        instantiations).  The text is compiled locally first — a bad
        query fails *here*, synchronously, with the usual
        :class:`~repro.query.errors.QueryError` — then shipped to the
        server, which compiles the same bound text and shares the
        evaluation with every subscriber of the same canonical plan.
        Derived batches accumulate on the returned :class:`Subscription`
        as the loop runs.  Binary mode only.
        """
        if self.mode != "binary":
            raise ValueError("subscriptions require the binary wire mode")
        if self._closed:
            raise ValueError("client is closed")
        from repro.query import bind_params, compile_query

        plan = compile_query(bind_params(query, params))
        qid = f"q{self._next_qid}"
        self._next_qid += 1
        sub = Subscription(self, qid, query, params, plan)
        if on_batch is not None:
            sub.on_batch(on_batch)
        self._subs[qid] = sub
        if not self._hello_queued:
            self._control.append(encode_hello())
            self._hello_queued = True
        self._control.append(self._query_preamble(sub))
        self._control.append(encode_query({"op": "subscribe", "id": qid}))
        self._ensure_rx_watch()
        self._ensure_watch()
        self._try_flush()
        return sub

    def _query_preamble(self, sub: Subscription) -> bytes:
        payload = {"op": "query", "id": sub.qid, "text": sub.text}
        if sub.params:
            payload["params"] = sub.params
        return encode_query(payload)

    def _unsubscribe(self, sub: Subscription) -> None:
        self._subs.pop(sub.qid, None)
        if self._closed:
            return
        self._control.append(encode_query({"op": "unsubscribe", "id": sub.qid}))
        self._ensure_watch()
        self._try_flush()

    @property
    def subscriptions(self) -> List[Subscription]:
        """Active subscriptions, in creation order."""
        return list(self._subs.values())

    def _ensure_rx_watch(self) -> None:
        if self._rx_watch_id is None and not self._closed:
            if self._rx is None:
                self._rx = FrameDecoder()
            self._rx_watch_id = self.loop.io_add_watch(
                self.endpoint, IOCondition.IN, self._on_readable
            )

    def _on_readable(self, channel, condition) -> bool:
        try:
            chunk = self.endpoint.recv()
        except (TransportClosed, OSError):
            self._rx_teardown()
            self._begin_reconnect()
            return False
        if not chunk:
            # Server session closed under us: a subscriber-only client
            # has no failing send to notice it, so the read path arms
            # the reconnect.
            self._rx_teardown()
            self._begin_reconnect()
            return False
        while True:
            try:
                frames = self._rx.feed(chunk)
            except ProtocolError:
                # Corrupt server→client stream: treat like a dead link.
                self._rx_teardown()
                self._begin_reconnect()
                return False
            for frame in frames:
                self._dispatch_rx(frame)
            if not self.endpoint.readable():
                return True
            chunk = self.endpoint.recv()
            if not chunk:
                self._rx_teardown()
                self._begin_reconnect()
                return False

    def _dispatch_rx(self, frame) -> None:
        if frame.kind is FrameKind.SAMPLES:
            name = self._rx_names.get(frame.name_id)
            if name is None:
                return  # not ours (or a stale id); never fatal client-side
            for sub in self._subs.values():
                if sub.wants(name):
                    sub._deliver(name, frame.times, frame.values)
        elif frame.kind is FrameKind.NAME_DEF:
            self._rx_names[frame.name_id] = frame.name
        elif frame.kind is FrameKind.QUERY:
            payload = frame.control or {}
            sub = self._subs.get(str(payload.get("id")))
            if sub is None:
                return
            op = payload.get("op")
            if op == "compiled":
                sub.acked = True
            elif op == "subscribed":
                sub.subscribed = True
            elif op == "error":
                sub.error = str(payload.get("error"))
                sub.active = False
                self._subs.pop(sub.qid, None)

    def _rx_teardown(self) -> None:
        """Reset the inbound stream state (dead or replaced session)."""
        if self._rx_watch_id is not None:
            self.loop.remove(self._rx_watch_id)
            self._rx_watch_id = None
        self._rx = FrameDecoder() if self._subs else None
        self._rx_names = {}
        for sub in self._subs.values():
            sub.subscribed = False

    # ------------------------------------------------------------------
    # Connection health / reconnect
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        """True while the current endpoint looks usable."""
        return not (self._closed or self._link_down())

    @property
    def reconnecting(self) -> bool:
        """True while a reconnect attempt is scheduled."""
        return self._retry_id is not None

    def _link_down(self) -> bool:
        # getattr-based: test doubles and exotic transports need only
        # the Pollable surface, not the full endpoint state machine.
        return getattr(self.endpoint, "closed", False) or getattr(
            self.endpoint, "peer_closed", False
        )

    def _begin_reconnect(self) -> None:
        """Tear down the dead connection; arm the backoff timer if able."""
        if self._watch_id is not None:
            self.loop.remove(self._watch_id)
            self._watch_id = None
        if self._rx_watch_id is not None:
            self._rx_teardown()
        if not getattr(self.endpoint, "closed", True):
            self.endpoint.close()
        if self._connect is None or self._closed or self._retry_id is not None:
            return
        self._schedule_retry()

    def _schedule_retry(self) -> None:
        delay = min(self._backoff_cap, self._backoff_base * (2.0**self._attempts))
        delay += self._backoff_rng.random() * self._backoff_base
        self._retry_id = self.loop.timeout_add(delay, self._attempt_reconnect)

    def _attempt_reconnect(self, lost: int = 0) -> bool:
        self._retry_id = None
        if self._closed:
            return False
        assert self._connect is not None
        try:
            endpoint = self._connect()
        except (OSError, TransportClosed):
            endpoint = None
        if endpoint is None or getattr(endpoint, "closed", False):
            self._attempts += 1
            self._schedule_retry()
            return False
        self.endpoint = endpoint
        self._cells["reconnects"].inc()
        self._attempts = 0
        # The new server session has no memory of the old one: replay the
        # session preamble (HELLO + every interned NAME_DEF, in id order)
        # ahead of any queued data frame that references those ids.
        self._control.clear()
        if self._hello_queued:
            self._control.append(encode_hello())
            for name, name_id in sorted(self._name_ids.items(), key=lambda kv: kv[1]):
                self._control.append(encode_name_def(name_id, name))
        # Re-establish every active subscription: the fresh session
        # recompiles (sharing the same canonical plan server-side) and
        # resumes the derived stream; each Subscription's monotonic
        # guard sheds any overlap, so nothing is delivered twice.
        if self._subs:
            self._rx_teardown()  # fresh decoder + name table for the new session
            for sub in self._subs.values():
                self._control.append(self._query_preamble(sub))
                self._control.append(
                    encode_query({"op": "subscribe", "id": sub.qid})
                )
            self._ensure_rx_watch()
        # A half-sent head frame restarts from byte 0 — the fresh
        # session never saw its first half, and every fully-sent frame
        # was already popped, so nothing is duplicated.
        if self._pending:
            self._pending[0][2] = 0
        self._ensure_watch()
        self._try_flush()
        return False  # one-shot timer either way

    def _try_flush(self) -> None:
        if self._closed:
            return
        if self._link_down():
            self._begin_reconnect()
            return
        try:
            self._drain()
        except TransportClosed:
            self._begin_reconnect()

    def _drain(self) -> None:
        # Control frames flush before data — a NAME_DEF must precede the
        # first data frame referencing its id — EXCEPT while a data
        # frame is partially transmitted: its remaining bytes must go
        # out first, or the control bytes would land mid-frame and
        # desynchronise the stream.
        cells = self._cells
        while self.endpoint.writable():
            if self._control and not self._head_partial:
                buf = self._control[0]
                sent = self.endpoint.send(buf)
                cells["bytes_sent"].inc(sent)
                if sent < len(buf):
                    self._control[0] = buf[sent:]
                    return
                self._control.popleft()
                continue
            if not self._pending:
                return
            head = self._pending[0]
            frame, nsamples, offset = head
            sent = self.endpoint.send(frame[offset:])
            cells["bytes_sent"].inc(sent)
            offset += sent
            if offset < len(frame):
                # Partial write: remember how far we got, keep the full
                # frame bytes (a reconnect resends from byte 0).
                head[2] = offset
                return
            self._pending.popleft()
            cells["sent"].inc(nsamples)
            cells["sent_frames"].inc()

    @property
    def backlog(self) -> int:
        """Data frames queued locally, waiting for the transport."""
        return len(self._pending)

    def totals(self) -> Dict[str, int]:
        """Client-side ledger, mirroring ``ScopeServer.totals()``.

        ``sent + dropped_samples + backlog_samples`` accounts for every
        sample ever offered to :meth:`send_sample`/:meth:`send_samples`.
        """
        return {
            "sent": self._cells["sent"].value,
            "sent_frames": self._cells["sent_frames"].value,
            "dropped_samples": self._cells["dropped_samples"].value,
            "dropped_frames": self._cells["dropped_frames"].value,
            "backlog_frames": len(self._pending),
            "backlog_samples": sum(entry[1] for entry in self._pending),
            "reconnects": self._cells["reconnects"].value,
        }

    def register_metrics(self, registry, prefix: str = "client.") -> None:
        """Mount the ledger cells plus queue-depth gauges.

        The mounted cells ARE the ones behind :meth:`totals` and the
        legacy counter attributes — published ``__obs.`` samples can
        never disagree with the public accessors.
        """
        for key in _COUNTER_FIELDS:
            registry.mount(prefix + key, self._cells[key])
        registry.gauge(
            f"{prefix}backlog_frames", fn=lambda: float(len(self._pending))
        )
        registry.gauge(
            f"{prefix}backlog_samples",
            fn=lambda: float(sum(entry[1] for entry in self._pending)),
        )
        registry.gauge(
            f"{prefix}subscriptions", fn=lambda: float(len(self._subs))
        )

    def close(self) -> None:
        """Close for good: stop the watches, cancel any reconnect."""
        self._closed = True
        if self._watch_id is not None:
            self.loop.remove(self._watch_id)
            self._watch_id = None
        if self._rx_watch_id is not None:
            self.loop.remove(self._rx_watch_id)
            self._rx_watch_id = None
        if self._retry_id is not None:
            self.loop.remove(self._retry_id)
            self._retry_id = None
        for sub in list(self._subs.values()):
            sub.active = False
        self._subs.clear()
        self.endpoint.close()
