"""One round of a workload: build the pipeline, drive it, check it.

The load is an open loop on the pipeline's own virtual clock: at every
virtual millisecond the frames due in it are handed to
``ScopeClient.send_samples`` and the loop runs one millisecond, which
ingests them at that instant.  In wall time the loop runs as fast as
the program processes the frames.  Each frame is timed from the wall
instant its step began (its due time), so a slow frame also delays the
frames queued behind it.
"""

from __future__ import annotations

import gc
import json
import resource
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import repro.net.client as net_client
import repro.net.queryservice as net_queryservice
from repro.capture import CaptureReader, CaptureWriter
from repro.core.manager import ScopeManager
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.eventloop.sources import IOCondition
from repro.net import (
    ProcessShardedScopeManager,
    ScopeClient,
    ScopeServer,
    ShardedScopeManager,
    memory_pair,
)
from repro.net.protocol import encode_hello, encode_query
from repro.obs.metrics import MetricsRegistry
from repro.query import compile_query, execute

from spans import SpanRecorder
from workloads import QUERY, Plan

#: Raw subscriber sessions beside the one decoding client (query-capture).
RAW_SUBSCRIBERS = 99
#: Fresh-reader batch executions per round for ``readback_sps``.
READBACKS = 5

perf = time.perf_counter


def _sent_bytes(args, result) -> int:
    return len(args[0])


def _received_bytes(args, result) -> int:
    return len(result)


def cpu_s(who: int) -> float:
    """User plus system CPU seconds of ``who`` (a ``resource.RUSAGE_*``)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _trace_scope(rec: SpanRecorder, scope, peak: list) -> None:
    """Span the buffer push/drain and channel accept of one scope."""
    buf = scope.buffer
    rec.patch(buf, "push_many", "core.buffer.push")
    inner = buf.pop_due_grouped

    def pop_due_grouped(now_ms):
        peak[0] = max(peak[0], len(buf))
        return inner(now_ms)

    buf.pop_due_grouped = pop_due_grouped
    rec.patch(buf, "pop_due_grouped", "core.buffer.drain")
    for channel in scope.channels:
        rec.patch(
            channel,
            "accept_samples",
            "core.channel.accept",
            count=lambda args, result: len(args[0]),
        )


def _scope_layers(scopes, peak: int) -> Dict[str, float]:
    pushed = sum(s.buffer.stats.pushed for s in scopes)
    late = sum(s.buffer.stats.dropped_late for s in scopes)
    return {
        "core.buffer.push.samples": pushed,
        "core.buffer.accept_ratio": (pushed - late) / pushed if pushed else 0.0,
        "core.buffer.occupancy_max": peak,
    }


class Rig:
    """A built pipeline for one round (setup is timed by the caller)."""

    def __init__(self, plan: Plan, work_dir: Path, rec: Optional[SpanRecorder]) -> None:
        w = plan.workload
        self.plan = plan
        self.rec = rec
        self.work_dir = work_dir
        self.loop = MainLoop()
        self.scopes: List[tuple] = []  # (scope config index, scope)
        self.peak = [0]
        self.child_trace = work_dir / "child-layers.json"
        self.recv_wall = np.empty(len(plan.frame_times))
        self._pos = 0
        self.router = self._build_router()
        try:
            self._build_rest(rec)
        except BaseException:
            if w.router == "worker":
                self.router.close()
            raise

    # -- construction ----------------------------------------------------
    def _build_rest(self, rec: Optional[SpanRecorder]) -> None:
        w, loop = self.plan.workload, self.loop
        self.server = ScopeServer(loop, self.router)
        near, far = memory_pair(loop.clock)
        self.session = self.server.add_client(far)
        self.client = ScopeClient(near, loop, max_queue=1 << 20)
        if w.router == "worker":
            inner = self.router.push_samples

            def push_samples(name, times, values):
                accepted = inner(name, times, values)
                self.recv_wall[self._pos] = perf()
                self._pos += 1
                return accepted

            self.router.push_samples = push_samples
        else:
            self.router.add_tap(self._tap)
        if rec is not None:
            self._trace_common(rec)
        if w.query:
            self._build_query(rec)

    def _build_router(self):
        plan, w, rec = self.plan, self.plan.workload, self.rec
        if w.router == "sharded":
            router = ShardedScopeManager(shards=w.shards, loop=self.loop)
            (delay, period), = w.scopes
            for shard in range(w.shards):
                scope = router.scope_new(
                    f"scope{shard}", shard=shard, period_ms=period, delay_ms=delay
                )
                self.scopes.append((0, scope))
            for name in plan.names:
                home = router.shard_of(name)
                router.manager_of(home).scope(f"scope{home}").signal_new(
                    buffer_signal(name)
                )
            router.start_all()
            return router
        if w.router == "plain":
            router = ScopeManager(self.loop)
            for index, scope in enumerate(_scope_set(router, plan)):
                self.scopes.append((index, scope))
            router.start_all()
            return router
        trace_path = str(self.child_trace) if rec is not None else None

        def factory(manager, shard_id):
            scopes = _scope_set(manager, plan)
            if trace_path is not None:
                _trace_child(manager, scopes, trace_path)
            for scope in scopes:
                scope.start_polling()

        return ProcessShardedScopeManager(
            shards=1, scope_factory=factory, loop=self.loop, use_shm=True
        )

    def _tap(self, name, times, values, now_ms) -> None:
        if name != "d":  # the derived view pushed back by the live query
            self.recv_wall[self._pos] = perf()
            self._pos += 1

    def _trace_common(self, rec: SpanRecorder) -> None:
        w = self.plan.workload
        rec.patch(self.loop, "run_for", "eventloop.run")
        rec.patch(self.client, "send_samples", "net.client.send")
        rec.patch(net_client, "encode_binary_samples", "net.protocol.encode")
        rec.patch(net_queryservice, "encode_binary_samples", "net.protocol.encode")
        rec.patch(self.client.endpoint, "send", "net.transport.send", _sent_bytes)
        rec.patch(self.session.endpoint, "recv", "net.transport.recv", _received_bytes)
        rec.patch(self.session.wire, "feed", "net.protocol.decode", _sent_bytes)
        router = self.router
        if w.router == "sharded":
            rec.patch(router, "push_samples", "net.shard.route")
            for manager in router.managers:
                rec.patch(manager, "push_samples", "core.manager.push")
        elif w.router == "plain":
            rec.patch(router, "push_samples", "core.manager.push")
        else:
            rec.patch(router, "push_samples", "net.shard.route")
            rec.patch(router, "drain", "net.worker.drain")
            handle = router.handle_of(0)
            rec.patch(handle, "deliver", "net.worker.push")
            self.ring_fallbacks = 0
            try_push = handle.ring.try_push

            def counted_try_push(*args):
                pushed = try_push(*args)
                if not pushed:
                    self.ring_fallbacks += 1
                return pushed

            handle.ring.try_push = counted_try_push
        for _, scope in self.scopes:
            _trace_scope(rec, scope, self.peak)

    def _build_query(self, rec: Optional[SpanRecorder]) -> None:
        loop, server = self.loop, self.server
        self.writer = CaptureWriter(self.work_dir / "capture")
        if rec is not None:
            rec.patch(self.writer, "flush_segment", "capture.writer.flush")
            self.router.add_tap(rec.wrap("capture.writer.push", self.writer.on_push))
        else:
            self.router.add_tap(self.writer)
        near, far = memory_pair(loop.clock)
        sub_session = server.add_client(far)
        self.sub_client = ScopeClient(near, loop)
        self.batch_wall: List[float] = []
        self.sub = self.sub_client.subscribe(
            QUERY, on_batch=lambda name, t, v: self.batch_wall.append(perf())
        )
        preamble = (
            encode_hello(2)
            + encode_query({"op": "query", "id": "q", "text": QUERY})
            + encode_query({"op": "subscribe", "id": "q"})
        )
        self.raw_bytes = [0] * RAW_SUBSCRIBERS
        raw_ends, raw_sessions = [], [sub_session]
        for i in range(RAW_SUBSCRIBERS):
            near_i, far_i = memory_pair(loop.clock)
            raw_sessions.append(server.add_client(far_i))
            near_i.send(preamble)
            raw_ends.append(near_i)

            def count(channel, condition, i=i):
                self.raw_bytes[i] += len(channel.recv(1 << 20))
                return True

            loop.io_add_watch(near_i, IOCondition.IN, count)
        loop.run_through(loop.clock.now())  # compile and subscribe at t=0
        stats = server.queries.stats()
        if stats["subscribers"] != RAW_SUBSCRIBERS + 1 or not self.sub.subscribed:
            raise RuntimeError(f"subscriptions not established: {stats}")
        (self.shared,) = server.queries.shared_queries()
        # Which source frame's push triggered each derived batch.
        self.triggers: List[int] = []
        self.in_window = True
        self.shared.live.on_output(
            lambda name, t, v: self.triggers.append(
                self._pos - 1 if self.in_window else -1
            )
        )
        self.registry = MetricsRegistry()
        server.queries.register_metrics(self.registry, prefix="q.")
        if rec is not None:
            rec.patch(self.shared.live.runtime, "feed", "query.live.derive")
            rec.patch(self.shared, "_fan_out", "net.queryservice.fanout")
            for session in raw_sessions:
                rec.patch(session.endpoint, "send", "net.transport.send", _sent_bytes)
            for end in [self.sub_client.endpoint, *raw_ends]:
                rec.patch(end, "recv", "net.transport.recv", _received_bytes)
            rec.patch(self.sub_client._rx, "feed", "net.protocol.decode", _sent_bytes)

    # -- the timed window --------------------------------------------------
    def drive(self) -> Dict[str, float]:
        """Send every frame on schedule and run until all of it drained."""
        plan = self.plan
        names = [plan.names[s] for s in plan.frame_signal.tolist()]
        times, values = plan.frame_times, plan.frame_values
        bounds = plan.step_bounds
        steps = plan.workload.steps
        step_wall = np.empty(steps)
        sent_wall = np.empty(len(times))
        send = self.client.send_samples
        run_for = self.loop.run_for
        rec = self.rec
        gc.collect()
        covered0 = rec.self_total() if rec is not None else 0.0
        cpu0 = cpu_s(resource.RUSAGE_SELF)
        for k in range(steps):
            step_wall[k] = perf()
            for i in range(bounds[k], bounds[k + 1]):
                sent_wall[i] = perf()
                send(names[i], values[i], times[i])
            run_for(1.0)
        if plan.workload.router == "worker":
            self.router.advance_all(plan.end_ms)
            self.router.drain()
        else:
            run_for(plan.end_ms + 1.0 - self.loop.clock.now())
        end = perf()
        cpu = cpu_s(resource.RUSAGE_SELF) - cpu0
        start = step_wall[plan.frame_step[0]]
        self.sent_wall = sent_wall
        self.window_s = end - start
        out = {
            "window_s": self.window_s,
            "cpu_s": cpu,
            "frame_latency_us": (self.recv_wall - step_wall[plan.frame_step]) * 1e6,
        }
        if rec is not None:
            out["coverage"] = (rec.self_total() - covered0) / self.window_s
        return out

    # -- after the window --------------------------------------------------
    def check(self) -> Dict[str, object]:
        """Compare the run's outputs with the plan; returns lost + errors."""
        plan, w = self.plan, self.plan.workload
        errors: List[str] = []
        if self._pos != len(plan.frame_times):
            errors.append(f"router saw {self._pos} of {len(plan.frame_times)} frames")
        totals = self.server.totals()
        if totals["received"] != plan.offered:
            errors.append(f"server received {totals['received']} of {plan.offered}")
        if w.router == "worker":
            verdicts = self.router.totals()
            if verdicts["offered"] != plan.offered:
                errors.append(f"worker ingested {verdicts['offered']} of {plan.offered}")
            state = self.router.snapshot(0)["manager"]["scopes"]
            channels = [
                (int(scope[5:]), name, ch["buffered_samples"], ch["trace"]["times"],
                 ch["trace"]["raw"])
                for scope, sstate in sorted(state.items())
                for name, ch in sstate["channels"].items()
            ]
        else:
            verdicts = totals
            channels = []
            for index, scope in self.scopes:
                if len(scope.buffer):
                    errors.append(f"{scope.name} still buffers {len(scope.buffer)}")
                for ch in scope.channels:
                    channels.append(
                        (index, ch.name, ch.buffered_samples, ch.times_array(),
                         ch.raw_array())
                    )
        if verdicts["dropped_late"] != plan.stale_samples:
            errors.append(
                f"dropped_late {verdicts['dropped_late']} != stale {plan.stale_samples}"
            )
        if verdicts["accepted"] != plan.offered - plan.stale_samples:
            errors.append(f"accepted {verdicts['accepted']} != expected")
        shortfall = [0] * len(w.scopes)
        seen = set()
        for index, name, drained, t, raw in channels:
            sig = int(name[1:])
            seen.add((index, sig))
            expected = int(plan.accepted[index][sig])
            shortfall[index] += max(0, expected - drained)
            if drained != expected:
                errors.append(f"scope{index}/{name}: drained {drained} != {expected}")
            tail_t, tail_v = plan.trace_tail[index][sig]
            if (
                np.asarray(t).tobytes() != tail_t.tobytes()
                or np.asarray(raw).tobytes() != tail_v.tobytes()
            ):
                errors.append(f"scope{index}/{name}: trace window differs from input")
        for index in range(len(w.scopes)):
            for sig in range(w.signals):
                if (index, sig) not in seen:
                    shortfall[index] += int(plan.accepted[index][sig])
                    errors.append(f"scope{index}/s{sig}: no channel carries it")
        result = {"lost": max(shortfall), "errors": errors}
        if w.query:
            result.update(self._check_query(errors))
        return result

    def _check_query(self, errors: List[str]) -> Dict[str, object]:
        loop = self.loop
        self.in_window = False
        self.shared.live.finish()  # flush the join/ewma tail to subscribers
        loop.run_through(loop.clock.now())
        self.writer.close()
        plan = compile_query(QUERY)
        live_t, live_v = self.sub.columns("d")
        rates = []
        rec = self.rec
        run = execute if rec is None else rec.wrap("query.batch.execute", execute)
        for _ in range(READBACKS):
            reader = CaptureReader(self.work_dir / "capture")
            if rec is not None:
                rec.patch(reader, "columns_for", "capture.reader.columns")
            counts = reader.signal_sample_counts()
            start = perf()
            out = run(reader, plan)
            rates.append((counts["s0"] + counts["s1"]) / (perf() - start))
            reader.close()
        batch_t, batch_v = out["d"]
        if live_t.tobytes() != batch_t.tobytes() or live_v.tobytes() != batch_v.tobytes():
            errors.append(
                f"live derived view ({live_t.shape[0]} samples) differs from "
                f"batch over the capture ({batch_t.shape[0]} samples)"
            )
        if len(set(self.raw_bytes)) != 1 or not self.raw_bytes[0]:
            errors.append(f"raw subscribers got unequal bytes: {sorted(set(self.raw_bytes))}")
        if len(self.batch_wall) != len(self.triggers):
            errors.append(
                f"{len(self.batch_wall)} batches received, {len(self.triggers)} derived"
            )
        triggers = np.asarray(self.triggers[: len(self.batch_wall)], dtype=np.int64)
        timed = triggers >= 0
        latency = (
            np.asarray(self.batch_wall)[: triggers.shape[0]][timed]
            - self.sent_wall[triggers[timed]]
        ) * 1e6
        return {"subscriber_latency_us": latency, "readback_sps": float(np.median(rates))}

    def layers(self) -> Dict[str, float]:
        """Per-layer counts read from the program after a traced round."""
        w = self.plan.workload
        totals = self.server.totals()
        out: Dict[str, float] = {
            "net.server.frames": totals["frames"],
            "net.server.received": totals["received"],
            "net.server.accepted": totals["accepted"],
            "net.server.dropped_late": totals["dropped_late"],
            "net.shard.skew": 1.0,
        }
        if w.router == "sharded":
            offered = [s.offered for s in self.router.shard_stats()]
            out["net.shard.skew"] = max(offered) / (sum(offered) / len(offered))
        if w.router == "worker":
            out["net.worker.ring_fallbacks"] = self.ring_fallbacks
            with open(self.child_trace) as fh:
                child = json.load(fh)
            out.update(child["layers"])
            self.child_spans = child["spans"]
        else:
            out.update(_scope_layers([s for _, s in self.scopes], self.peak[0]))
            self.child_spans = {}
        if w.query:
            out["capture.writer.bytes"] = self.writer.bytes_written
            out["capture.writer.flush_max_ms"] = (
                self.rec.stat("capture.writer.flush").max_s * 1e3
            )
            out["query.live.derive.samples_out"] = self.shared.live.samples_out["d"]
            out["net.queryservice.fanout.bytes_saved"] = self.registry.get(
                "q.encode_bytes_saved"
            ).value
        return out

    def close(self) -> None:
        self.client.close()
        if self.plan.workload.query:
            self.sub_client.close()
            self.writer.close()
        if self.plan.workload.router == "worker":
            self.router.close()


def _scope_set(manager, plan: Plan):
    """The workload's scopes, each carrying every signal."""
    scopes = []
    for index, (delay, period) in enumerate(plan.workload.scopes):
        scope = manager.scope_new(f"scope{index}", period_ms=period, delay_ms=delay)
        for name in plan.names:
            scope.signal_new(buffer_signal(name))
        scopes.append(scope)
    return scopes


def _trace_child(manager, scopes, path: str) -> None:
    """Trace the worker child's layers; the snapshot request writes them out.

    Runs in the forked child.  The router asks for a snapshot once the
    round has drained, which calls ``manager.state_dict`` — the hook
    that dumps the child's span aggregates to ``path`` for the parent.
    """
    rec = SpanRecorder(keep=0)
    peak = [0]
    rec.patch(manager, "push_samples", "core.manager.push")
    for scope in scopes:
        _trace_scope(rec, scope, peak)
    state_dict = manager.state_dict

    def dump_then_snapshot():
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": rec.summary(),
                    "layers": _scope_layers(scopes, peak[0]),
                },
                fh,
            )
        return state_dict()

    manager.state_dict = dump_then_snapshot
