"""Vectorized streaming operators and the DAG runtime.

Every operator consumes and emits ``(times, values)`` float64 column
pairs and keeps **bounded state** between batches, so one operator set
serves both execution modes: the incremental runtime feeds live tap
batches of arbitrary (jittered) sizes, the batch runtime feeds whole
capture columns — and the emitted columns are *byte-identical* either
way.  Three disciplines make that hold:

* **Strictly monotone streams.**  Source operators drop any sample
  whose timestamp does not strictly exceed the last accepted one (the
  Section 4.4 late-drop rule applied at the query boundary; drops are
  counted, never hidden).  Every downstream operator can then rely on
  strictly increasing per-stream times, which makes merging, windowing
  and resampling deterministic under any batch split.
* **Watermarked joins.**  A two-input operator only emits up to the
  minimum of its inputs' last-seen times (``safe``): every future
  sample must arrive strictly later, so the sample-and-hold merge of
  Section 4.2 is final the moment it is emitted.  :meth:`Runtime.finish`
  releases the tail.
* **Whole-window reductions.**  Windowed aggregates buffer each
  window's samples and reduce them with *one*
  :meth:`~repro.core.aggregate.Aggregator.add_many` call at window
  close, so float summation order never depends on how batches split.

Operators reuse the core analysis layer rather than reimplementing it:
``ewma``/``lowpass`` run :class:`~repro.core.lowpass.LowPassFilter`,
windowed aggregates run the Section 4.2
:class:`~repro.core.aggregate.Aggregator` kinds, and ``edges`` runs
:class:`~repro.core.trigger.Trigger` detection (zero hysteresis/holdoff,
so the state carried across batches is one held sample).

The hot path is zero-copy and (when a C compiler exists) native:
:class:`SourceOp` passes already-monotone batches through as read-only
views instead of boolean-index copies, :class:`FusedOp` runs a whole
elementwise/stateful chain in one compiled pass, and :class:`JoinOp`
merges with a native two-pointer kernel.  Every native path has the
original numpy implementation as its always-on fallback and oracle —
``REPRO_NATIVE=0`` restores it everywhere, byte for byte.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.query.kernels as kernels
from repro.core import native
from repro.core.aggregate import AggregateKind, make_aggregator
from repro.core.lowpass import LowPassFilter
from repro.core.trigger import Edge, Trigger
from repro.query.errors import QueryError

ArrayLike = Union[Sequence[float], np.ndarray]
Sink = Callable[[np.ndarray, np.ndarray], None]

_EMPTY = np.empty(0, dtype=np.float64)


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` (no copy); ``arr`` itself if already."""
    if arr.flags.writeable:
        arr = arr.view()
        arr.flags.writeable = False
    return arr


def _div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(a, b)


def _as01(mask) -> np.ndarray:
    return mask.astype(np.float64)


#: Elementwise binary table shared by joins, scalar maps and the
#: compiler's constant folder (one semantics everywhere).
BINARY_FNS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": _div,
    "min": np.minimum,
    "max": np.maximum,
    "lt": lambda a, b: _as01(np.less(a, b)),
    "le": lambda a, b: _as01(np.less_equal(a, b)),
    "gt": lambda a, b: _as01(np.greater(a, b)),
    "ge": lambda a, b: _as01(np.greater_equal(a, b)),
    "eq": lambda a, b: _as01(np.equal(a, b)),
    "ne": lambda a, b: _as01(np.not_equal(a, b)),
}

UNARY_FNS = {
    "abs": np.abs,
    "neg": np.negative,
}


class Operator:
    """Base class: a DAG node with downstream children and sinks.

    Emitted arrays are freshly allocated (or read-only views of freshly
    allocated arrays) and never mutated afterwards, so children and
    sinks may retain references without copying.
    """

    def __init__(self) -> None:
        self._children: List[Tuple["Operator", int]] = []
        self._sinks: List[Sink] = []

    def connect(self, child: "Operator", port: int) -> None:
        self._children.append((child, port))

    def add_sink(self, sink: Sink) -> None:
        self._sinks.append(sink)

    def emit(self, times: np.ndarray, values: np.ndarray) -> None:
        if times.shape[0] == 0:
            return
        for sink in self._sinks:
            sink(times, values)
        for child, port in self._children:
            child.accept(port, times, values)

    def accept(self, port: int, times: np.ndarray, values: np.ndarray) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Release any withheld tail; called once, parents before children."""


class SourceOp(Operator):
    """Entry point for one input signal: enforces strict monotonicity.

    Samples whose timestamp does not strictly exceed every previously
    accepted timestamp are dropped and counted (``dropped``) — the
    jitter a live producer stamps into the past is shed identically in
    live and batch execution, which is what makes every downstream
    operator deterministic under any batching.  NaN timestamps never
    compare greater, so they are dropped too.
    """

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self.accepted = 0
        self.dropped = 0
        self._last = -math.inf

    def feed(self, times: ArrayLike, values: ArrayLike) -> None:
        t = np.asarray(times, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape:
            raise QueryError(
                f"signal {self.name!r}: times and values must be "
                f"equal-length 1-D columns: {t.shape} vs {v.shape}"
            )
        n = t.shape[0]
        if n == 0:
            return
        # Fast path: the batch is already strictly monotone past the
        # carry — true for every wire frame and capture column.  The
        # batch flows through as read-only views, no copy; feeders own
        # immutable buffers (bytes frames, mmap segments), so the
        # no-mutation emission contract holds without detaching.
        ok = kernels.monotone_strict(t, self._last)
        if ok is None:
            ok = bool(t[0] > self._last) and (
                n == 1 or bool(np.all(t[1:] > t[:-1]))
            )
        if ok:
            if (
                native.zero_copy_debug()
                and isinstance(times, np.ndarray)
                and times.dtype == np.float64
            ):
                assert np.shares_memory(t, times), (
                    f"zero-copy guard: source {self.name!r} copied a batch"
                )
            self.accepted += n
            self._last = float(t[-1])
            self.emit(_readonly(t), _readonly(v))
            return
        # Running max *before* each sample (NaN-transparent), seeded
        # with the carry from previous batches.
        running = np.fmax.accumulate(np.concatenate(((self._last,), t)))
        keep = t > running[:-1]
        kept = int(np.count_nonzero(keep))
        self.dropped += n - kept
        if kept == 0:
            return
        self.accepted += kept
        self._last = float(running[-1])
        # Boolean indexing copies, detaching us from caller-owned buffers.
        self.emit(t[keep], v[keep])


class Map1Op(Operator):
    """Stateless elementwise unary map (abs, neg)."""

    def __init__(self, fn_name: str) -> None:
        super().__init__()
        self._fn = UNARY_FNS[fn_name]

    def accept(self, port, times, values) -> None:
        self.emit(times, self._fn(values))


class MapScalarOp(Operator):
    """Elementwise binary op with one constant side, fused to a map."""

    def __init__(self, fn_name: str, scalar: float, scalar_on_left: bool) -> None:
        super().__init__()
        self._fn = BINARY_FNS[fn_name]
        self._scalar = scalar
        self._left = scalar_on_left

    def accept(self, port, times, values) -> None:
        if self._left:
            self.emit(times, self._fn(self._scalar, values))
        else:
            self.emit(times, self._fn(values, self._scalar))


class ClipOp(Operator):
    """Elementwise clip to a constant [lo, hi] band."""

    def __init__(self, lo: float, hi: float) -> None:
        super().__init__()
        self._lo = lo
        self._hi = hi

    def accept(self, port, times, values) -> None:
        self.emit(times, np.clip(values, self._lo, self._hi))


class FusedOp(Operator):
    """One fused chain of elementwise/stateful operators (one plan node).

    The fusion pass (:func:`repro.query.compile.fuse_plan`) hands this
    operator the collapsed chain's ``(op, params)`` steps.  When a
    compiled kernel exists for the chain's signature
    (:func:`repro.query.kernels.get_fused`), each batch runs in a
    single pass — constants travel in a params vector, cross-batch
    ewma/rate/delta state in a small state vector, and a purely
    elementwise chain passes the input times column through zero-copy.
    Without a kernel (no toolchain, ``REPRO_NATIVE=0``) the node
    instantiates the *original* per-operator numpy chain and runs it
    unchanged — the always-on oracle the fusion equivalence suite pins
    every kernel against, byte for byte.
    """

    def __init__(self, steps: Sequence[Tuple[str, Tuple]]) -> None:
        super().__init__()
        self.steps = tuple(steps)
        self._kernel = kernels.get_fused(self.steps)
        if self._kernel is not None:
            self._params = kernels.params_vector(self.steps)
            self._state = np.zeros(kernels.state_size(self.steps))
            self._head: Optional[Operator] = None
        else:
            head: Optional[Operator] = None
            prev: Optional[Operator] = None
            for op_name, params in self.steps:
                op = _OPERATORS[op_name](*params)
                if prev is None:
                    head = op
                else:
                    prev.connect(op, 0)
                prev = op
            assert prev is not None and head is not None
            prev.add_sink(self.emit)
            self._head = head

    @property
    def backend(self) -> str:
        """Which execution path this node resolved to."""
        return "numpy" if self._kernel is None else self._kernel.backend

    def accept(self, port, times, values) -> None:
        if self._kernel is None:
            assert self._head is not None
            self._head.accept(0, times, values)
            return
        out_t, out_v = self._kernel.run(
            times, values, self._params, self._state
        )
        self.emit(out_t, out_v)


class JoinOp(Operator):
    """Time-aligning binary combine: Section 4.2 sample-and-hold merge.

    The output timeline is the union of both inputs' (strictly
    increasing) timelines; at each output instant the other input
    contributes its most recent value.  Nothing is emitted until both
    inputs have produced a sample, and nothing is emitted beyond the
    watermark ``safe = min(last seen per input)`` — every future sample
    arrives strictly after it, so emitted history never changes.

    State is two held scalars plus whatever samples sit between the two
    watermarks; with inputs advancing in lockstep that pending backlog
    is at most one batch.
    """

    def __init__(self, fn_name: str) -> None:
        super().__init__()
        self._fn = BINARY_FNS[fn_name]
        self._pending_t: List[List[np.ndarray]] = [[], []]
        self._pending_v: List[List[np.ndarray]] = [[], []]
        self._watermark = [-math.inf, -math.inf]
        self._hold = [math.nan, math.nan]
        self._has = [False, False]
        # Native two-pointer merge (one pass) replacing the numpy
        # sort + dedup + two-gather path; its held-value state lives in
        # [has0, hold0, has1, hold1].  None → numpy path below.
        self._kernel = kernels.join_kernel(fn_name)
        self._kstate = (
            np.array([0.0, math.nan, 0.0, math.nan])
            if self._kernel is not None
            else None
        )

    def accept(self, port, times, values) -> None:
        self._pending_t[port].append(times)
        self._pending_v[port].append(values)
        self._watermark[port] = float(times[-1])
        self._pump(min(self._watermark))

    def flush(self) -> None:
        self._pump(math.inf)

    def _pump(self, safe: float) -> None:
        if not any(
            chunks and chunks[0][0] <= safe for chunks in self._pending_t
        ):
            return
        take_t: List[np.ndarray] = []
        take_v: List[np.ndarray] = []
        for side in (0, 1):
            chunks_t, chunks_v = self._pending_t[side], self._pending_v[side]
            if not chunks_t:
                take_t.append(_EMPTY)
                take_v.append(_EMPTY)
                continue
            t = chunks_t[0] if len(chunks_t) == 1 else np.concatenate(chunks_t)
            v = chunks_v[0] if len(chunks_v) == 1 else np.concatenate(chunks_v)
            cut = int(np.searchsorted(t, safe, side="right"))
            take_t.append(t[:cut])
            take_v.append(v[:cut])
            self._pending_t[side] = [t[cut:]] if cut < t.shape[0] else []
            self._pending_v[side] = [v[cut:]] if cut < v.shape[0] else []
        if self._kernel is not None:
            out_t, out_v = self._kernel.merge(
                take_t[0], take_v[0], take_t[1], take_v[1], self._kstate
            )
            self.emit(out_t, out_v)
            return
        t0, t1 = take_t[0], take_t[1]
        n0, n1 = t0.shape[0], t1.shape[0]
        total = n0 + n1
        if total == 0:
            return
        # Merge the two already-sorted timelines via a *stable* argsort
        # of their concatenation: timsort detects the two pre-sorted
        # runs and gallops through them in near-linear time (far
        # cheaper than per-needle binary search), and stability keeps
        # side 0 before side 1 on cross-side ties.
        cat = np.concatenate((t0, t1))
        order = np.argsort(cat, kind="stable")
        merged = cat[order]
        is0 = order < n0
        first = np.empty(total, dtype=bool)
        first[0] = True
        np.not_equal(merged[1:], merged[:-1], out=first[1:])
        held: List[np.ndarray] = []
        if bool(first.all()):
            # No cross-side ties (the common case): every union position
            # is a distinct output instant, so each side's held column
            # is its values run-length expanded across the gaps — one
            # sequential np.repeat per side, no random gathers.
            out_t = merged
            defined = np.ones(total, dtype=bool)
            for side in (0, 1):
                v = take_v[side]
                pos = np.flatnonzero(is0 if side == 0 else ~is0)
                lead = self._hold[side] if self._has[side] else math.nan
                bounds = np.empty(pos.shape[0] + 2, dtype=np.int64)
                bounds[0] = 0
                bounds[1:-1] = pos
                bounds[-1] = total
                held.append(
                    np.repeat(np.concatenate(((lead,), v)), np.diff(bounds))
                )
                if not self._has[side]:
                    # The nan lead covers positions before this side's
                    # first sample; mask them out of the output.
                    defined[: bounds[1] if pos.shape[0] else total] = False
                if v.shape[0]:
                    self._hold[side] = float(v[-1])
                    self._has[side] = True
        else:
            starts = np.flatnonzero(first)
            out_t = merged[starts]
            # Last duplicate position per distinct instant: a tie (one
            # run of two, side 0 then side 1) must count *both* sides'
            # samples.
            lasts = np.empty_like(starts)
            lasts[:-1] = starts[1:] - 1
            lasts[-1] = total - 1
            # cnt0[p]: how many side-0 samples occupy positions <= p,
            # so cnt0[lasts] - 1 is exactly the searchsorted
            # 'right' - 1 held-sample index of the old sort-based path.
            cnt0 = np.cumsum(is0, dtype=np.int64)
            defined = np.ones(out_t.shape[0], dtype=bool)
            for side in (0, 1):
                v = take_v[side]
                idx = cnt0[lasts] - 1 if side == 0 else lasts - cnt0[lasts]
                if self._has[side]:
                    v = np.concatenate(((self._hold[side],), v))
                    idx = idx + 1
                if v.shape[0] == 0:
                    defined[:] = False
                    held.append(np.full(out_t.shape[0], math.nan))
                else:
                    if idx[0] < 0:  # idx is sorted: idx[0] is its minimum
                        defined &= idx >= 0
                    held.append(v[idx])  # -1 wraps; masked via `defined`
                if take_t[side].shape[0]:
                    self._hold[side] = float(take_v[side][-1])
                    self._has[side] = True
        if bool(defined.all()):
            self.emit(out_t, self._fn(held[0], held[1]))
        else:
            self.emit(
                out_t[defined], self._fn(held[0][defined], held[1][defined])
            )

    @property
    def pending_samples(self) -> int:
        """Samples currently withheld behind the watermark (both sides)."""
        return sum(
            int(chunk.shape[0])
            for side in self._pending_t
            for chunk in side
        )


class RateOp(Operator):
    """Per-sample derivative: ``dv / dt`` in units per *second*.

    For a monotone counter (packets, bytes) this is the paper's
    bandwidth-style rate; strictly increasing times guarantee dt > 0.
    The first sample only seeds the state.
    """

    per_second = True

    def __init__(self) -> None:
        super().__init__()
        self._t: Optional[float] = None
        self._v = 0.0

    def accept(self, port, times, values) -> None:
        if self._t is None:
            if times.shape[0] < 2:
                self._t = float(times[-1])
                self._v = float(values[-1])
                return
            dt = np.diff(times)
            dv = np.diff(values)
            out_t = times[1:]
        else:
            dt = np.diff(times, prepend=self._t)
            dv = np.diff(values, prepend=self._v)
            out_t = times
        self._t = float(times[-1])
        self._v = float(values[-1])
        if self.per_second:
            self.emit(out_t, dv / (dt / 1000.0))
        else:
            self.emit(out_t, dv)


class DeltaOp(RateOp):
    """Per-sample difference ``v[i] - v[i-1]``."""

    per_second = False


class EwmaOp(Operator):
    """One-pole IIR smoothing — exactly Section 3.1's per-signal filter.

    Wraps a :class:`~repro.core.lowpass.LowPassFilter`, whose vectorised
    recursion applies the identical float operations for any batch
    split, so incremental and batch execution agree bit for bit.
    """

    def __init__(self, alpha: float) -> None:
        super().__init__()
        self._filter = LowPassFilter(alpha)

    def accept(self, port, times, values) -> None:
        try:
            filtered = self._filter.apply_many(values)
        except ValueError as exc:
            # The filter rejects Inf/NaN, which upstream arithmetic can
            # produce (e.g. a division); surface it as a typed query
            # failure rather than a bare ValueError from deep inside.
            raise QueryError(f"ewma input is not finite: {exc}") from None
        self.emit(times, filtered)


class ResampleOp(Operator):
    """Sample-and-hold resampling onto a regular grid (Section 4.2).

    Emits one sample per grid instant ``k * period`` covered by the
    input: the value is that of the latest input sample at or before
    the grid instant.  Grid points before the first sample are
    undefined and skipped; grid points after the last sample are never
    emitted (the hold would be speculative).  State: one held value and
    the next grid index.
    """

    def __init__(self, period: float) -> None:
        super().__init__()
        self._period = period
        self._next_k: Optional[int] = None
        self._hold = math.nan
        self._has = False

    def accept(self, port, times, values) -> None:
        period = self._period
        if self._next_k is None:
            self._next_k = math.ceil(times[0] / period)
        k_last = math.floor(times[-1] / period)
        if k_last >= self._next_k:
            grid = np.arange(self._next_k, k_last + 1, dtype=np.float64) * period
            t, v = times, values
            if self._has:
                t = np.concatenate(((-math.inf,), t))
                v = np.concatenate(((self._hold,), v))
            idx = np.searchsorted(t, grid, side="right") - 1
            self.emit(grid, v[idx])
            self._next_k = k_last + 1
        self._hold = float(values[-1])
        self._has = True


class WindowOp(Operator):
    """Tumbling-window aggregate over one of the Section 4.2 kinds.

    Windows are epoch-aligned: sample time ``t`` belongs to window
    ``floor(t / window)``.  A window closes when a sample lands in a
    later window (or at :meth:`flush`); its buffered samples are then
    reduced with a single
    :meth:`~repro.core.aggregate.Aggregator.add_many` call and one
    :meth:`~repro.core.aggregate.Aggregator.collect` — the aggregate
    value a polling scope would display for that interval, stamped at
    the window's end instant.  Empty windows emit nothing (the
    downstream sample-and-hold shows the previous value, matching the
    paper's discipline).  State is the open window's sample buffer.
    """

    def __init__(self, kind_value: str, window: float) -> None:
        super().__init__()
        self._kind = AggregateKind(kind_value)
        self._window = window
        self._index: Optional[float] = None
        self._buffer: List[np.ndarray] = []

    def accept(self, port, times, values) -> None:
        window = self._window
        indices = np.floor_divide(times, window)
        boundaries = np.flatnonzero(indices[1:] != indices[:-1]) + 1
        # At most one window closes per group boundary in this batch:
        # the emission columns are preallocated once and filled through
        # a cursor — no per-window Python float appends.
        out_t = np.empty(boundaries.shape[0] + 1, dtype=np.float64)
        out_v = np.empty(boundaries.shape[0] + 1, dtype=np.float64)
        emitted = 0
        start = 0
        for stop in (*boundaries.tolist(), times.shape[0]):
            group_index = float(indices[start])
            if self._index is None:
                self._index = group_index
            elif group_index != self._index:
                emitted = self._close(out_t, out_v, emitted)
                self._index = group_index
            self._buffer.append(values[start:stop])
            start = stop
        if emitted:
            self.emit(out_t[:emitted], out_v[:emitted])

    def _close(self, out_t: np.ndarray, out_v: np.ndarray, cursor: int) -> int:
        """Reduce and record the open window at ``cursor``; new cursor."""
        if not self._buffer:
            return cursor
        samples = (
            self._buffer[0]
            if len(self._buffer) == 1
            else np.concatenate(self._buffer)
        )
        self._buffer = []
        aggregator = make_aggregator(self._kind)
        aggregator.add_many(samples)
        value = aggregator.collect(self._window)
        if value is not None:
            assert self._index is not None
            out_t[cursor] = (self._index + 1.0) * self._window
            out_v[cursor] = value
            cursor += 1
        return cursor

    def flush(self) -> None:
        out_t = np.empty(1, dtype=np.float64)
        out_v = np.empty(1, dtype=np.float64)
        emitted = self._close(out_t, out_v, 0)
        if emitted:
            self.emit(out_t[:emitted], out_v[:emitted])


class EdgesOp(Operator):
    """Trigger-crossing events: +1 at rising edges, -1 at falling.

    Runs :meth:`~repro.core.trigger.Trigger.detect` with zero
    hysteresis and holdoff over each batch with the previous sample
    prepended — at zero hysteresis the trigger re-arms at every
    qualifying crossing, so one held sample is the entire cross-batch
    state and batching cannot change the events.
    """

    def __init__(self, level: float, edge_name: str) -> None:
        super().__init__()
        self._trigger = Trigger(level, Edge(edge_name))
        self._prev: Optional[float] = None

    def accept(self, port, times, values) -> None:
        if self._prev is None:
            full = values
            offset = 0
        else:
            full = np.concatenate(((self._prev,), values))
            offset = 1
        events = self._trigger.detect(full)
        self._prev = float(values[-1])
        if not events:
            return
        positions = np.fromiter(
            (e.index - offset for e in events), dtype=np.int64, count=len(events)
        )
        marks = np.fromiter(
            (1.0 if e.edge is Edge.RISING else -1.0 for e in events),
            dtype=np.float64,
            count=len(events),
        )
        self.emit(times[positions], marks)


_OPERATORS: Dict[str, Callable[..., Operator]] = {
    "source": SourceOp,
    "fused": FusedOp,
    "map1": Map1Op,
    "maps": MapScalarOp,
    "clip": ClipOp,
    "join": JoinOp,
    "rate": RateOp,
    "delta": DeltaOp,
    "ewma": EwmaOp,
    "resample": ResampleOp,
    "window": WindowOp,
    "edges": EdgesOp,
}


class Runtime:
    """One execution of a compiled :class:`~repro.query.compile.Plan`.

    Instantiates fresh operator state, wires the DAG, and exposes the
    push interface both runtimes share: :meth:`feed` columnar batches
    per input signal (any order, any batch sizes), then :meth:`finish`
    once to release watermarked tails and open windows.  Attach sinks
    to published outputs with :meth:`add_sink` before feeding.
    """

    def __init__(self, plan) -> None:
        self.plan = plan
        self._ops: List[Operator] = []
        for node in plan.nodes:
            op = _OPERATORS[node.op](*node.params)
            for port, input_id in enumerate(node.inputs):
                self._ops[input_id].connect(op, port)
            self._ops.append(op)
        self._sources: Dict[str, SourceOp] = {
            name: self._ops[node_id]  # type: ignore[misc]
            for name, node_id in plan.sources.items()
        }
        self._finished = False

    # -- wiring --------------------------------------------------------
    def add_sink(self, output_name: str, sink: Sink) -> None:
        """Subscribe ``sink(times, values)`` to a published output."""
        try:
            node_id = self.plan.outputs[output_name]
        except KeyError:
            raise QueryError(
                f"query publishes no output named {output_name!r} "
                f"(outputs: {self.plan.output_names})"
            ) from None
        self._ops[node_id].add_sink(sink)

    @property
    def source_names(self) -> List[str]:
        return self.plan.source_names

    @property
    def output_names(self) -> List[str]:
        return self.plan.output_names

    # -- execution -----------------------------------------------------
    def feed(self, name: str, times: ArrayLike, values: ArrayLike) -> bool:
        """Push one signal's columnar batch; False when ``name`` is not
        a query input (the batch is ignored — live taps see every signal
        on the wire, including the query's own emissions)."""
        source = self._sources.get(name)
        if source is None:
            return False
        if self._finished:
            raise QueryError("query runtime is finished; create a new Runtime")
        source.feed(times, values)
        return True

    def finish(self) -> None:
        """Flush withheld tails (idempotent).  Parents flush before
        children, so a flushed tail propagates through the whole DAG."""
        if self._finished:
            return
        self._finished = True
        for op in self._ops:
            op.flush()

    @property
    def finished(self) -> bool:
        return self._finished

    # -- accounting ----------------------------------------------------
    @property
    def dropped(self) -> Dict[str, int]:
        """Per-input count of non-monotone (late) samples shed at entry."""
        return {name: op.dropped for name, op in self._sources.items()}

    @property
    def accepted(self) -> Dict[str, int]:
        """Per-input count of samples admitted into the DAG."""
        return {name: op.accepted for name, op in self._sources.items()}
