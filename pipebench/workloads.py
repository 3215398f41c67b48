"""Workload shapes, seeded input generation and the expected outcome.

Every producer is one signal.  It sends one frame per ``cadence_ms`` of
virtual time, stamped monotonically and a little in the past: a frame
sent at virtual millisecond ``k`` covers ``[k - lag - cadence, k - lag)``
with ``lag`` of 1 to 4 ms by signal.  Signals are staggered across the
cadence, so their frames interleave in a scope's buffer.  Only the stall
positions and the sample values depend on the seed, so every seed
offers the same amount and shape of load.

A *stale* frame comes from a stalled producer: the frame it held when
it stalled goes out ``hold_ms`` later, past every scope's display slot,
and the producer then resumes with a fresh frame.  Its stamps stay
monotonic; the server must late-drop every sample of it (paper §4.4).
Each round has a fixed number of stalls, placed at seeded (signal, slot)
positions, so that about ``STALE_SHARE`` of all frames are stale.

The expected outcome is computed from the frames alone, with the
buffer's late-drop rule (``now > t + delay``, ``now`` being the virtual
millisecond the frame is sent and ingested in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Points a channel's trace ring keeps (the scope default at width 512).
TRACE_CAPACITY = 4096
#: Share of frames that arrive after every scope's display slot.
STALE_SHARE = 0.02
#: The derived view every query-capture subscriber shares.
QUERY = "d = ewma(s0 - 0.5*s1, 0.9)"


@dataclass(frozen=True)
class Workload:
    name: str
    signals: int
    frame_samples: int
    steps: int  # virtual milliseconds of sending per round
    scopes: Tuple[Tuple[float, float], ...]  # (delay_ms, poll period_ms)
    router: str  # "sharded", "plain" or "worker"
    shards: int = 1
    cadence_ms: int = 8
    query: bool = False
    value_pool: int = 64


#: Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "small-frames",
            signals=64,
            frame_samples=32,
            steps=1200,
            scopes=((40.0, 50.0),),
            router="sharded",
            shards=4,
        ),
        Workload(
            "bulk-frames",
            signals=8,
            frame_samples=16384,
            steps=320,
            scopes=((20.0, 20.0), (40.0, 40.0)),
            router="plain",
            value_pool=16,
        ),
        Workload(
            "bulk-worker",
            signals=8,
            frame_samples=16384,
            steps=320,
            scopes=((20.0, 20.0), (40.0, 40.0)),
            router="worker",
            value_pool=16,
        ),
        Workload(
            "query-capture",
            signals=8,
            frame_samples=1024,
            steps=1200,
            scopes=((40.0, 50.0),),
            router="plain",
            cadence_ms=4,
            query=True,
        ),
    )
}


@dataclass
class Plan:
    """One round's pre-built frames plus the outcome they must produce."""

    workload: Workload
    names: List[str]
    frame_step: np.ndarray  # virtual ms each frame is sent in, ascending
    frame_signal: np.ndarray  # signal index per frame
    frame_times: List[np.ndarray]
    frame_values: List[np.ndarray]
    step_bounds: List[int]  # frames of step k: [bounds[k], bounds[k + 1])
    stale: np.ndarray  # bool per frame: late for every scope
    end_ms: float  # virtual instant by which every accepted sample drained
    # Expected outcome, per scope index: accepted samples per signal and
    # the tail of the accepted (times, values) each channel trace shows.
    accepted: List[np.ndarray]
    trace_tail: List[Dict[int, Tuple[np.ndarray, np.ndarray]]]

    @property
    def offered(self) -> int:
        return len(self.frame_times) * self.workload.frame_samples

    @property
    def stale_samples(self) -> int:
        return int(self.stale.sum()) * self.workload.frame_samples


def generate(workload: Workload, seed: int) -> Plan:
    """Pre-build one round's frames from ``seed`` (same seed, same frames)."""
    w = workload
    rng = np.random.default_rng(seed)
    cadence = w.cadence_ms
    max_delay = max(d for d, _ in w.scopes)
    # Held long enough that a stale frame is past every display slot.
    hold = cadence * math.ceil((max_delay + 2 * cadence) / cadence)
    spacing = cadence / w.frame_samples
    offsets = np.arange(w.frame_samples, dtype=np.float64) * spacing
    pool = [rng.standard_normal(w.frame_samples) for _ in range(w.value_pool)]

    # Stalls: a fixed number per round, at seeded (signal, slot) places.
    first_slot = [2 * cadence + sig % cadence for sig in range(w.signals)]
    slots = sum(len(range(k, w.steps, cadence)) for k in first_slot)
    per_stall = hold // cadence - 1  # frames a stall removes
    n_stalls = round(STALE_SHARE * slots / (1 + STALE_SHARE * per_stall))
    stalls = set()
    while len(stalls) < n_stalls:
        sig = int(rng.integers(w.signals))
        k = first_slot[sig] + cadence * int(rng.integers((w.steps - hold) // cadence))
        if k + hold < w.steps and not any(
            s == sig and abs(k - j) <= hold + cadence for s, j in stalls
        ):
            stalls.add((sig, k))

    events = []  # (send step, stale-first order, signal, start time)
    for sig in range(w.signals):
        lag = 1 + sig % 4
        k = first_slot[sig]
        while k < w.steps:
            if (sig, k) in stalls:
                events.append((k + hold, 0, sig, float(k - lag - cadence)))
                k += hold
            events.append((k, 1, sig, float(k - lag - cadence)))
            k += cadence
    events.sort()
    n = len(events)
    frame_step = np.array([e[0] for e in events], dtype=np.int64)
    frame_signal = np.array([e[2] for e in events], dtype=np.int64)
    frame_times = [e[3] + offsets for e in events]
    picks = rng.integers(0, w.value_pool, size=n)
    frame_values = [pool[i] for i in picks]
    step_bounds = np.searchsorted(frame_step, np.arange(w.steps + 1)).tolist()

    # Late-drop verdicts, per frame and scope, by the buffer's own rule.
    first = np.array([t[0] for t in frame_times])
    last = np.array([t[-1] for t in frame_times])
    late = [first + delay < frame_step for delay, _ in w.scopes]
    for late_s, (delay, _) in zip(late, w.scopes):
        if np.any(late_s != (last + delay < frame_step)):
            raise AssertionError("a frame straddles its display slot")
    stale = np.logical_and.reduce(late)
    if np.any(np.logical_or.reduce(late) != stale):
        raise AssertionError("a frame is late for only some scopes")

    accepted: List[np.ndarray] = []
    trace_tail: List[Dict[int, Tuple[np.ndarray, np.ndarray]]] = []
    for late_s in late:
        counts = np.zeros(w.signals, dtype=np.int64)
        tails: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for sig in range(w.signals):
            idx = np.flatnonzero((frame_signal == sig) & ~late_s)
            counts[sig] = idx.shape[0] * w.frame_samples
            keep = -(-TRACE_CAPACITY // w.frame_samples)
            idx = idx[-keep:]
            if idx.shape[0]:
                t = np.concatenate([frame_times[i] for i in idx])[-TRACE_CAPACITY:]
                v = np.concatenate([frame_values[i] for i in idx])[-TRACE_CAPACITY:]
            else:
                t = v = np.empty(0)
            tails[sig] = (t, v)
        accepted.append(counts)
        trace_tail.append(tails)

    last_stamp = float(last.max())
    end_ms = float(w.steps)
    for delay, period in w.scopes:
        due = last_stamp + delay
        end_ms = max(end_ms, period * (math.floor(due / period) + 1))
    return Plan(
        workload=w,
        names=[f"s{i}" for i in range(w.signals)],
        frame_step=frame_step,
        frame_signal=frame_signal,
        frame_times=frame_times,
        frame_values=frame_values,
        step_bounds=step_bounds,
        stale=stale,
        end_ms=end_ms,
        accepted=accepted,
        trace_tail=trace_tail,
    )
