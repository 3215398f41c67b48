"""Pipeline benchmark: client -> wire -> router -> scope buffer -> trace.

Run from the root of the repository::

    python3 pipebench/run.py --workload small-frames --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no shims installed;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (plus the tracing overhead), writing the per-layer
ledger and a Chrome trace to ``.bench_build/trace/``.  Every round is
checked against the expected outcome of its frames; any mismatch exits
with code 1.  The last line of standard output is one JSON object.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
#: Rounds measured at least, whatever ``--seconds`` says.
MIN_ROUNDS = 4
#: Every percentile reported must have at least this many samples beyond it.
MIN_BEYOND = 10

END_TO_END = {
    "throughput_sps": "samples/s",
    "frame_latency_p50_us": "us",
    "frame_latency_p99_us": "us",
    "setup_s": "s",
    "cpu_per_msample_s": "s/Msample",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "eventloop.run.busy_s": "s",
    "eventloop.self_s": "s",
    "net.client.send.calls": "count",
    "net.client.send.self_s": "s",
    "net.protocol.encode.calls": "count",
    "net.protocol.encode.self_s": "s",
    "net.protocol.decode.calls": "count",
    "net.protocol.decode.self_s": "s",
    "net.protocol.decode.bytes": "B",
    "net.transport.send.self_s": "s",
    "net.transport.recv.self_s": "s",
    "net.transport.bytes": "B",
    "net.server.frames": "count",
    "net.server.received": "count",
    "net.server.accepted": "count",
    "net.server.dropped_late": "count",
    "net.shard.route.calls": "count",
    "net.shard.route.self_s": "s",
    "net.shard.skew": "ratio",
    "net.worker.push.self_s": "s",
    "net.worker.drain.wait_s": "s",
    "net.worker.ring_fallbacks": "count",
    "net.worker.child_cpu_s": "s",
    "net.worker.child_rss_mb": "MB",
    "core.manager.push.calls": "count",
    "core.manager.push.self_s": "s",
    "core.buffer.push.self_s": "s",
    "core.buffer.push.samples": "count",
    "core.buffer.accept_ratio": "ratio",
    "core.buffer.drain.calls": "count",
    "core.buffer.drain.self_s": "s",
    "core.buffer.occupancy_max": "count",
    "core.channel.accept.self_s": "s",
    "core.channel.accept.samples": "count",
    "capture.writer.push.self_s": "s",
    "capture.writer.flush.calls": "count",
    "capture.writer.flush.self_s": "s",
    "capture.writer.flush_max_ms": "ms",
    "capture.writer.bytes": "B",
    "capture.reader.columns.self_s": "s",
    "query.batch.execute.self_s": "s",
    "query.live.derive.calls": "count",
    "query.live.derive.self_s": "s",
    "query.live.derive.samples_out": "count",
    "net.queryservice.fanout.calls": "count",
    "net.queryservice.fanout.self_s": "s",
    "net.queryservice.fanout.bytes_saved": "B",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "subscriber_latency_p50_us": "us",
    "subscriber_latency_p99_us": "us",
    "readback_sps": "samples/s",
    "lost_frac": "ratio",
}

#: Metrics measured by the untraced rounds but defined on one workload
#: only, or reading 0 by design, so they are reported with the layers.
QUERY_AND_LEDGER = (
    "subscriber_latency_p50_us",
    "subscriber_latency_p99_us",
    "readback_sps",
    "net.worker.child_rss_mb",
    "lost_frac",
)

#: Span aggregates behind the per-layer metrics: metric -> (span, field).
SPAN_METRICS = {
    "eventloop.run.busy_s": ("eventloop.run", "total_s"),
    "eventloop.self_s": ("eventloop.run", "self_s"),
    "net.protocol.decode.bytes": ("net.protocol.decode", "count"),
    "net.transport.bytes": ("net.transport.send", "count"),
    "net.worker.drain.wait_s": ("net.worker.drain", "total_s"),
    "core.channel.accept.samples": ("core.channel.accept", "count"),
}


def _percentile(values, q: float):
    """``(value, samples, samples beyond)`` for percentile ``q``."""
    values = np.asarray(values)
    value = float(np.percentile(values, q))
    return value, int(values.shape[0]), int(np.count_nonzero(values > value))


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _throughput(rounds: List[dict]) -> float:
    """Samples offered over all ``rounds`` per second of their timed windows.

    The machine's speed drifts between rounds; pooling the windows weighs
    each stretch of the run by its length, where a median over rounds
    jumps between a fast and a slow stretch when the run holds both.
    """
    return sum(r["offered"] for r in rounds) / sum(r["window_s"] for r in rounds)


def one_round(plan, rec=None) -> Dict[str, object]:
    """Build, drive, check and tear down one pipeline over ``plan``."""
    from pipeline import Rig, cpu_s

    work_dir = Path(tempfile.mkdtemp(prefix="round-", dir=BUILD / "tmp"))
    try:
        gc.collect()
        children0 = cpu_s(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        rig = Rig(plan, work_dir, rec)
        setup_s = time.perf_counter() - start
        try:
            result = rig.drive()
            result.update(rig.check())
            if rec is not None:
                result["layers"] = rig.layers()
                result["child_spans"] = rig.child_spans
        finally:
            rig.close()
            if rec is not None:
                rec.unpatch()
        result["child_cpu_s"] = cpu_s(resource.RUSAGE_CHILDREN) - children0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["offered"] = plan.offered
    return result


def _layer_metrics(r: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metric values of one traced round."""
    spans = {**r["spans"], **r["child_spans"]}
    out = dict.fromkeys(PER_LAYER, 0.0)
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        span, field = SPAN_METRICS.get(metric, (span, field))
        if field in ("calls", "self_s", "total_s", "count") and span in spans:
            out[metric] = spans[span][field]
    out.update(r["layers"])
    out["net.worker.child_cpu_s"] = r["child_cpu_s"]
    out["trace.coverage"] = r["coverage"]
    return out


def enough(rounds: List[dict], traced: List[dict], trace: bool) -> bool:
    """Enough rounds, and enough latencies for a p99 with 10 beyond it."""
    need = 100 * (MIN_BEYOND + 1)
    if len(rounds) < MIN_ROUNDS or (trace and len(traced) < MIN_ROUNDS):
        return False
    for key in ("frame_latency_us", "subscriber_latency_us"):
        if key in rounds[0] and sum(len(r[key]) for r in rounds) < need:
            return False
    return True


def measure(workload, seed: int, seconds: float, trace: bool) -> int:
    from spans import SpanRecorder
    from workloads import WORKLOADS, generate

    w = WORKLOADS[workload]
    plan = generate(w, seed)
    errors: List[str] = []

    # Warm-up, untimed: loads the native fused kernels into the on-disk
    # cache (compiled once per machine) and touches every code path.
    warm = one_round(plan)
    errors += warm["errors"]

    # The pre-built frames live for the whole run: keep the collector
    # from re-walking them on every collection inside the timed windows.
    gc.collect()
    gc.freeze()

    rounds: List[dict] = []
    traced: List[dict] = []
    # Rounds run until the next one would end past the deadline, so a
    # run measures at most ``seconds`` once it has measured enough.
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while not errors:
        tracing = trace and len(rounds) > len(traced)
        rec = SpanRecorder() if tracing else None
        began = time.perf_counter()
        r = one_round(plan, rec)
        longest = max(longest, time.perf_counter() - began)
        errors += r["errors"]
        if rec is not None:
            r["spans"] = rec.summary()
            r["recorder"] = rec if not traced else None
            traced.append(r)
        else:
            rounds.append(r)
        if enough(rounds, traced, trace) and time.perf_counter() + longest > deadline:
            break

    checked = [warm, *rounds, *traced]
    attempted = sum(r["offered"] for r in checked)
    failed = sum(r["lost"] for r in checked)
    if not errors:
        metrics = end_to_end(w, plan, rounds, errors)
        metrics["lost_frac"] = failed / attempted
        print(
            f"rounds: {len(rounds)} untraced, {len(traced)} traced; "
            f"{plan.offered} samples offered per round, {plan.stale_samples} stale; "
            f"failed {failed} of {attempted} attempted"
        )
        for name, value in metrics.items():
            unit = END_TO_END.get(name) or PER_LAYER[name]
            print(f"{name}: {value:.6g} {unit}")
    if errors:
        for line in errors[:20]:
            print(f"CHECK FAILED: {line}", file=sys.stderr)
        result = {}
    elif trace:
        layers = per_layer(w, metrics, traced, BUILD / "trace" / f"{workload}-seed{seed}")
        result = {name: {"value": layers[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    else:
        result = {name: {"value": metrics[name], "unit": END_TO_END[name]} for name in END_TO_END}
    print(
        json.dumps(
            {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 1 if errors else 0


def end_to_end(w, plan, rounds: List[dict], errors: List[str]) -> Dict[str, float]:
    """End-to-end metrics of the untraced rounds (plus the query-only ones)."""
    metrics: Dict[str, float] = {
        "throughput_sps": _throughput(rounds),
        "setup_s": _median([r["setup_s"] for r in rounds]),
        "cpu_per_msample_s": sum(r["cpu_s"] + r["child_cpu_s"] for r in rounds)
        / (sum(r["offered"] for r in rounds) / 1e6),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    series = {"frame_latency": np.concatenate([r["frame_latency_us"] for r in rounds])}
    if w.query:
        series["subscriber_latency"] = np.concatenate(
            [r["subscriber_latency_us"] for r in rounds]
        )
        metrics["readback_sps"] = _median([r["readback_sps"] for r in rounds])
    for prefix, values in series.items():
        for q in (50, 99):
            value, n, beyond = _percentile(values, q)
            if beyond < MIN_BEYOND:
                errors.append(f"only {beyond} {prefix} samples beyond p{q} (n={n})")
            metrics[f"{prefix}_p{q}_us"] = value
            print(f"{prefix}_p{q}_us: {value:.1f} us (n={n}, beyond={beyond})")
    if w.router == "worker":
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics["net.worker.child_rss_mb"] = child
    return metrics


def per_layer(w, metrics: Dict[str, float], traced: List[dict], stem: Path) -> Dict[str, float]:
    """Median per-layer values of the traced rounds; writes the ledger files."""
    per_round = [_layer_metrics(r) for r in traced]
    layers = {name: _median([m[name] for m in per_round]) for name in PER_LAYER}
    layers["trace.overhead"] = (
        _throughput(traced) / metrics["throughput_sps"]
    )
    for name in QUERY_AND_LEDGER:
        layers[name] = metrics.get(name, 0.0)
    stem.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{stem}.layers.json", "w") as fh:
        json.dump(
            {"metrics": layers, "rounds": per_round, "spans": [r["spans"] for r in traced]},
            fh,
            indent=1,
        )
    traced[0]["recorder"].write_chrome(f"{stem}.chrome.json")
    shown = stem.relative_to(ROOT)
    print(f"per-layer ledger: {shown}.layers.json, chrome trace: {shown}.chrome.json")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"pipebench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Keep every file the run writes inside the checkout: the native
    # kernel cache, the compiler's scratch files and capture directories.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    tempfile.tempdir = str(BUILD / "tmp")

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    try:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        # The shared-memory ring started the stdlib's resource tracker
        # process; stop it and wait for it rather than leave it behind.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
