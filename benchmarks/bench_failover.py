"""X13 — failover costs: restart replay catch-up and ring rebalance.

Two numbers the fault-tolerance design pays for its guarantees:

* **X13a — recovery time.**  A supervised shard restart re-drives the
  shard's entire WAL through a fresh manager, so recovery cost is
  replay throughput: wall-clock per restart as a function of WAL size,
  and the samples/second the catch-up path sustains.  (Detection is
  bounded separately and in *virtual* time — ``(miss_threshold + 1)``
  monitor intervals — so the wall-clock cost of failover is all replay.)
* **X13b — rebalance cost.**  Consistent hashing buys minimal data
  movement at membership changes: adding one shard to N remaps ~1/N of
  the namespace where ``hash mod N`` remaps ~(N-1)/N.  We measure the
  actual moved fraction and the wall cost of rebuilding the ring and
  re-routing a large namespace.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict

import numpy as np

from conftest import report

from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import Router
from repro.net.shard import HashRing

HEARTBEAT_MS = 50.0
PUSH_BATCH = 256


def _factory(manager, shard_id):
    # Huge delay: ingest-only, so the numbers measure replay, not drops.
    scope = manager.scope_new(f"scope-{shard_id}", period_ms=50, delay_ms=1e15)
    scope.signal_new(buffer_signal("metric"))


def bench_recovery(total_samples: int, shards: int = 1) -> Dict[str, float]:
    """X13a: crash one shard after ``total_samples`` and time the restart."""
    with tempfile.TemporaryDirectory() as wal_root:
        loop = MainLoop()
        sup = Router(
            loop=loop,
            wal_root=wal_root,
            shards=shards,
            scope_factory=_factory,
            heartbeat_ms=HEARTBEAT_MS,
            auto_start=False,
        )
        rng = np.random.default_rng(7)
        pushed = 0
        while pushed < total_samples:
            now = loop.clock.now() + 10.0
            loop.clock.wait_until(now)
            times = np.sort(rng.uniform(now - 10.0, now, PUSH_BATCH))
            sup.push_samples("metric", times, rng.standard_normal(PUSH_BATCH))
            pushed += PUSH_BATCH
        home = sup.shard_of("metric")
        sup.crash_shard(home)
        t0 = time.perf_counter()
        host = sup.restart_shard(home)
        elapsed = time.perf_counter() - t0
        replayed = host.stats.replayed_samples
        sup.close()
        assert replayed == pushed, (replayed, pushed)
        return {
            "samples": float(replayed),
            "restart_seconds": elapsed,
            "rate_per_sec": replayed / elapsed if elapsed > 0 else float("inf"),
        }


def bench_rebalance(n_shards: int, keys: int = 20_000) -> Dict[str, float]:
    """X13b: moved fraction + wall cost of adding shard N to a ring of N."""
    names = [f"sig-{i:06d}" for i in range(keys)]
    ring = HashRing(range(n_shards))
    before = [ring.locate(name) for name in names]
    t0 = time.perf_counter()
    ring.add(n_shards)
    rebuild_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    after = [ring.locate(name) for name in names]
    locate_seconds = time.perf_counter() - t0
    moved = sum(1 for a, b in zip(before, after) if a != b)
    naive_moved = sum(
        1 for i, name in enumerate(names) if i % n_shards != i % (n_shards + 1)
    )
    return {
        "keys": float(keys),
        "moved_fraction": moved / keys,
        "mod_n_moved_fraction": naive_moved / keys,
        "rebuild_seconds": rebuild_seconds,
        "locates_per_sec": keys / locate_seconds if locate_seconds > 0 else float("inf"),
    }


def test_recovery_scales_with_wal_size(benchmark):
    results = benchmark.pedantic(
        lambda: {n: bench_recovery(n) for n in (10_000, 50_000, 200_000)},
        rounds=1,
        iterations=1,
    )
    rows = []
    for n, r in sorted(results.items()):
        rows.append(
            (
                f"{n:>7d} samples",
                f"restart {r['restart_seconds'] * 1e3:8.1f} ms  "
                f"({r['rate_per_sec'] / 1e6:5.2f} M samples/s replay)",
            )
        )
    report("X13a recovery time vs WAL size", rows)
    # Replay must be a bulk path, not per-sample interpretation.
    assert results[200_000]["rate_per_sec"] > 100_000


def test_rebalance_moves_about_1_over_n(benchmark):
    results = benchmark.pedantic(
        lambda: {n: bench_rebalance(n) for n in (4, 8, 16)},
        rounds=1,
        iterations=1,
    )
    rows = []
    for n, r in sorted(results.items()):
        rows.append(
            (
                f"N={n:<2d} -> {n + 1}",
                f"ring moves {r['moved_fraction']:6.1%}  vs  mod-N "
                f"{r['mod_n_moved_fraction']:6.1%}  "
                f"(rebuild {r['rebuild_seconds'] * 1e3:.1f} ms, "
                f"{r['locates_per_sec'] / 1e3:.0f}k locates/s)",
            )
        )
    report("X13b rebalance cost: consistent hash vs mod-N", rows)
    for n, r in results.items():
        assert r["moved_fraction"] <= 1.5 / n
        assert r["mod_n_moved_fraction"] > 0.5  # what mod-N would shuffle
