"""Randomized failover equivalence: recovery must be invisible.

The acceptance suite for the fault-tolerant telemetry plane.  For each
seed, a randomized multi-signal schedule runs twice through the same
supervised sharded rig — once clean (the oracle) and once under
scripted faults — and the faulted run must converge to the oracle
**byte for byte**: every trace column (times, raw, filtered), every
aggregate, every Section 4.4 accept/late-drop decision and the summed
ingest counters.

Three fault roles are exercised:

* **shard faults** (kill / stall) — the supervisor's WAL + heartbeat +
  replay-catch-up machinery must restore the shard exactly;
* **client link faults** (drop / partition / stall / kill via
  :class:`FaultyLink`, plus reconnect) — every sample the server
  *accepts* appears exactly once, no duplication, and samples are lost
  only to scripted link damage;
* **server session kill** — the server drops the session; the client
  reconnects with backoff, re-interns its names and resumes; the
  disconnect reason is recorded.

Recovery is also *bounded*: a dead shard restarts within
``(miss_threshold + 1)`` monitor intervals of the fault.
"""

import random

import numpy as np
import pytest

from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import (
    FaultPlan,
    Router,
    ScopeClient,
    ScopeServer,
    faulty_pair,
    memory_pair,
    shard_of,
)

pytestmark = pytest.mark.faults

SIGNALS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
N_SHARDS = 3
HEARTBEAT_MS = 50.0
MISS_THRESHOLD = 3
RUN_MS = 3_000.0
TICK_MS = 25.0
SEEDS = range(8)


def factory(manager, shard_id):
    scope = manager.scope_new(f"scope-{shard_id}", period_ms=50, delay_ms=120.0)
    for name in SIGNALS:
        if shard_of(name, N_SHARDS) == shard_id:
            scope.signal_new(buffer_signal(name, filter=0.25))
    scope.set_polling_mode(50)
    scope.start_polling()


def snapshot(sup):
    """Traces, aggregates and ingest counters after a final catch-up."""
    end = sup.loop.clock.now()
    for host in sup.targets:
        host.advance(end)
    traces = {}
    aggregates = {}
    for shard_id, host in enumerate(sup.targets):
        scope = host.manager.scope(f"scope-{shard_id}")
        for name in SIGNALS:
            if shard_of(name, N_SHARDS) != shard_id:
                continue
            channel = scope.channel(name)
            traces[name] = (
                channel.times_array().copy(),
                channel.raw_array().copy(),
                channel.values_array().copy(),
            )
            values = channel.values_array()
            aggregates[name] = (
                values.shape[0],
                float(values.sum()) if values.shape[0] else 0.0,
            )
    totals = sup.totals()
    core = {k: totals[k] for k in ("offered", "accepted", "dropped_late")}
    return traces, aggregates, core, totals


def assert_equivalent(seed, oracle, faulted):
    o_traces, o_agg, o_core, _ = oracle
    f_traces, f_agg, f_core, _ = faulted
    for name in SIGNALS:
        for o_col, f_col, label in zip(
            o_traces[name], f_traces[name], ("times", "raw", "filtered")
        ):
            np.testing.assert_array_equal(
                f_col, o_col, err_msg=f"seed {seed}: {name} {label}"
            )
        assert f_agg[name] == o_agg[name], f"seed {seed}: {name} aggregates"
    assert f_core == o_core, f"seed {seed}: ingest counters diverged"


# ----------------------------------------------------------------------
# Role 1: shard faults — supervised restart must be byte-identical
# ----------------------------------------------------------------------


def shard_fault_run(tmp_path, seed, fault_script):
    """Drive a seeded schedule through a supervised rig.

    ``fault_script(loop, sup, rng)`` arms the scripted faults (no-op for
    the oracle).  Returns the snapshot.
    """
    rng = random.Random(seed)
    loop = MainLoop()
    sup = Router(
        loop=loop,
        wal_root=tmp_path,
        shards=N_SHARDS,
        scope_factory=factory,
        heartbeat_ms=HEARTBEAT_MS,
        miss_threshold=MISS_THRESHOLD,
        segment_samples=rng.choice((64, 256, 1024)),
    )

    def feed(_lost) -> bool:
        now = loop.clock.now()
        for name in SIGNALS:
            n = rng.randrange(0, 4)
            if n == 0:
                continue
            times = sorted(now - rng.uniform(0.0, 240.0) for _ in range(n))
            values = [rng.uniform(-100.0, 100.0) for _ in range(n)]
            sup.push_samples(name, np.asarray(times), np.asarray(values))
        return True

    loop.timeout_add(TICK_MS, feed)
    fault_script(loop, sup, random.Random(seed + 1000))
    loop.run_until(RUN_MS)
    snap = snapshot(sup)
    sup.close()
    return snap


def no_faults(loop, sup, rng):
    pass


@pytest.mark.parametrize("seed", SEEDS)
def test_shard_kill_recovers_byte_identically(seed, tmp_path):
    def script(loop, sup, rng):
        at = rng.uniform(500.0, 2000.0)
        victim = rng.randrange(N_SHARDS)
        loop.timeout_add(at, lambda lost: (sup.crash_shard(victim), False)[1])

    oracle = shard_fault_run(tmp_path / "oracle", seed, no_faults)
    faulted = shard_fault_run(tmp_path / "faulted", seed, script)
    assert_equivalent(seed, oracle, faulted)
    assert faulted[3]["restarts"] == 1
    assert faulted[3]["replayed_samples"] > 0
    # Something interesting happened: real traffic, real late drops.
    assert oracle[2]["offered"] > 200
    assert oracle[2]["dropped_late"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_shard_stall_recovers_byte_identically(seed, tmp_path):
    """A stall either clears in time (no restart) or is detected and
    restarted — both must converge to the oracle exactly."""

    def script(loop, sup, rng):
        at = rng.uniform(500.0, 1800.0)
        victim = rng.randrange(N_SHARDS)
        loop.timeout_add(at, lambda lost: (sup.stall_shard(victim), False)[1])
        if rng.random() < 0.5:
            # Sometimes the stall clears before detection.
            clear = at + rng.uniform(10.0, 2 * HEARTBEAT_MS)
            loop.timeout_add(clear, lambda lost: (sup.resume_shard(victim), False)[1])

    oracle = shard_fault_run(tmp_path / "oracle", seed, no_faults)
    faulted = shard_fault_run(tmp_path / "faulted", seed, script)
    assert_equivalent(seed, oracle, faulted)


@pytest.mark.parametrize("seed", (1, 6))
def test_restart_latency_bound(seed, tmp_path):
    """Detection + restart latency ≤ (miss_threshold + 1) monitor ticks."""
    kill_at = 1000.0
    rng = random.Random(seed)
    loop = MainLoop()
    sup = Router(
        loop=loop,
        wal_root=tmp_path,
        shards=N_SHARDS,
        scope_factory=factory,
        heartbeat_ms=HEARTBEAT_MS,
        miss_threshold=MISS_THRESHOLD,
    )

    def feed(_lost) -> bool:
        now = loop.clock.now()
        for name in SIGNALS:
            sup.push_samples(name, (now,), (rng.random(),))
        return True

    loop.timeout_add(TICK_MS, feed)
    loop.timeout_add(kill_at, lambda lost: (sup.crash_shard(1), False)[1])
    loop.run_until(RUN_MS)
    stats = sup.handle_of(1).stats
    assert stats.restarts == 1
    bound = (MISS_THRESHOLD + 1) * sup.monitor_interval_ms
    assert stats.last_restart_at - kill_at <= bound + 1e-9
    sup.close()


# ----------------------------------------------------------------------
# Role 2: client link faults — exactly-once-or-lost, never duplicated
# ----------------------------------------------------------------------


def link_fault_run(seed, plan_factory):
    """One client streaming unique values through a faultable link.

    Returns (sent_values, displayed_values, client, server).  Every
    sample carries a globally unique value, so duplication and loss are
    detectable per sample on the displayed trace.
    """
    rng = random.Random(seed)
    loop = MainLoop()
    from repro.core.manager import ScopeManager

    manager = ScopeManager(loop)
    scope = manager.scope_new("rig", period_ms=50, delay_ms=200.0)
    scope.signal_new(buffer_signal("alpha"))
    scope.set_polling_mode(50)
    scope.start_polling()
    server = ScopeServer(loop, manager)

    links = []

    def connect():
        plan = plan_factory()
        if plan is None:
            near, far = memory_pair(loop.clock)
        else:
            near, far, link, _ = faulty_pair(loop.clock, client_plan=plan)
            links.append(link)
        server.add_client(far)
        return near

    client = ScopeClient(
        connect(),
        loop,
        connect=connect,
        backoff_base_ms=20.0,
        backoff_cap_ms=500.0,
        backoff_seed=seed,
    )

    sent = []

    def feed(_lost) -> bool:
        now = loop.clock.now()
        n = rng.randrange(1, 4)
        values = [float(len(sent) + i) for i in range(n)]
        sent.extend(values)
        client.send_samples("alpha", values, [now] * n)
        return True

    loop.timeout_add(TICK_MS, feed)
    loop.run_until(RUN_MS)
    displayed = scope.channel("alpha").raw_array().tolist()
    return sent, displayed, client, server, links


@pytest.mark.parametrize("seed", SEEDS)
def test_link_faults_never_duplicate_accepted_samples(seed, tmp_path):
    rng = random.Random(seed + 500)
    plans = iter(
        [
            # First connection: scripted chaos, then a kill.
            FaultPlan(seed=seed)
            .drop_next(at=rng.uniform(200, 600), count=rng.randrange(1, 3))
            .stall(900.0, 1000.0)
            .kill(at=rng.uniform(1100.0, 1500.0)),
            # Second connection: one partition window.
            FaultPlan(seed=seed + 1).partition(1800.0, 1900.0),
        ]
    )

    def plan_factory():
        return next(plans, None)  # later reconnects get clean links

    sent, displayed, client, server, links = link_fault_run(seed, plan_factory)

    # Exactly-once: what the scopes display is a strictly increasing
    # subsequence of the unique sent values — nothing ever twice.
    assert len(set(displayed)) == len(displayed), f"seed {seed}: duplicated sample"
    assert set(displayed) <= set(sent)
    # The kill forced at least one reconnect, and traffic resumed after.
    assert client.reconnects >= 1
    assert displayed, "nothing displayed at all"
    assert max(displayed) > sent[len(sent) // 2], (
        f"seed {seed}: no samples accepted after mid-run — reconnect failed"
    )
    # The scripted faults really happened.
    assert any(link.dropped_chunks > 0 for link in links)
    # The server reaped the killed session (EOF semantics on a dead
    # link) instead of keeping a zombie; only the live session remains.
    assert server.disconnect_reasons.get("eof", 0) >= 1
    assert len(server.clients) == 1
    # Client-side ledger accounts for every sample it was offered.
    totals = client.totals()
    assert totals["sent"] + totals["dropped_samples"] + totals["backlog_samples"] == len(
        sent
    )


@pytest.mark.parametrize("seed", (2, 7))
def test_clean_link_is_lossless_end_to_end(seed, tmp_path):
    sent, displayed, client, server, _ = link_fault_run(seed, lambda: None)
    assert client.reconnects == 0
    # Everything old enough to have been polled is displayed exactly once.
    assert len(set(displayed)) == len(displayed)
    settled = [v for v in sent if v in set(displayed)]
    assert len(settled) >= len(sent) - 40  # only the in-flight tail missing


# ----------------------------------------------------------------------
# Role 3: server session kill — reconnect, re-intern, resume, reason
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_server_session_kill_resumes_with_reason(seed, tmp_path):
    rng = random.Random(seed)
    loop = MainLoop()
    from repro.core.manager import ScopeManager

    manager = ScopeManager(loop)
    scope = manager.scope_new("rig", period_ms=50, delay_ms=200.0)
    for name in ("alpha", "beta"):
        scope.signal_new(buffer_signal(name))
    scope.set_polling_mode(50)
    scope.start_polling()
    server = ScopeServer(loop, manager)

    def connect():
        near, far = memory_pair(loop.clock)
        server.add_client(far)
        return near

    client = ScopeClient(
        connect(), loop, connect=connect, backoff_base_ms=20.0, backoff_seed=seed
    )

    sent = []

    def feed(_lost) -> bool:
        now = loop.clock.now()
        name = rng.choice(("alpha", "beta"))
        value = float(len(sent))
        sent.append(value)
        client.send_sample(name, value, now)
        return True

    loop.timeout_add(TICK_MS, feed)

    kill_at = rng.uniform(400.0, 1200.0)

    def kill(_lost) -> bool:
        if server.clients:
            server.disconnect(server.clients[0], reason="server")
        return False

    loop.timeout_add(kill_at, kill)
    loop.run_until(RUN_MS)

    assert client.reconnects == 1
    assert server.disconnect_reasons == {"server": 1}
    # The reconnected session re-interned both names: samples of both
    # signals keep arriving and decoding after the kill.
    displayed = (
        scope.channel("alpha").raw_array().tolist()
        + scope.channel("beta").raw_array().tolist()
    )
    assert len(set(displayed)) == len(displayed)
    assert max(displayed) > len(sent) * 0.8  # traffic flowed to the end
    assert server.totals()["protocol_errors"] == 0


# ----------------------------------------------------------------------
# Role 4: process shard workers — SIGKILL + respawn, byte-identical
# ----------------------------------------------------------------------

PROC_RUN_MS = 1_500.0


def _assert_state_equal(a, b, path=""):
    """Deep equality over nested dict/array snapshot state."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and set(a) == set(b), path
        for key in a:
            _assert_state_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(b, a, err_msg=path)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_state_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, (path, a, b)


def process_run(tmp_path, seed, kill_at, victim=0, rotate_before_kill=False):
    """One seeded run over real worker processes; returns (totals, states).

    ``kill_at`` is a *virtual* instant: the victim worker takes a real
    ``SIGKILL`` at the first feed tick at or past it.  The final state is
    fetched from the workers themselves via the snapshot control, after
    a drain proves every WAL'd sample was ingested.
    """
    rng = random.Random(seed)
    loop = MainLoop()
    sup = Router(
        backend="worker",
        loop=loop,
        wal_root=tmp_path,
        shards=N_SHARDS,
        scope_factory=factory,
        monitor_interval_ms=HEARTBEAT_MS,
        heartbeat_s=5.0,
        segment_samples=256,
    )
    killed = False
    with sup:

        def feed(_lost) -> bool:
            nonlocal killed
            now = loop.clock.now()
            if kill_at is not None and not killed and now >= kill_at:
                if rotate_before_kill:
                    for shard_id in range(N_SHARDS):
                        sup.snapshot_shard(shard_id)
                sup.crash_shard(victim)
                killed = True
            for name in SIGNALS:
                n = rng.randrange(0, 4)
                if n == 0:
                    continue
                times = sorted(now - rng.uniform(0.0, 240.0) for _ in range(n))
                values = [rng.uniform(-100.0, 100.0) for _ in range(n)]
                sup.push_samples(name, np.asarray(times), np.asarray(values))
            return True

        loop.timeout_add(TICK_MS, feed)
        loop.run_until(PROC_RUN_MS)
        sup.drain(timeout_s=120.0)
        totals = sup.totals()
        states = {i: sup.snapshot(i) for i in range(N_SHARDS)}
    return totals, states


def assert_process_equivalent(seed, oracle, faulted):
    o_totals, o_states = oracle
    f_totals, f_states = faulted
    for key in ("offered", "accepted", "dropped_late"):
        assert f_totals[key] == o_totals[key], f"seed {seed}: {key} diverged"
    for shard_id in o_states:
        _assert_state_equal(
            o_states[shard_id]["manager"],
            f_states[shard_id]["manager"],
            f"seed {seed} shard {shard_id}",
        )
        assert o_states[shard_id]["stats"] == f_states[shard_id]["stats"]


@pytest.mark.distributed
@pytest.mark.parametrize("seed", (3, 11))
def test_process_worker_sigkill_recovers_byte_identically(seed, tmp_path):
    """kill -9 mid-stream, respawn + WAL replay == a run that never died."""
    rng = random.Random(seed + 2000)
    kill_at = rng.uniform(400.0, 1100.0)
    victim = rng.randrange(N_SHARDS)
    oracle = process_run(tmp_path / "oracle", seed, kill_at=None)
    faulted = process_run(tmp_path / "faulted", seed, kill_at, victim=victim)
    assert_process_equivalent(seed, oracle, faulted)
    assert faulted[0]["restarts"] == 1
    assert faulted[0]["replayed_samples"] > 0
    assert oracle[0]["offered"] > 150
    assert oracle[0]["dropped_late"] > 0


@pytest.mark.distributed
def test_process_worker_kill_after_rotation_recovers(tmp_path):
    """Snapshot + WAL rotation, then SIGKILL: restore = state file +
    suffix replay, still byte-identical to the unfailed oracle."""
    seed = 5
    oracle = process_run(tmp_path / "oracle", seed, kill_at=None)
    faulted = process_run(
        tmp_path / "faulted", seed, kill_at=700.0, victim=1, rotate_before_kill=True
    )
    assert_process_equivalent(seed, oracle, faulted)
    assert faulted[0]["restarts"] == 1
