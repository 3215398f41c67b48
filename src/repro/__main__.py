"""Command-line interface: offline operations on recorded runs.

The library embeds in applications; the CLI covers the offline half of
the workflow — inspecting and "printing" tuple recordings made with the
:class:`~repro.core.tuples.Recorder`, interrogating columnar capture
stores, and re-running derived-signal queries over them:

.. code-block:: console

    python -m repro summary capture.tuples
    python -m repro print capture.tuples --ppm capture.ppm
    python -m repro spectrum capture.tuples --signal CWND --period 50
    python -m repro capture info run.capture
    python -m repro query "ewma(queue, 0.9)" --capture run.capture
    python -m repro query "ewma(queue, 0.9)" --server --duration 2000
    python -m repro trace --out trace.json
    python -m repro top --duration 2000
"""

from __future__ import annotations

import argparse
import heapq
import sys
from typing import List, Optional

from repro.core.frequency import spectrum as compute_spectrum
from repro.gui.printing import format_summary, print_recording, print_summary
from repro.core.scope import Scope
from repro.core.tuples import Player, format_tuple
from repro.eventloop.loop import MainLoop


def _cmd_summary(args: argparse.Namespace) -> int:
    summaries = print_summary(args.recording, period_ms=args.period)
    if not summaries:
        print("(empty recording)")
        return 1
    print(format_summary(summaries))
    return 0


def _cmd_print(args: argparse.Namespace) -> int:
    art = print_recording(
        args.recording,
        ppm_path=args.ppm,
        period_ms=args.period,
        width=args.width,
        height=args.height,
    )
    print(art)
    if args.ppm:
        print(f"wrote {args.ppm}", file=sys.stderr)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    player = Player(args.recording)
    loop = MainLoop()
    scope = Scope("spectrum", loop, period_ms=args.period)
    scope.set_playback_mode(player, period_ms=args.period)
    scope.start_polling()
    loop.run_until(player.start_time_ms + player.duration_ms + 10 * args.period)

    name = args.signal
    if name is None:
        names = scope.signal_names
        if len(names) != 1:
            print(
                f"recording holds signals {names}; pick one with --signal",
                file=sys.stderr,
            )
            return 2
        name = names[0]
    values = scope.channel(name).values()
    if len(values) < 2:
        print(f"signal {name!r} has too few points", file=sys.stderr)
        return 1
    spec = compute_spectrum(values, args.period)
    peak_freq, peak_mag = spec.peak()
    print(f"{name}: {len(values)} points, sample rate {spec.sample_rate_hz:.1f} Hz")
    print(f"peak {peak_freq:.3f} Hz (magnitude {peak_mag:.4g}), "
          f"nyquist {spec.nyquist_hz:.1f} Hz")
    return 0


def _cmd_capture_info(args: argparse.Namespace) -> int:
    from repro.capture import CaptureFormatError, CaptureReader

    try:
        reader = CaptureReader(args.capture, recover_tail=args.recover_tail)
    except CaptureFormatError as exc:
        print(f"invalid capture: {exc}", file=sys.stderr)
        return 1
    with reader:
        counts = reader.signal_sample_counts()
        print(f"capture:   {args.capture}")
        print(f"segments:  {len(reader.segments)}")
        print(f"blocks:    {reader.block_count}")
        print(f"samples:   {reader.sample_count}")
        span = reader.duration_ms
        print(
            f"time span: {reader.start_time_ms:g} .. {reader.end_time_ms:g} ms"
            f"  ({span / 1000.0:g} s)"
        )
        print(f"signals:   {len(counts)}")
        for name in reader.names:
            print(f"  {name}: {counts[name]} samples")
        if reader.skipped_tail:
            print(f"recovered: skipped torn tail segment {reader.skipped_tail}")
    return 0


def _cmd_query_server(args: argparse.Namespace) -> int:
    """Self-contained continuous-query demo over the wire protocol.

    Builds a deterministic in-memory rig — server, synthetic signal
    generator, one subscribing client — compiles the expression
    *server-side* via the QUERY/SUBSCRIBE channel, and prints the
    derived tuples streamed back.  No sockets, no real time: the loop's
    virtual clock drives everything, so two runs with one seed agree.
    """
    import numpy as np

    from repro.core.manager import ScopeManager
    from repro.core.signal import buffer_signal
    from repro.net import ScopeClient, ScopeServer, memory_pair
    from repro.query import QueryError, bind_params, compile_query

    try:
        plan = compile_query(bind_params(args.expression))
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 2
    loop = MainLoop()
    manager = ScopeManager(loop)
    scope = manager.scope_new("live", delay_ms=1e12)
    for name in plan.source_names:
        scope.signal_new(buffer_signal(name))
    server = ScopeServer(loop, manager)
    near, far = memory_pair(loop.clock)
    server.add_client(far)
    client = ScopeClient(near, loop)

    shown = [0]

    def show(name: str, times, values) -> None:
        for t, v in zip(times.tolist(), values.tolist()):
            if args.limit is None or shown[0] < args.limit:
                print(format_tuple(t, v, name))
                shown[0] += 1

    sub = client.subscribe(args.expression, on_batch=show)

    rng = np.random.default_rng(args.seed)
    sources = sorted(plan.source_names)
    phases = {name: float(rng.uniform(0.0, 6.28)) for name in sources}

    def feed(_lost: int) -> bool:
        now = loop.clock.now()
        for name in sources:
            value = float(np.sin(now / 250.0 + phases[name]))
            client.send_samples(name, [value], [now])
        return True

    loop.timeout_add(10.0, feed)
    loop.run_until(args.duration)
    if sub.error is not None:
        print(f"server rejected query: {sub.error}", file=sys.stderr)
        return 2
    for name in sub.output_names:
        times, _ = sub.columns(name)
        print(f"# {name}: {times.shape[0]} samples", file=sys.stderr)
    stats = server.queries.stats()
    print(
        f"# server: {stats['queries_compiled']} compiled, "
        f"{stats['samples_fanned']} samples fanned to "
        f"{stats['subscribers']} subscriber(s)",
        file=sys.stderr,
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.capture import CaptureFormatError, CaptureReader
    from repro.query import QueryError, compile_query, execute

    if args.server:
        return _cmd_query_server(args)
    if args.explain:
        try:
            plan = compile_query(args.expression)
        except QueryError as exc:
            print(f"query error: {exc}", file=sys.stderr)
            return 2
        print(plan.explain())
        return 0
    if args.capture is None:
        print("--capture is required (or use --explain)", file=sys.stderr)
        return 2
    try:
        reader = CaptureReader(args.capture, recover_tail=args.recover_tail)
    except CaptureFormatError as exc:
        print(f"invalid capture: {exc}", file=sys.stderr)
        return 1
    with reader:
        try:
            results = execute(reader, args.expression)
        except QueryError as exc:
            print(f"query error: {exc}", file=sys.stderr)
            return 2
    # One merged tuple stream, ordered by time — each output column is
    # already time-sorted, so a lazy heap merge (stable: ties keep
    # definition order) formats only what is actually printed/exported
    # instead of materialising and sorting every tuple.
    total = sum(times.shape[0] for times, _ in results.values())
    merged = heapq.merge(
        *(
            ((t, name, v) for t, v in zip(times.tolist(), values.tolist()))
            for name, (times, values) in results.items()
        ),
        key=lambda item: item[0],
    )
    export_fh = open(args.export, "w") if args.export else None
    shown = 0
    try:
        if export_fh is not None:
            export_fh.write(f"# query: {args.expression}\n")
        for name, (times, values) in results.items():
            print(f"# {name}: {times.shape[0]} samples", file=sys.stderr)
        for t, name, v in merged:
            line = format_tuple(t, v, name)
            if export_fh is not None:
                export_fh.write(line + "\n")
            if args.limit is None or shown < args.limit:
                print(line)
                shown += 1
            elif export_fh is None:
                break  # nothing left to print, nothing to export
    finally:
        if export_fh is not None:
            export_fh.close()
            print(f"wrote {args.export}", file=sys.stderr)
    if args.limit is not None and shown < total:
        print(f"... ({total - shown} more; raise --limit)", file=sys.stderr)
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Deterministic failover demo: fault a shard, prove exact recovery.

    Runs the same seeded workload twice on virtual time — once clean,
    once with a scripted shard fault — and diffs the final traces byte
    for byte.  Everything is deterministic: same seed, same verdict.
    """
    import random
    import tempfile

    import numpy as np

    from repro.core.signal import buffer_signal
    from repro.net import Router, shard_of

    signals = [f"sig{i}" for i in range(args.signals)]

    def factory(manager, shard_id):
        scope = manager.scope_new(f"scope-{shard_id}", period_ms=50, delay_ms=120.0)
        for name in signals:
            if shard_of(name, args.shards) == shard_id:
                scope.signal_new(buffer_signal(name, filter=0.25))
        scope.set_polling_mode(50)
        scope.start_polling()

    def run(wal_root, inject):
        rng = random.Random(args.seed)
        loop = MainLoop()
        sup = Router(
            loop=loop,
            wal_root=wal_root,
            shards=args.shards,
            scope_factory=factory,
            heartbeat_ms=args.heartbeat,
            miss_threshold=args.miss_threshold,
        )

        def feed(_lost) -> bool:
            now = loop.clock.now()
            for name in signals:
                n = rng.randrange(0, 4)
                if n:
                    times = sorted(now - rng.uniform(0.0, 240.0) for _ in range(n))
                    sup.push_samples(
                        name, times, [rng.uniform(-100.0, 100.0) for _ in range(n)]
                    )
            return True

        loop.timeout_add(25.0, feed)
        if inject:
            act = sup.crash_shard if args.fault == "crash" else sup.stall_shard
            loop.timeout_add(args.at, lambda lost: (act(args.victim), False)[1])
        loop.run_until(args.duration)
        end = loop.clock.now()
        for host in sup.targets:
            host.advance(end)
        traces = {}
        for shard_id, host in enumerate(sup.targets):
            scope = host.manager.scope(f"scope-{shard_id}")
            for name in signals:
                if shard_of(name, args.shards) == shard_id:
                    channel = scope.channel(name)
                    traces[name] = (
                        channel.times_array().copy(),
                        channel.values_array().copy(),
                    )
        totals = sup.totals()
        sup.close()
        return traces, totals

    with tempfile.TemporaryDirectory() as tmp:
        oracle_traces, oracle_totals = run(f"{tmp}/oracle", inject=False)
        fault_traces, fault_totals = run(f"{tmp}/faulted", inject=True)

    print(f"workload:  {args.signals} signals x {args.duration:g} ms, "
          f"seed {args.seed}, {args.shards} shards")
    print(f"fault:     {args.fault} shard {args.victim} at {args.at:g} ms "
          f"(heartbeat {args.heartbeat:g} ms, miss threshold "
          f"{args.miss_threshold})")
    print(f"oracle:    offered {oracle_totals['offered']}, accepted "
          f"{oracle_totals['accepted']}, late-dropped "
          f"{oracle_totals['dropped_late']}")
    print(f"faulted:   restarts {fault_totals['restarts']}, replayed "
          f"{fault_totals['replayed_samples']} samples, lost deliveries "
          f"{fault_totals['lost_deliveries']} (all WAL-covered)")
    identical = all(
        np.array_equal(oracle_traces[name][0], fault_traces[name][0])
        and np.array_equal(oracle_traces[name][1], fault_traces[name][1])
        for name in signals
    ) and all(
        oracle_totals[key] == fault_totals[key]
        for key in ("offered", "accepted", "dropped_late")
    )
    print(f"recovery:  traces {'byte-identical to' if identical else 'DIVERGED from'}"
          f" the unfailed run")
    return 0 if identical else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Deterministic traced demo rig → Chrome ``chrome://tracing`` JSON.

    Runs the full wire pipeline — client, server, server-side continuous
    query, multiplexed fan-out — on virtual time with the span tracer
    installed, so the export shows the real nesting
    (ingest → deliver → derive → fanout) with reproducible timestamps.
    """
    import numpy as np

    from repro.core.manager import ScopeManager
    from repro.core.signal import buffer_signal
    from repro.net import ScopeClient, ScopeServer, memory_pair
    from repro.obs import TraceCollector, install_tracer, uninstall_tracer

    loop = MainLoop()
    collector = TraceCollector(loop.clock, capacity=args.capacity)
    if not install_tracer(collector):
        print("tracing is disabled (REPRO_OBS=0)", file=sys.stderr)
        return 1
    try:
        manager = ScopeManager(loop)
        scope = manager.scope_new("trace-demo", delay_ms=1e12)
        scope.signal_new(buffer_signal("pkts"))
        server = ScopeServer(loop, manager)
        near, far = memory_pair(loop.clock)
        server.add_client(far)
        client = ScopeClient(near, loop)
        client.subscribe("pkt_rate = rate(pkts)")

        rng = np.random.default_rng(args.seed)

        def feed(_lost: int) -> bool:
            now = loop.clock.now()
            client.send_samples("pkts", [float(rng.poisson(8.0))], [now])
            return True

        loop.timeout_add(10.0, feed)
        loop.run_until(args.duration)
    finally:
        uninstall_tracer()
    payload = collector.chrome_json()
    spans = len(collector.spans())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(
            f"wrote {args.out} ({spans} spans, {collector.dropped} dropped); "
            "load it in chrome://tracing or https://ui.perfetto.dev",
            file=sys.stderr,
        )
    else:
        print(payload)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Deterministic self-scoped run → text view of every instrument.

    Builds a small virtual-time rig (manager, instrumented event loop,
    metrics publisher feeding telemetry back into the same manager) and
    prints the registry snapshot after ``--duration`` virtual ms — the
    live-metrics table the registry serves at any instant.
    """
    import numpy as np

    from repro.core.manager import ScopeManager
    from repro.core.signal import buffer_signal
    from repro.obs import OBS_PREFIX, MetricsPublisher, MetricsRegistry

    loop = MainLoop()
    manager = ScopeManager(loop)
    scope = manager.scope_new("top-demo", delay_ms=1e12)
    scope.signal_new(buffer_signal("pkts"))
    registry = MetricsRegistry()
    loop.observe(registry)
    publisher = MetricsPublisher(loop, manager, registry, period_ms=args.period)

    rng = np.random.default_rng(args.seed)

    def feed(_lost: int) -> bool:
        now = loop.clock.now()
        manager.push_samples("pkts", [now], [float(rng.poisson(8.0))])
        return True

    loop.timeout_add(10.0, feed)
    loop.run_until(args.duration)

    snap = registry.snapshot()
    if not snap:
        print("(no instruments mounted)")
        return 1
    width = max(len(name) for name in snap)
    print(f"{'instrument'.ljust(width)}  {'kind'.ljust(9)}  value")
    for name, entry in snap.items():
        kind = entry["kind"]
        if kind == "histogram":
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            value = f"n={entry['count']} mean={mean:.3f}"
        else:
            value = f"{entry['value']:g}"
        wall = "  (wall; never published)" if entry["wall"] else ""
        print(f"{name.ljust(width)}  {kind.ljust(9)}  {value}{wall}")
    print(
        f"# publisher: {publisher.samples_published} samples in "
        f"{publisher.ticks} ticks under {OBS_PREFIX}*"
        + ("" if publisher.active else " (inert: REPRO_OBS=0)"),
        file=sys.stderr,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors print the full help (not just usage), exit 2.

    An unknown or missing subcommand should show a user everything the
    tool can do — subparsers inherit this class, so nested errors print
    their own full help the same way.
    """

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_help(sys.stderr)
        print(f"\nerror: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Offline tools for gscope tuple recordings.",
    )
    sub = parser.add_subparsers(dest="command")

    p_summary = sub.add_parser("summary", help="per-signal statistics")
    p_summary.add_argument("recording", help="tuple file path")
    p_summary.add_argument("--period", type=float, default=50.0,
                           help="replay polling period in ms (default 50)")
    p_summary.set_defaults(fn=_cmd_summary)

    p_print = sub.add_parser("print", help="render a recording (Future Work, built)")
    p_print.add_argument("recording")
    p_print.add_argument("--period", type=float, default=50.0)
    p_print.add_argument("--ppm", default=None, help="also write a PPM image")
    p_print.add_argument("--width", type=int, default=512)
    p_print.add_argument("--height", type=int, default=160)
    p_print.set_defaults(fn=_cmd_print)

    p_spec = sub.add_parser("spectrum", help="frequency-domain view of a signal")
    p_spec.add_argument("recording")
    p_spec.add_argument("--signal", default=None, help="signal name (if several)")
    p_spec.add_argument("--period", type=float, default=50.0)
    p_spec.set_defaults(fn=_cmd_spectrum)

    p_capture = sub.add_parser("capture", help="columnar capture-store tools")
    cap_sub = p_capture.add_subparsers(dest="capture_command", required=True)
    p_info = cap_sub.add_parser("info", help="segments, signals, time span")
    p_info.add_argument("capture", help="capture directory")
    p_info.add_argument("--recover-tail", action="store_true",
                        help="skip a torn final segment (killed writer)")
    p_info.set_defaults(fn=_cmd_capture_info)

    p_query = sub.add_parser(
        "query", help="run a derived-signal query over a capture store"
    )
    p_query.add_argument("expression", help='e.g. "load = ewma(cpu, 0.9)"')
    p_query.add_argument("--capture", default=None,
                         help="capture directory (optional with --explain)")
    p_query.add_argument("--explain", action="store_true",
                         help="print the compiled (fused) plan and exit")
    p_query.add_argument("--limit", type=int, default=None,
                         help="print at most N derived tuples")
    p_query.add_argument("--export", default=None,
                         help="also write the derived tuples as tuple text")
    p_query.add_argument("--server", action="store_true",
                         help="continuous-query demo: compile server-side "
                              "over the wire and stream derived tuples")
    p_query.add_argument("--duration", type=float, default=2000.0,
                         help="virtual run length in ms for --server")
    p_query.add_argument("--seed", type=int, default=0,
                         help="generator seed for --server (deterministic)")
    p_query.add_argument("--recover-tail", action="store_true",
                         help="skip a torn final segment (killed writer)")
    p_query.set_defaults(fn=_cmd_query)

    p_faults = sub.add_parser(
        "faults",
        help="deterministic failover demo: fault a shard, prove exact recovery",
    )
    p_faults.add_argument("--fault", choices=("crash", "stall"), default="crash")
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument("--shards", type=int, default=2)
    p_faults.add_argument("--signals", type=int, default=4)
    p_faults.add_argument("--victim", type=int, default=0, help="shard id to fault")
    p_faults.add_argument("--at", type=float, default=900.0,
                          help="fault injection instant (virtual ms)")
    p_faults.add_argument("--duration", type=float, default=3000.0,
                          help="run length (virtual ms)")
    p_faults.add_argument("--heartbeat", type=float, default=50.0)
    p_faults.add_argument("--miss-threshold", type=int, default=3)
    p_faults.set_defaults(fn=_cmd_faults)

    p_trace = sub.add_parser(
        "trace",
        help="traced demo run: export nested spans as Chrome tracing JSON",
    )
    p_trace.add_argument("--out", default=None,
                         help="write the JSON here (default: stdout)")
    p_trace.add_argument("--duration", type=float, default=1000.0,
                         help="virtual run length in ms (default 1000)")
    p_trace.add_argument("--seed", type=int, default=0,
                         help="workload seed (deterministic)")
    p_trace.add_argument("--capacity", type=int, default=1 << 14,
                         help="span ring capacity (oldest drop beyond it)")
    p_trace.set_defaults(fn=_cmd_trace)

    p_top = sub.add_parser(
        "top",
        help="self-scoped demo run: print the live internal-metrics table",
    )
    p_top.add_argument("--duration", type=float, default=2000.0,
                       help="virtual run length in ms (default 2000)")
    p_top.add_argument("--period", type=float, default=100.0,
                       help="publisher period in ms (default 100)")
    p_top.add_argument("--seed", type=int, default=0,
                       help="workload seed (deterministic)")
    p_top.set_defaults(fn=_cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
