"""Command-line interface: run scenarios and quick experiments.

Subcommands:

* ``repro-ddos synflood`` — simulate a SYN flood plus flash crowd,
  run the monitor, and print the alarms it raises.
* ``repro-ddos topk`` — generate a Zipf workload (the paper's
  Section 6.1 setup), track top-k, and print recall/error against the
  exact answer.
* ``repro-ddos space`` — print the Section 6.1 space-accounting table
  for a given number of distinct pairs.
* ``repro-ddos trace`` — generate a synthetic flow trace, or replay an
  existing one through the monitor.
* ``repro-ddos plan`` — capacity planning: recommend sketch shapes for
  a target workload and accuracy (Theorem 4.4 vs calibrated).
* ``repro-ddos stats`` — run an instrumented workload and export the
  observability registry (JSON and/or Prometheus text; see
  ``docs/observability.md``).  With ``--checkpoint-dir`` the run is
  made crash-safe: updates are write-ahead logged and the sketch is
  checkpointed, so the durability metrics appear in the export.
* ``repro-ddos recover`` — rebuild a sketch from a durability
  directory (checkpoint + WAL tail) and print what it knows; the
  operator side of ``docs/recovery.md``.
* ``repro-ddos serve`` — ingest a workload and expose live telemetry
  over HTTP: ``/metrics`` (Prometheus), ``/healthz`` (the sketch
  accuracy self-check), ``/traces`` (sampled spans), ``/topk``.
* ``repro-ddos blackbox`` — pretty-print (and diff) the flight
  recorder's crash post-mortem dumps.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from .baselines import BruteForceTracker
from .exceptions import ParameterError, ReproError, StreamError
from .metrics import average_relative_error, top_k_recall
from .monitor import DDoSMonitor, MonitorConfig, SlidingWindowSketch
from .netsim import (
    BackgroundTraffic,
    FlashCrowd,
    FlowExporter,
    Scenario,
    SynFloodAttack,
    format_ip,
    parse_ip,
)
from .sketch import SketchParams, TrackingDistinctCountSketch
from .sketch.estimate import TopKResult
from .streams import ZipfWorkload
from .types import AddressDomain, cut_stream


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ddos",
        description=(
            "Distinct-Count Sketch DDoS detection "
            "(reproduction of Ganguly et al., ICDCS 2007)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flood = sub.add_parser(
        "synflood", help="simulate a SYN flood and run the monitor"
    )
    flood.add_argument("--victim", default="198.51.100.10")
    flood.add_argument("--flood-size", type=int, default=5000)
    flood.add_argument("--crowd-size", type=int, default=5000)
    flood.add_argument("--background-sessions", type=int, default=2000)
    flood.add_argument("--seed", type=int, default=0)

    topk = sub.add_parser(
        "topk", help="track top-k over a Zipf workload and score accuracy"
    )
    topk.add_argument("--pairs", type=int, default=100_000,
                      help="distinct source-destination pairs (paper's U)")
    topk.add_argument("--destinations", type=int, default=2000,
                      help="distinct destinations (paper's d)")
    topk.add_argument("--skew", type=float, default=1.5,
                      help="Zipf skew (paper's z)")
    topk.add_argument("--k", type=int, default=10)
    topk.add_argument("--r", type=int, default=3)
    topk.add_argument("--s", type=int, default=128)
    topk.add_argument("--seed", type=int, default=0)

    space = sub.add_parser(
        "space", help="print the Section 6.1 space-accounting comparison"
    )
    space.add_argument("--pairs", type=int, default=8_000_000)
    space.add_argument("--r", type=int, default=3)
    space.add_argument("--s", type=int, default=128)

    trace = sub.add_parser(
        "trace", help="generate or replay a flow-trace file"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    generate = trace_sub.add_parser(
        "generate", help="write a synthetic Zipf trace file"
    )
    generate.add_argument("path")
    generate.add_argument("--pairs", type=int, default=10_000)
    generate.add_argument("--destinations", type=int, default=200)
    generate.add_argument("--skew", type=float, default=1.5)
    generate.add_argument("--deletion-rate", type=float, default=0.0)
    generate.add_argument("--seed", type=int, default=0)
    replay = trace_sub.add_parser(
        "replay", help="replay a trace file through the monitor"
    )
    replay.add_argument("path")
    replay.add_argument("--k", type=int, default=10)
    replay.add_argument("--seed", type=int, default=0)

    plan = sub.add_parser(
        "plan", help="recommend sketch shapes for a target workload"
    )
    plan.add_argument("--pairs", type=int, required=True,
                      help="expected distinct pairs (U)")
    plan.add_argument("--kth-frequency", type=int, required=True,
                      help="smallest frequency to estimate well (f_vk)")
    plan.add_argument("--epsilon", type=float, default=0.25)
    plan.add_argument("--delta", type=float, default=0.05)

    lint = sub.add_parser(
        "lint", help="run the reprolint invariant checks over a source tree"
    )
    from .lint.cli import build_parser as build_lint_parser

    build_lint_parser(lint)

    describe = sub.add_parser(
        "describe", help="build a sketch from a trace and inspect it"
    )
    describe.add_argument("path", help="flow-trace file to load")
    describe.add_argument("--seed", type=int, default=0)
    describe.add_argument("--r", type=int, default=3)
    describe.add_argument("--s", type=int, default=128)

    experiment = sub.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    experiment.add_argument(
        "name", choices=["fig8", "fig9", "latency"],
        help="fig8 = accuracy grid; fig9 = timing sweep; "
             "latency = detection latency",
    )
    experiment.add_argument("--pairs", type=int, default=50_000)
    experiment.add_argument("--runs", type=int, default=2)
    experiment.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser(
        "stats",
        help="run an instrumented workload and export runtime metrics",
    )
    stats.add_argument(
        "--workload", choices=["quickstart", "zipf"], default="quickstart",
        help="quickstart = SYN flood + legitimate handshakes through a "
             "lossy channel; zipf = the Section 6.1 workload",
    )
    stats.add_argument("--updates", type=int, default=2000,
                       help="stream length before export")
    stats.add_argument(
        "--format", choices=["json", "prometheus", "both"], default="both",
        help="snapshot format(s) printed after ingestion",
    )
    stats.add_argument(
        "--watch", type=int, default=0, metavar="N",
        help="print a one-line metric summary every N delivered updates "
             "(update-count driven: the library never reads the clock)",
    )
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--window", type=int, default=0, metavar="N",
        help="score alarms over an exact sliding window of N sub-epochs "
             "instead of all-time state (docs/windowing.md); windowed "
             "top-k joins the export",
    )
    stats.add_argument(
        "--subepoch-length", type=int, default=500, metavar="G",
        help="updates per window sub-epoch (window covers up to "
             "N*G updates; requires --window)",
    )
    stats.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="make the run crash-safe: write-ahead log every delivered "
             "update under DIR and checkpoint the sketch (see "
             "docs/recovery.md); durability metrics join the export",
    )
    stats.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="checkpoint cadence in delivered updates, checked after "
             "each WAL record of up to 1024 updates (0 = only the "
             "final checkpoint at exit; requires --checkpoint-dir)",
    )

    recover = sub.add_parser(
        "recover",
        help="rebuild a sketch from a durability directory and "
             "inspect it",
    )
    recover.add_argument(
        "directory",
        help="durability directory (holds checkpoints/ and wal/)",
    )
    recover.add_argument("--label", default="sketch",
                         help="checkpoint label to recover")
    recover.add_argument(
        "--backend", choices=["reference", "packed"], default="packed",
        help="storage backend of the restored sketch",
    )
    recover.add_argument("--k", type=int, default=10,
                         help="top-k table size to print")

    serve = sub.add_parser(
        "serve",
        help="ingest a workload and expose live telemetry over HTTP",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9309,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument(
        "--workload", choices=["quickstart", "zipf"], default="zipf",
        help="stream ingested before serving (see `stats`)",
    )
    serve.add_argument("--updates", type=int, default=20_000,
                       help="stream length ingested before serving")
    serve.add_argument("--k", type=int, default=10,
                       help="top-k table size behind /topk")
    serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="ingest through a process-backed sharded sketch with N "
             "workers (0 = single in-process sketch, the faster choice "
             "on 2 or fewer vCPUs: see docs/performance.md); scrapes "
             "then pull worker-side counters and spans over the pipes",
    )
    serve.add_argument(
        "--sample-every", type=int, default=100, metavar="N",
        help="span head-sampling rate: record 1 in N root spans "
             "(1 = everything, 0 = tracing off)",
    )
    serve.add_argument(
        "--max-requests", type=int, default=0, metavar="N",
        help="serve exactly N requests then exit (0 = serve forever); "
             "the counted loop keeps the CLI clock-free, which is how "
             "CI smokes the endpoint",
    )
    serve.add_argument("--seed", type=int, default=0)

    blackbox = sub.add_parser(
        "blackbox",
        help="pretty-print (and diff) flight-recorder post-mortem dumps",
    )
    blackbox.add_argument("path", help="dump file (blackbox-*.bin)")
    blackbox.add_argument(
        "--diff", default=None, metavar="OTHER",
        help="second dump: report events/spans present in only one",
    )
    blackbox.add_argument(
        "--spans", type=int, default=20, metavar="N",
        help="most-recent spans to print (0 = all)",
    )

    return parser


def _run_synflood(args: argparse.Namespace) -> int:
    domain = AddressDomain(2 ** 32)
    victim = parse_ip(args.victim)
    crowd_dest = parse_ip("198.51.100.20")
    background = [parse_ip(f"198.51.100.{i}") for i in range(30, 60)]
    scenario = Scenario(
        SynFloodAttack(victim, flood_size=args.flood_size,
                       seed=args.seed + 1),
        FlashCrowd(crowd_dest, crowd_size=args.crowd_size,
                   seed=args.seed + 2),
        BackgroundTraffic(background, sessions=args.background_sessions,
                          seed=args.seed + 3),
    )
    updates = FlowExporter().export_all(scenario.packets())
    monitor = DDoSMonitor(
        domain, MonitorConfig(check_interval=500), seed=args.seed
    )
    alarms = monitor.observe_stream(updates)
    print(f"processed {len(updates)} flow updates")
    if not alarms:
        print("no alarms raised")
    for alarm in alarms:
        print(
            f"ALARM [{alarm.severity.value:8s}] dest={format_ip(alarm.dest)} "
            f"est_half_open_sources={alarm.estimated_frequency} "
            f"baseline={alarm.baseline_frequency:.0f}"
        )
    flash_hit = any(alarm.dest == crowd_dest for alarm in alarms)
    print(
        "flash crowd at "
        f"{format_ip(crowd_dest)} correctly NOT alarmed"
        if not flash_hit
        else "WARNING: flash crowd raised a false alarm"
    )
    return 0


def _run_topk(args: argparse.Namespace) -> int:
    domain = AddressDomain(2 ** 32)
    workload = ZipfWorkload(
        domain,
        distinct_pairs=args.pairs,
        destinations=args.destinations,
        skew=args.skew,
        seed=args.seed,
    )
    sketch = TrackingDistinctCountSketch(
        SketchParams(domain, r=args.r, s=args.s), seed=args.seed
    )
    print(f"processing {args.pairs} updates ...")
    sketch.process_stream(workload)
    result = sketch.track_topk(args.k)
    truth = workload.frequencies()
    recall = top_k_recall(truth, result.destinations, args.k)
    error = average_relative_error(truth, result.as_dict(), args.k)
    print(f"top-{args.k} recall: {recall:.2f}")
    print(f"avg relative error: {error:.3f}")
    print(f"sketch space: {sketch.space_bytes() / 1e6:.2f} MB "
          f"(brute force: "
          f"{BruteForceTracker.projected_space_bytes(args.pairs) / 1e6:.1f} "
          f"MB)")
    _print_ranking(result)
    return 0


def _print_ranking(result: TopKResult) -> None:
    """The rank / destination / estimate table of a top-k answer."""
    print("rank  destination        estimate")
    for index, entry in enumerate(result, start=1):
        print(
            f"{index:4d}  {format_ip(entry.dest):15s}  {entry.estimate:8d}"
        )


def _run_space(args: argparse.Namespace) -> int:
    import math

    domain = AddressDomain(2 ** 32)
    params = SketchParams(domain, r=args.r, s=args.s)
    active_levels = max(1, int(math.log2(max(args.pairs, 2))))
    basic = params.allocated_bytes(active_levels=active_levels)
    tracking = 2 * basic  # the paper's "factor of about two"
    brute = BruteForceTracker.projected_space_bytes(args.pairs)
    print(f"distinct pairs (U):        {args.pairs:,}")
    print(f"non-empty levels:          {active_levels}")
    print(f"basic DCS space:           {basic / 1e6:10.2f} MB")
    print(f"tracking DCS space:        {tracking / 1e6:10.2f} MB")
    print(f"brute-force space:         {brute / 1e6:10.2f} MB")
    print(f"gain (basic vs brute):     {brute / basic:10.1f} x")
    return 0


def _read_trace_file(path: str) -> List["FlowUpdate"]:
    """The trace at ``path``; a path that cannot be read (missing, a
    directory) raises :class:`~repro.exceptions.StreamError`, so the
    command ends in one stderr line."""
    from .streams import read_trace

    try:
        return read_trace(path)
    except OSError as error:
        raise StreamError(f"cannot read trace: {error}") from error


def _run_trace(args: argparse.Namespace) -> int:
    from .streams import with_matched_deletions, write_trace

    domain = AddressDomain(2 ** 32)
    if args.trace_command == "generate":
        workload = ZipfWorkload(
            domain,
            distinct_pairs=args.pairs,
            destinations=args.destinations,
            skew=args.skew,
            seed=args.seed,
        )
        updates = workload.updates()
        if args.deletion_rate > 0:
            updates = with_matched_deletions(
                updates, rate=args.deletion_rate, seed=args.seed + 1
            )
        count = write_trace(
            args.path,
            updates,
            header=(
                f"synthetic Zipf trace: U={args.pairs} "
                f"d={args.destinations} z={args.skew} "
                f"deletion_rate={args.deletion_rate} seed={args.seed}"
            ),
        )
        print(f"wrote {count} updates to {args.path}")
        return 0
    # replay
    updates = _read_trace_file(args.path)
    sketch = TrackingDistinctCountSketch(domain, seed=args.seed)
    sketch.process_stream(updates)
    result = sketch.track_topk(args.k)
    print(f"replayed {len(updates)} updates from {args.path}")
    print(f"estimated distinct active pairs: "
          f"{sketch.estimate_distinct_pairs()}")
    _print_ranking(result)
    return 0


def _run_plan(args: argparse.Namespace) -> int:
    from .analysis import plan_capacity

    domain = AddressDomain(2 ** 32)
    print(f"workload: U={args.pairs:,}, f_vk={args.kth_frequency:,}, "
          f"epsilon={args.epsilon}, delta={args.delta}")
    for flavor in ("calibrated", "theorem-4.4"):
        plan = plan_capacity(
            domain,
            distinct_pairs=args.pairs,
            kth_frequency=args.kth_frequency,
            epsilon=args.epsilon,
            delta=args.delta,
            flavor=flavor,
        )
        print(f"\n[{flavor}]")
        print(f"  r = {plan.params.r}, s = {plan.params.s}")
        print(f"  predicted space: "
              f"{plan.predicted_space_bytes / 1e6:.2f} MB")
        print(f"  predicted relative std-error at f_vk: "
              f"{plan.predicted_relative_error:.3f}")
    return 0


def _run_describe(args: argparse.Namespace) -> int:
    from .metrics import deep_size_bytes
    from .sketch.debug import describe

    domain = AddressDomain(2 ** 32)
    updates = _read_trace_file(args.path)
    sketch = TrackingDistinctCountSketch(domain, r=args.r, s=args.s,
                                         seed=args.seed)
    sketch.process_stream(updates)
    print(describe(sketch))
    print(f"estimated distinct active pairs: "
          f"{sketch.estimate_distinct_pairs()}")
    print(f"actual Python memory: "
          f"{deep_size_bytes(sketch) / 1e6:.1f} MB "
          f"(model: {sketch.space_bytes() / 1e6:.2f} MB)")
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        run_accuracy_grid,
        run_detection_latency,
        run_timing_sweep,
    )

    domain = AddressDomain(2 ** 32)
    if args.name == "fig8":
        grid = run_accuracy_grid(
            domain, distinct_pairs=args.pairs, runs=args.runs,
            seed=args.seed,
        )
        skews = sorted({cell.skew for cell in grid.cells})
        k_values = sorted({cell.k for cell in grid.cells})
        print(f"Figure 8 grid: U={grid.distinct_pairs}, "
              f"d={grid.destinations}, runs={args.runs}")
        header = "k    " + "  ".join(
            f"z={skew} (recall/err)" for skew in skews
        )
        print(header)
        for k in k_values:
            cells = [grid.cell(skew, k) for skew in skews]
            row = "  ".join(
                f"{cell.recall:.2f}/{cell.relative_error:.3f}"
                + " " * 8
                for cell in cells
            )
            print(f"{k:<4d} {row}")
        return 0
    if args.name == "fig9":
        points = run_timing_sweep(
            domain, distinct_pairs=args.pairs, seed=args.seed,
        )
        print("Figure 9 sweep (us/update):")
        print("query_freq   basic    tracking")
        frequencies = sorted({p.query_frequency for p in points})
        by_key = {(p.variant, p.query_frequency): p for p in points}
        for frequency in frequencies:
            basic = by_key[("basic", frequency)]
            tracking = by_key[("tracking", frequency)]
            print(f"{frequency:<12.5f} "
                  f"{basic.microseconds_per_update:<8.1f} "
                  f"{tracking.microseconds_per_update:<8.1f}")
        return 0
    # latency
    result = run_detection_latency(
        domain, flood_size=args.pairs // 10 or 1000, seed=args.seed,
    )
    if result.detected:
        print(f"victim detected after {result.updates_until_alarm} "
              f"updates ({result.attack_fraction_seen:.1%} of the "
              f"attack consumed)")
    else:
        print("victim not detected")
    return 0


def _stats_quickstart(
    domain: AddressDomain, count: int, seed: int
) -> List["FlowUpdate"]:
    """A quickstart-style stream: SYN flood + legitimate handshakes."""
    import random

    from .hashing import derive_seed
    from .types import FlowUpdate

    rng = random.Random(derive_seed(seed, "stats-quickstart"))
    victim = parse_ip("198.51.100.10")
    updates: List[FlowUpdate] = []
    legit_open: List[tuple] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.6:
            # Spoofed SYN to the victim: stays half-open forever.
            updates.append(FlowUpdate(rng.randrange(domain.m), victim, 1))
        elif legit_open and roll < 0.8:
            # A legitimate handshake completes: matched deletion.
            source, dest = legit_open.pop()
            updates.append(FlowUpdate(source, dest, -1))
        else:
            source = rng.randrange(domain.m)
            dest = parse_ip(f"203.0.113.{rng.randrange(1, 40)}")
            legit_open.append((source, dest))
            updates.append(FlowUpdate(source, dest, 1))
    return updates


def _run_stats(args: argparse.Namespace) -> int:
    from .obs import Registry, render_json, render_prometheus
    from .resilience import DurableSketch
    from .streams.transport import Channel

    if args.checkpoint_every and not args.checkpoint_dir:
        print("--checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    for flag, value in (("--updates", args.updates),
                        ("--watch", args.watch)):
        if value < 0:
            print(f"{flag} must be >= 0", file=sys.stderr)
            return 2
    if args.window < 0 or args.subepoch_length < 1:
        print("--window must be >= 0 and --subepoch-length >= 1",
              file=sys.stderr)
        return 2
    domain = AddressDomain(2 ** 32)
    registry = Registry()
    window: Optional[SlidingWindowSketch] = None
    if args.window:
        window = SlidingWindowSketch(
            domain,
            subepoch_length=args.subepoch_length,
            window_subepochs=args.window,
            seed=args.seed,
            obs=registry,
        )
    monitor = DDoSMonitor(
        domain,
        MonitorConfig(check_interval=500),
        seed=args.seed,
        obs=registry,
        window=window,
    )
    durable: Optional[DurableSketch] = None
    if args.checkpoint_dir:
        durable = DurableSketch(
            args.checkpoint_dir,
            domain,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
            obs=registry,
        )
        if durable.recovered:
            print(
                f"# resumed from checkpoint "
                f"(wal_seq={durable.wal.next_seq}, "
                f"replayed={durable.records_replayed})"
            )
    channel = Channel(
        loss_rate=0.02,
        duplicate_rate=0.01,
        reorder_window=4,
        seed=args.seed,
        obs=registry,
    )
    updates = _workload_updates(args)
    delivered = channel.transmit(updates)

    def metric_value(name: str) -> int:
        instrument = registry.get(name)
        return getattr(instrument, "value", 0) if instrument else 0

    # One chunk per --watch interval (the whole stream without one):
    # every chunk rides the batch engine, and each watch line prints
    # exactly at its delivered position.
    position = 0
    for chunk in cut_stream(delivered, args.watch or len(delivered) or 1):
        monitor.observe_batch(chunk)
        if durable is not None:
            durable.process_stream(chunk)
        position += len(chunk)
        if args.watch and position % args.watch == 0:
            print(
                f"[watch] delivered={position} "
                f"sketch_updates="
                f"{metric_value('repro_sketch_updates_total')} "
                f"occupied_buckets="
                f"{metric_value('repro_sketch_occupied_buckets')} "
                f"alarms={metric_value('repro_monitor_alarms_total')}"
            )
    monitor.check_now()
    if durable is not None:
        durable.checkpoint()
        durable.close()
        print(
            f"# durable state under {args.checkpoint_dir} "
            f"(wal_seq={durable.wal.next_seq}; recover with: "
            f"repro-ddos recover {args.checkpoint_dir})"
        )
    print(
        f"# ingested {len(delivered)} of {len(updates)} updates "
        f"(workload={args.workload}, seed={args.seed})"
    )
    if window is not None:
        top = window.top_k(5)
        listing = ", ".join(
            f"{entry.dest}:{entry.estimate}" for entry in top
        )
        print(
            f"# window top-5 over last <= "
            f"{args.window * args.subepoch_length} updates "
            f"(subepoch={window.subepoch_index}): {listing}"
        )
    if args.format in ("prometheus", "both"):
        print(render_prometheus(registry), end="")
    if args.format in ("json", "both"):
        print(render_json(registry))
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .resilience import recover_sketch

    try:
        result = recover_sketch(
            Path(args.directory),
            label=args.label,
            backend=args.backend,
        )
    except ReproError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1
    info = result.checkpoint
    if info is not None:
        print(
            f"checkpoint: label={info.label!r} "
            f"wal_count={info.wal_count} bytes={info.nbytes} "
            f"crc32={info.crc32:#010x}"
        )
    print(f"wal records replayed: {result.records_replayed}")
    print(f"sketch reflects wal position: {result.wal_count}")
    sketch = result.sketch
    print(f"recovered: {sketch!r}")
    if hasattr(sketch, "track_topk"):
        _print_ranking(sketch.track_topk(args.k))
    return 0


def _workload_updates(args: argparse.Namespace) -> List["FlowUpdate"]:
    """The ``--workload`` stream of ``stats`` and ``serve``."""
    domain = AddressDomain(2 ** 32)
    if args.workload == "zipf":
        workload = ZipfWorkload(
            domain,
            distinct_pairs=args.updates,
            destinations=max(args.updates // 50, 10),
            skew=1.2,
            seed=args.seed,
        )
        return list(workload.updates())
    return _stats_quickstart(domain, args.updates, args.seed)


def _run_serve(args: argparse.Namespace) -> int:
    from .obs import (
        FlightRecorder,
        Registry,
        SketchHealth,
        TelemetryServer,
        Tracer,
        install_recorder,
        install_tracer,
        uninstall_recorder,
        uninstall_tracer,
    )
    from .sketch.sharded import ShardedSketch

    for flag, value in (("--sample-every", args.sample_every),
                        ("--shards", args.shards),
                        ("--max-requests", args.max_requests),
                        ("--updates", args.updates)):
        if value < 0:
            print(f"{flag} must be >= 0", file=sys.stderr)
            return 2
    domain = AddressDomain(2 ** 32)
    registry = Registry()
    if args.sample_every > 0:
        install_tracer(
            Tracer(sample_every=args.sample_every, obs=registry)
        )
    install_recorder(FlightRecorder())
    try:
        updates = _workload_updates(args)
        refresh: Optional[Callable[[], None]] = None
        if args.shards > 0:
            sharded = ShardedSketch(
                domain,
                shards=args.shards,
                seed=args.seed,
                obs=registry,
                backend="process",
            )
            sharded.process_stream(updates)
            def sketch_view() -> TrackingDistinctCountSketch:
                return sharded.combined()

            def topk() -> "TopKResult":
                return sharded.track_topk(args.k)

            def pull_workers() -> None:
                sharded.absorb_worker_obs()
                sharded.drain_worker_traces()

            refresh = pull_workers
        else:
            sketch = TrackingDistinctCountSketch(
                domain, seed=args.seed, obs=registry
            )
            sketch.process_stream(updates)

            def sketch_view() -> TrackingDistinctCountSketch:
                return sketch

            def topk() -> "TopKResult":
                return sketch.track_topk(args.k)
        server = TelemetryServer(
            registry,
            host=args.host,
            port=args.port,
            topk=topk,
            health=SketchHealth(sketch_view),
            refresh=refresh,
        )
        print(
            f"# ingested {len(updates)} updates "
            f"(workload={args.workload}, shards={args.shards})"
        )
        print(
            f"# serving http://{server.host}:{server.port}"
            "{/metrics,/healthz,/traces,/topk}"
        )
        sys.stdout.flush()
        try:
            if args.max_requests:
                server.serve(args.max_requests)
                print(f"# served {server.requests_served} requests")
            else:
                while True:
                    server.serve(1)
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
            if args.shards > 0:
                sharded.close()
        return 0
    finally:
        uninstall_tracer()
        uninstall_recorder()


def _format_blackbox_event(event: dict) -> str:
    fields = " ".join(
        f"{key}={value}"
        for key, value in sorted(event.items())
        if key not in ("seq", "kind")
    )
    return (
        f"  [{event.get('seq', '?'):>4}] "
        f"{str(event.get('kind', '?')):<20} {fields}".rstrip()
    )


def _run_blackbox(args: argparse.Namespace) -> int:
    from collections import Counter
    from pathlib import Path

    from .obs import load_blackbox

    try:
        dump = load_blackbox(Path(args.path))
    except (OSError, ParameterError) as error:
        print(f"cannot read dump: {error}", file=sys.stderr)
        return 1
    header = dump.header
    print(
        f"blackbox {args.path}: reason={dump.reason!r} "
        f"pid={header.get('pid')} version={header.get('version')}"
    )
    if dump.torn:
        print("WARNING: dump is torn (truncated mid-record); records "
              "below are the intact prefix")
    print(f"\nevents ({len(dump.events)}):")
    for event in dump.events:
        print(_format_blackbox_event(event))
    spans = dump.spans
    shown = spans if args.spans == 0 else spans[-args.spans:]
    print(f"\nspans ({len(spans)} buffered, showing {len(shown)}):")
    for entry in shown:
        duration_us = int(entry.get("dur_ns", 0)) // 1000
        print(
            f"  {str(entry.get('name', '?')):<24} "
            f"{duration_us:>8} us  pid={entry.get('pid')} "
            f"id={entry.get('id')} parent={entry.get('parent')}"
        )
    if args.diff is None:
        return 0
    try:
        other = load_blackbox(Path(args.diff))
    except (OSError, ParameterError) as error:
        print(f"cannot read diff target: {error}", file=sys.stderr)
        return 1

    def event_key(event: dict) -> tuple:
        return tuple(
            sorted(
                (key, str(value))
                for key, value in event.items()
                if key != "seq"
            )
        )

    ours = Counter(event_key(event) for event in dump.events)
    theirs = Counter(event_key(event) for event in other.events)
    print(f"\ndiff vs {args.diff}:")
    for label, extra in (
        ("only in first", ours - theirs),
        ("only in second", theirs - ours),
    ):
        total = sum(extra.values())
        print(f"  events {label}: {total}")
        for key, count in sorted(extra.items()):
            rendered = " ".join(f"{k}={v}" for k, v in key)
            print(f"    {count}x {rendered}")
    our_names = Counter(str(entry.get("name")) for entry in dump.spans)
    their_names = Counter(str(entry.get("name")) for entry in other.spans)
    for name in sorted(set(our_names) | set(their_names)):
        ours_n, theirs_n = our_names[name], their_names[name]
        if ours_n != theirs_n:
            print(f"  span {name}: {ours_n} vs {theirs_n}")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run as run_lint

    return run_lint(args)


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "blackbox": _run_blackbox,
    "describe": _run_describe,
    "experiment": _run_experiment,
    "lint": _run_lint,
    "plan": _run_plan,
    "recover": _run_recover,
    "serve": _run_serve,
    "space": _run_space,
    "stats": _run_stats,
    "synflood": _run_synflood,
    "topk": _run_topk,
    "trace": _run_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    A library error (any :class:`~repro.exceptions.ReproError`) ends
    the command with a one-line message on stderr, never a traceback:
    a flag value the library rejects (a :class:`~repro.exceptions.
    ParameterError`, e.g. a negative size) is a usage error, exit
    status 2; malformed input (a trace's unparseable token or
    out-of-domain address, a corrupt log) exits 1.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"repro-ddos {args.command}: {error}", file=sys.stderr)
        return 2 if isinstance(error, ParameterError) else 1


if __name__ == "__main__":
    sys.exit(main())
