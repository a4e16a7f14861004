"""Pipeline benchmark: NetFlow records → updates → sketch → top-k → alarms.

One run measures one workload (``--trace`` is 0 or 1)::

    python3 pipebench/bench_pipeline.py --workload NAME --seed N
        --seconds S --trace T

It generates (or loads the cached) input for ``(workload, seed)``, then
repeats the workload until ``--seconds`` of measuring are spent: build
the pipeline, feed the clean prefix and learn the baseline (timed as
``setup_s``), then run the timed phase as a closed loop of cycles.
``--trace 0`` repeats untraced and reports the end-to-end metrics, with
every timing scaled to a reference host speed by a probe run off the
clock after each cycle (see :mod:`hostspeed`).
``--trace 1`` alternates untraced and traced repetitions of the same
input and reports the per-layer metrics; the traced ones install a
:class:`repro.obs.Tracer` and wrap each layer's public entry points in
``bench.*`` spans (see :mod:`layers`).  After the last repetition the
output checks run; any failure makes the exit code 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A summary with more detail is written
under ``.pipebench/results/``, and a traced run's spans (those of its
median traced repetition) under ``.pipebench/traces/``.

Every workload, both modes, and the report that answers the ROADMAP's
two questions from the collected numbers::

    python3 pipebench/bench_pipeline.py --workload all --seed N --seconds S

The harness self-tests run with ``python3 -m pytest pipebench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
WORK = ROOT / ".pipebench"

from repro.exceptions import ReproError  # noqa: E402
from repro.obs import Registry, Tracer, install_tracer  # noqa: E402
from repro.sketch.process_pool import PoolUnavailable, WorkerDied  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import pipelines  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "events_per_s": "events/s",
    "cycle_p50_ms": "ms",
    "cycle_p90_ms": "ms",
    "detect_lag_updates": "updates",
    "recall": "ratio",
    "alarm_precision": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "netsim.records": "count",
    "netsim.updates": "count",
    "netsim.yield": "updates/record",
    "netsim.busy_s": "s",
    "netsim.us_per_record": "us",
    "sketch.batches": "count",
    "sketch.updates": "count",
    "sketch.batch_size_mean": "updates",
    "sketch.ingest_busy_s": "s",
    "sketch.us_per_update": "us",
    "sketch.encode_s": "s",
    "sketch.hash_s": "s",
    "sketch.scatter_s": "s",
    "sketch.singleton_events": "count",
    "sketch.heap_ops": "count",
    "sketch.occupied_buckets": "count",
    "monitor.ingest_busy_s": "s",
    "monitor.checks": "count",
    "monitor.check_busy_s": "s",
    "monitor.check_p50_us": "us",
    "monitor.check_p90_us": "us",
    "monitor.alarms": "count",
    "monitor.false_alarms": "count",
    "sketch.topk_calls": "count",
    "sketch.topk_busy_s": "s",
    "sketch.topk_us_per_call": "us",
    "sketch.topk_p90_us": "us",
    "sketch.decode_s": "s",
    "sketch.sample_fill": "ratio",
    "sketch.collision_rate": "ratio",
    "sketch.scalar_fallbacks": "count",
    "window.ingest_busy_s": "s",
    "window.plain_us_per_update": "us",
    "window.advances": "count",
    "window.advance_s": "s",
    "window.advance_p90_us": "us",
    "window.expirations": "count",
    "sharded.route_busy_s": "s",
    "sharded.pipe_send_s": "s",
    "sharded.syncs": "count",
    "sharded.sync_busy_s": "s",
    "sharded.sync_wait_s": "s",
    "sharded.delta_bytes_per_sync": "bytes",
    "sharded.full_resyncs": "count",
    "sharded.worker_ingest_s": "s",
    "sharded.worker_busy_frac": "ratio",
    "sharded.skew": "ratio",
    "obs.trace_overhead": "ratio",
    "bench.other_s": "s",
    "bench.traced_wall_s": "s",
}

#: Percentile metrics pooled over all traced repetitions: name ->
#: (samples key, percentile).  Reported as 0 when the pooled sample is
#: too small to support the percentile; a p90 needs 100 samples, which
#: a traced run reaches even on window advances (60 per repetition).
POOLED_PERCENTILES = {
    "monitor.check_p50_us": ("check", 50.0),
    "monitor.check_p90_us": ("check", 90.0),
    "sketch.topk_p90_us": ("topk", 90.0),
    "window.advance_p90_us": ("advance", 90.0),
}

#: Cycles an untraced run must time: cycle_p90_ms then rests on 100
#: samples beyond it, and the (printed) p99 on 10.
MIN_CYCLES = 1000
#: Setups a run must time so that setup_s is a median.
MIN_SETUPS = 3
#: Cycles between drains of the shard workers' span buffers (a cycle
#: records about 4 spans per worker).
WORKER_DRAIN_EVERY = 128
#: Spans a shard worker's ring holds (workers build a default Tracer).
WORKER_RING = Tracer().capacity
#: Traced spans a cycle may record, for sizing the tracer's ring.
SPANS_PER_CYCLE = 48
#: Host-speed probe rounds run before a set-up and again after it.
SETUP_PROBES = 9

#: One probe time (ns) per vCPU probed, per timed interval.
ProbeSeries = List[List[int]]

QuerySink = List[float]


@dataclass
class Rep:
    """One repetition: build, set up, run the timed phase.

    ``wall_ns`` leaves out the host-speed probes; ``probe_ns`` holds,
    per vCPU probed, the probe run after each untraced cycle, and
    ``setup_probe_ns`` those run around an untraced set-up (both empty
    when traced).
    """

    traced: bool
    setup_s: float
    wall_ns: int
    cycle_ns: List[int]
    events: int
    failed: int
    alarms: List[Tuple[int, str, int]]
    probe_ns: ProbeSeries = field(default_factory=list)
    setup_probe_ns: ProbeSeries = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[int]] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    last: bool = False


def _spanned(
    tracer: Tracer,
    name: str,
    method: Callable[..., Any],
    fills: Optional[QuerySink],
) -> Callable[..., Any]:
    """``method`` wrapped in a span; query results feed ``fills``."""
    if fills is None:
        def call(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return method(*args, **kwargs)
        return call

    def query(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            result = method(*args, **kwargs)
        fills.append(result.sample_size / result.target_size)
        return result
    return query


def instrument(
    pipeline: pipelines.Pipeline, tracer: Tracer, fills: QuerySink
) -> None:
    """Wrap the pipeline's entry points (instance attributes shadow the
    class methods, so the library's own calls go through them too)."""
    for obj, method_name, span_name in pipeline.entry_points():
        sink = fills if span_name in layers.QUERY_SPANS else None
        setattr(
            obj,
            method_name,
            _spanned(tracer, span_name, getattr(obj, method_name), sink),
        )


def _alarm_key(alarm: Any) -> Tuple[int, str, int]:
    return (alarm.dest, alarm.severity.value, alarm.updates_seen)


def _probe() -> int:
    """Run one host-speed probe; returns its duration (ns)."""
    tick = time.perf_counter_ns()
    hostspeed.probe()
    return time.perf_counter_ns() - tick


def _probe_round(cpus: List[int]) -> List[int]:
    """One probe where this process runs (``cpus`` empty), or one on
    each of ``cpus`` in turn; their durations (ns)."""
    if not cpus:
        return [_probe()]
    mask = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_probe())
        return times
    finally:
        os.sched_setaffinity(0, mask)


def _series(rounds: List[List[int]]) -> ProbeSeries:
    """Probe rounds regrouped into one series per vCPU probed."""
    return [list(series) for series in zip(*rounds)]


class Timing:
    """An untraced repetition's timings, raw or at the reference host
    speed (see :mod:`hostspeed`)."""

    def __init__(self, rep: Rep, scaled: bool) -> None:
        self.cycle_ns: List[float] = [float(ns) for ns in rep.cycle_ns]
        self.wall_ns = float(rep.wall_ns)
        self.setup_s = rep.setup_s
        if scaled:
            self.cycle_ns = hostspeed.scale(rep.cycle_ns, rep.probe_ns)
            # The wall also holds the loop's own work between cycles;
            # it is scaled by the cycles' overall factor.
            self.wall_ns *= sum(self.cycle_ns) / sum(rep.cycle_ns)
            self.setup_s *= hostspeed.factor(rep.setup_probe_ns)
        self.events_per_s = rep.events / (self.wall_ns / 1e9)


class Runner:
    """Runs repetitions of one workload and derives its metrics."""

    def __init__(self, data: pipelines.Prepared) -> None:
        self.data = data
        self.build = pipelines.PIPELINES[data.spec.name]
        self.reps: List[Rep] = []
        self.failures: List[str] = []
        self.worker_rss_mib = 0.0
        self.peak_rss_mib = 0.0

    # -- one repetition ------------------------------------------------------

    def run_rep(self, traced: bool, last: Callable[[Rep], bool]) -> Rep:
        """Build, set up and time one repetition.

        ``last`` decides, after the timed phase and before the pipeline
        is closed, whether this was the final repetition; if so the
        peak memory is read and the output checks run on its state.
        """
        obs: Optional[Registry] = None
        tracer: Optional[Tracer] = None
        previous: Optional[Tracer] = None
        if traced:
            obs = Registry()
            tracer = Tracer(
                sample_every=1,
                capacity=SPANS_PER_CYCLE * len(self.data.batches) + 4096,
                obs=obs,
            )
            # Installed before the pipeline is built, so shard workers
            # trace too.
            previous = install_tracer(tracer)
        cpus = pipelines.probe_cpus(self.data.spec.name)
        rounds = 0 if traced else SETUP_PROBES
        try:
            probes = [_probe_round(cpus) for _ in range(rounds)]
            started = time.perf_counter()
            pipeline = self.build(self.data, obs)
            try:
                pipeline.setup()
                setup_s = time.perf_counter() - started
                probes += [_probe_round(cpus) for _ in range(rounds)]
                rep = self._timed(pipeline, traced, tracer, obs, setup_s)
                rep.setup_probe_ns = _series(probes)
                self.worker_rss_mib = max(
                    self.worker_rss_mib,
                    pipelines.peak_rss_mib(pipeline.worker_pids()),
                )
                rep.last = last(rep)
                if rep.last:
                    self.peak_rss_mib = max(
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0,
                        self.worker_rss_mib,
                    )
                    self.failures.extend(pipeline.output_failures())
            finally:
                pipeline.close()
        finally:
            if previous is not None:
                install_tracer(previous)
        return rep

    def _timed(
        self,
        pipeline: pipelines.Pipeline,
        traced: bool,
        tracer: Optional[Tracer],
        obs: Optional[Registry],
        setup_s: float,
    ) -> Rep:
        fills: QuerySink = []
        cycle = pipeline.cycle
        progress = pipeline.progress()
        before: Dict[str, Any] = {}
        if traced:
            assert obs is not None and tracer is not None
            instrument(pipeline, tracer, fills)
            pipeline.drain_worker_spans()
            tracer.clear()
            pipeline.absorb_worker_counts()
            before = layers.instrument_totals(obs.snapshot())
            cycle = _spanned(tracer, layers.CYCLE, cycle, None)
        batches = self.data.batches
        counts = self.data.batch_events
        cycle_ns = [0] * len(batches)
        # A probe round after each untraced cycle, off the clock.
        cpus = pipelines.probe_cpus(self.data.spec.name)
        rounds: List[List[int]] = []
        probing_ns = 0
        failed = 0
        clock = time.perf_counter_ns
        started = clock()
        for index, batch in enumerate(batches):
            tick = clock()
            try:
                cycle(batch)
            except (ReproError, WorkerDied, PoolUnavailable):
                # A failed cycle is counted against the events attempted.
                failed += counts[index]
                if len(self.failures) < 5:
                    self.failures.append(
                        f"cycle {index} raised: {traceback.format_exc()}"
                    )
            cycle_ns[index] = clock() - tick
            if not traced:
                rounds.append(_probe_round(cpus))
                probing_ns += clock() - tick - cycle_ns[index]
            elif index % WORKER_DRAIN_EVERY == 0:
                self._drain_workers(pipeline)
        wall_ns = clock() - started - probing_ns
        rep = Rep(
            traced=traced,
            setup_s=setup_s,
            wall_ns=wall_ns,
            cycle_ns=cycle_ns,
            events=sum(counts),
            failed=failed,
            alarms=[_alarm_key(alarm) for alarm in pipeline.alarms()],
            probe_ns=_series(rounds),
        )
        if traced:
            assert obs is not None and tracer is not None
            self._drain_workers(pipeline)
            spans = tracer.drain()
            if len(spans) >= tracer.capacity:
                # The ring dropped its oldest spans, and their time
                # would pass for bench.other_s.
                self.failures.append(
                    f"the tracer ring filled ({len(spans)} spans): the "
                    "per-layer breakdown lost spans"
                )
            pipeline.absorb_worker_counts()
            after = layers.instrument_totals(obs.snapshot())
            done = {
                name: count - progress[name]
                for name, count in pipeline.progress().items()
            }
            self._layer_metrics(rep, spans, before, after, fills, done)
        return rep

    def _drain_workers(self, pipeline: pipelines.Pipeline) -> None:
        """Pull the shard workers' spans; a worker ring that may have
        filled since the last drain fails the output checks."""
        arrived = pipeline.drain_worker_spans()
        if arrived >= WORKER_RING:
            self.failures.append(
                f"{arrived} worker spans arrived in one drain: a shard "
                "worker's span ring may have dropped spans"
            )

    # -- per-layer metrics ----------------------------------------------------

    def _layer_metrics(
        self,
        rep: Rep,
        spans: List[Dict[str, Any]],
        before: Dict[str, Any],
        after: Dict[str, Any],
        fills: QuerySink,
        done: Dict[str, int],
    ) -> None:
        parent = os.getpid()
        local = layers.in_cycles(
            [span for span in spans if span["pid"] == parent]
        )
        workers = [span for span in spans if span["pid"] != parent]
        wall_s = rep.wall_ns / 1e9
        m = layers.attribute(local, rep.wall_ns)
        m["bench.traced_wall_s"] = wall_s

        def delta(name: str) -> Any:
            return layers.delta(after, before, name)

        ratio = layers.ratio
        records = done["records"]
        m["netsim.records"] = records
        m["netsim.updates"] = done["updates"] if records else 0
        m["netsim.yield"] = ratio(m["netsim.updates"], records)
        m["netsim.us_per_record"] = ratio(m["netsim.busy_s"] * 1e6, records)

        tracking = layers.durations(local, ("bench.sketch.update_batch",))
        m["sketch.batches"] = len(tracking)
        m["sketch.updates"] = delta("repro_sketch_updates_total")
        m["sketch.batch_size_mean"] = ratio(
            m["sketch.updates"], m["sketch.batches"]
        )
        m["sketch.us_per_update"] = ratio(
            sum(tracking) / 1e3, m["sketch.updates"]
        )
        m["sketch.singleton_events"] = delta(
            "repro_tracking_singleton_events_total"
        )
        m["sketch.heap_ops"] = delta("repro_tracking_heap_ops_total")
        m["sketch.occupied_buckets"] = after.get(
            "repro_sketch_occupied_buckets", 0
        )

        checks = layers.durations(local, ("bench.monitor.check_now",))
        m["monitor.checks"] = len(checks)
        m["monitor.alarms"] = len(rep.alarms)
        victims = set(self.data.inputs.victims)
        m["monitor.false_alarms"] = len(
            {dest for dest, _, _ in rep.alarms} - victims
        )

        queries = layers.durations(local, layers.QUERY_SPANS)
        m["sketch.topk_calls"] = len(queries)
        m["sketch.topk_us_per_call"] = ratio(sum(queries) / 1e3, len(queries))
        m["sketch.sample_fill"] = ratio(sum(fills), len(fills))
        recovered = delta("repro_sketch_singletons_recovered_total")
        collisions = delta("repro_sketch_signature_collisions_total")
        m["sketch.collision_rate"] = ratio(collisions, recovered + collisions)
        m["sketch.scalar_fallbacks"] = delta(
            "repro_sketch_scalar_fallbacks_total"
        )

        plain = layers.child_durations(
            local, "bench.window.observe_batch", "sketch.update_batch"
        )
        m["window.plain_us_per_update"] = ratio(
            sum(plain) / 1e3, 2 * done["window"]
        )
        m["window.advances"] = delta("repro_monitor_window_advances_total")
        m["window.expirations"] = delta(
            "repro_monitor_window_expirations_total"
        )
        advances = layers.durations(local, ("monitor.window_advance",))

        syncs = layers.durations(local, ("sharded.delta_sync",))
        m["sharded.syncs"] = len(syncs)
        synced = layers.histogram_delta(
            after, before, "repro_sharded_delta_bytes"
        )
        m["sharded.delta_bytes_per_sync"] = ratio(synced[1], synced[0])
        m["sharded.full_resyncs"] = delta("repro_sharded_full_resyncs_total")
        worker_ingest = layers.durations(workers, ("worker.ingest",))
        m["sharded.worker_ingest_s"] = sum(worker_ingest) / 1e9
        shards = pipelines.ShardedPipeline.SHARDS
        m["sharded.worker_busy_frac"] = ratio(
            m["sharded.worker_ingest_s"], shards * wall_s
        )
        # Counted where the work happens: the updates each worker applied.
        applied = [
            delta(f"repro_worker_updates_total{{shard={index}}}")
            for index in range(shards)
        ]
        m["sharded.skew"] = ratio(max(applied), sum(applied) / shards)
        routed = delta("repro_sharded_updates_total")
        if sum(applied) != routed:
            self.failures.append(
                f"shard workers applied {sum(applied)} updates, "
                f"{routed} were routed"
            )
        rep.layer = m
        rep.spans = spans
        rep.samples = {
            "check": [ns // 1000 for ns in checks],
            "topk": [ns // 1000 for ns in queries],
            "advance": [ns // 1000 for ns in advances],
        }

    # -- the measuring loop ---------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> None:
        """Repeat the workload until ``seconds`` of measuring are spent."""
        if trace:
            min_untraced, min_traced = 1, 1
        else:
            cycles = len(self.data.batches)
            min_untraced = max(MIN_SETUPS, -(-MIN_CYCLES // cycles))
            min_traced = 0
        started = time.perf_counter()

        def last(rep: Rep) -> bool:
            untraced = sum(1 for r in self.reps if not r.traced)
            traced = len(self.reps) - untraced
            untraced += 0 if rep.traced else 1
            traced += 1 if rep.traced else 0
            if untraced < min_untraced or traced < min_traced:
                return False
            elapsed = time.perf_counter() - started
            per_rep = elapsed / (len(self.reps) + 1)
            return elapsed + per_rep > seconds

        while True:
            traced = trace and len(self.reps) % 2 == 1
            rep = self.run_rep(traced, last)
            self.reps.append(rep)
            if rep.last:
                break
        self._check_alarms()

    def _check_alarms(self) -> None:
        first = self.reps[0].alarms
        for index, rep in enumerate(self.reps[1:], start=1):
            if rep.alarms != first:
                kind = "traced" if rep.traced else "untraced"
                self.failures.append(
                    f"repetition {index} ({kind}) raised different alarms "
                    "than repetition 0"
                )

    # -- metrics --------------------------------------------------------------

    def detection(self) -> Dict[str, float]:
        """recall, alarm_precision and detect_lag_updates (+ counts)."""
        inputs = self.data.inputs
        first_alarm: Dict[int, int] = {}
        for dest, _, seen in self.reps[0].alarms:
            first_alarm.setdefault(dest, seen)
        victims = inputs.victims
        caught = [victim for victim in victims if victim in first_alarm]
        # A victim never alarmed counts as detected at the stream's end.
        lags = [
            first_alarm.get(victim, inputs.updates)
            - inputs.first_attack[victim]
            for victim in victims
        ]
        false = [dest for dest in first_alarm if dest not in victims]
        if inputs.flash in first_alarm:
            self.failures.append("the flash-crowd destination alarmed")
        return {
            "recall": len(caught) / len(victims),
            "alarm_precision": layers.ratio(len(caught), len(first_alarm)),
            "detect_lag_updates": layers.interquartile_mean(lags),
            "false_alarms": float(len(false)),
        }

    def timings(self, scaled: bool) -> Dict[str, float]:
        """``events_per_s``, ``setup_s`` (medians over the untraced
        repetitions) and the cycle percentiles (pooling every untraced
        cycle), at the reference host speed or raw.  The p99 is printed,
        not reported."""
        untraced = [Timing(rep, scaled) for rep in self.reps if not rep.traced]
        cycle_ms = [ns / 1e6 for rep in untraced for ns in rep.cycle_ns]
        # An untraced run times MIN_CYCLES cycles; the few untraced
        # repetitions of a traced run may not support a percentile.
        return {
            "events_per_s": statistics.median(
                rep.events_per_s for rep in untraced
            ),
            "cycle_p50_ms": layers.percentile_or_zero(cycle_ms, 50.0),
            "cycle_p90_ms": layers.percentile_or_zero(cycle_ms, 90.0),
            "cycle_p99_ms": layers.percentile_or_zero(cycle_ms, 99.0),
            "setup_s": statistics.median(rep.setup_s for rep in untraced),
            "cycles": float(len(cycle_ms)),
        }

    def end_to_end(self, detection: Dict[str, float]) -> Dict[str, float]:
        """End-to-end metrics: timings at the reference host speed from
        the untraced repetitions, peak memory and detection quality."""
        timings = self.timings(scaled=True)
        out = {name: timings[name] for name in END_TO_END if name in timings}
        out["peak_rss_mb"] = self.peak_rss_mib
        for name in ("recall", "alarm_precision", "detect_lag_updates"):
            out[name] = detection[name]
        return out

    def pace_us(self) -> List[float]:
        """Every untraced cycle's host-speed pace (see
        :func:`hostspeed.pace`), in microseconds."""
        return [
            ns / 1e3 for rep in self.reps if not rep.traced
            for ns in hostspeed.pace(rep.probe_ns)
        ]

    def median_traced(self) -> Rep:
        """The traced repetition with the median wall time."""
        traced = sorted(
            (rep for rep in self.reps if rep.traced),
            key=lambda rep: rep.wall_ns,
        )
        return traced[(len(traced) - 1) // 2]

    def per_layer(self) -> Dict[str, float]:
        """Per-layer metrics of the traced repetition with the median
        wall time (so its layer times still sum to its wall), with
        percentiles pooled over every traced repetition."""
        traced = [rep for rep in self.reps if rep.traced]
        untraced = [rep for rep in self.reps if not rep.traced]
        middle = self.median_traced()
        out = {name: float(middle.layer.get(name, 0.0)) for name in PER_LAYER}
        for name, (key, q) in POOLED_PERCENTILES.items():
            pooled = [value for rep in traced for value in rep.samples[key]]
            out[name] = layers.percentile_or_zero(pooled, q)
        out["obs.trace_overhead"] = (
            statistics.median(rep.wall_ns for rep in traced)
            / statistics.median(rep.wall_ns for rep in untraced)
            - 1.0
        )
        return out


# -- command line -------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    spec = pipelines.SPECS[args.workload]
    inputs = workloads.load_or_generate(
        spec.family, args.seed, args.size, WORK / "inputs"
    )
    digest = inputs.digest()
    print(
        f"pipebench {spec.name} seed={args.seed} size={args.size} "
        f"trace={args.trace} input sha256={digest}"
    )
    converted = (
        f" ({inputs.updates} updates)" if spec.unit == "records" else ""
    )
    print(
        f"  input: {inputs.events} {spec.unit}{converted}, clean prefix "
        f"{inputs.prefix} {spec.unit}, {len(inputs.victims)} victims"
    )
    print(f"  params: {json.dumps(inputs.params, sort_keys=True)}")
    print(
        f"  cycle: {spec.cycle} {spec.unit}, "
        f"check interval {spec.check_interval} updates"
    )
    data = pipelines.Prepared(spec, inputs)
    # The input objects live for the whole run; keep the collector from
    # rescanning them, a cost no deployed monitor pays.
    gc.collect()
    gc.freeze()
    runner = Runner(data)
    runner.measure(args.seconds, bool(args.trace))
    detection = runner.detection()
    e2e = runner.end_to_end(detection)
    scaled = runner.timings(scaled=True)
    raw = runner.timings(scaled=False)
    cycles = int(raw["cycles"])
    reps = runner.reps
    print(
        f"  repetitions: {sum(not r.traced for r in reps)} untraced, "
        f"{sum(r.traced for r in reps)} traced; {cycles} untraced cycles"
    )
    pace_us = runner.pace_us()
    probed = pipelines.probe_cpus(spec.name)
    where = f"on vCPUs {probed}" if probed else "in place"
    print(
        f"  host speed: probe {where}, pace median "
        f"{statistics.median(pace_us):.1f} us, range {min(pace_us):.1f}-"
        f"{max(pace_us):.1f} us (reference "
        f"{hostspeed.REFERENCE_PROBE_NS / 1e3:.1f} us); timings are at the "
        "reference speed, raw in brackets"
    )
    for name, unit in END_TO_END.items():
        note = f"   ({cycles} cycles)" if name == "cycle_p90_ms" else ""
        if name in raw:
            note = f"   [raw {raw[name]:.6g}]" + note
        print(f"  {name:<20} {e2e[name]:>14.6g} {unit}{note}")
    # The p99 is printed, not reported: on a shared 2-vCPU VM it mostly
    # measures scheduling stalls, and its spread across seeds (0.2-0.6)
    # is wider than any regression bound BENCHMARK.json may set.
    print(
        f"  {'(cycle_p99_ms)':<20} {scaled['cycle_p99_ms']:>14.6g} ms   "
        f"[raw {raw['cycle_p99_ms']:.6g}]   ({cycles} cycles)"
    )
    print(f"  false alarms: {int(detection['false_alarms'])}")
    layer: Dict[str, float] = {}
    stem = f"{spec.name}-{args.size}-{args.seed}"
    if args.trace:
        layer = runner.per_layer()
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{stem}.json").write_text(
            json.dumps(runner.median_traced().spans)
        )
        for name, unit in PER_LAYER.items():
            print(f"  {name:<28} {layer[name]:>14.6g} {unit}")
    for failure in runner.failures:
        print(f"  CHECK FAILED: {failure}")
    if not runner.failures:
        print("  output checks: ok")
    attempted = sum(rep.events for rep in reps)
    failed = sum(rep.failed for rep in reps)
    correct = not runner.failures
    table = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    summary = {
        "workload": spec.name,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "input_sha256": digest,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "cycles": cycles,
        "cycle_p99_ms": scaled["cycle_p99_ms"],
        "raw_timings": raw,
        "pace_median_us": statistics.median(pace_us),
        "rates": [
            Timing(rep, scaled=True).events_per_s
            for rep in reps if not rep.traced
        ],
        "raw_rates": [
            rep.events / (rep.wall_ns / 1e9) for rep in reps if not rep.traced
        ],
        "setups": [
            Timing(rep, scaled=True).setup_s for rep in reps if not rep.traced
        ],
        "false_alarms": detection["false_alarms"],
        "failures": runner.failures,
        "end_to_end": e2e,
        "per_layer": layer,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{stem}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in table.items()
        },
    }))
    return 0 if correct else 1


def report(seed: int, size: str) -> List[str]:
    """The cross-workload table and the ROADMAP's two answers, from the
    result files of ``seed``."""
    results = WORK / "results"

    def load(name: str, trace: int) -> Dict[str, Any]:
        path = results / f"{name}-{size}-{seed}-trace{trace}.json"
        return json.loads(path.read_text())

    lines = [f"pipebench report, seed {seed}, size {size}"]
    header = "  workload          " + "".join(
        f"{name:>20}" for name in END_TO_END
    )
    lines.append(header)
    for name in pipelines.SPECS:
        summary = load(name, 0)
        cells = []
        for metric, unit in END_TO_END.items():
            value = summary["end_to_end"][metric]
            cells.append(f"{value:>11.4g} {unit:<8}")
        lines.append(f"  {name:<18}" + "".join(cells)
                     + f"  [{summary['cycles']} cycles]")
    flows = load("flows_churn", 0)["end_to_end"]
    sharded = load("sharded_churn", 0)["end_to_end"]
    share = sharded["events_per_s"] / flows["events_per_s"]
    lines.append(
        "  Q1 does process sharding beat one packed sketch? "
        f"sharded_churn/flows_churn events_per_s = "
        f"{sharded['events_per_s']:.0f}/{flows['events_per_s']:.0f} = "
        f"{share:.3f} ({'yes' if share > 1 else 'no'})"
    )
    carpet = load("carpet_window", 1)["per_layer"]
    churn = load("flows_churn", 1)["per_layer"]
    extra_ingest = (
        carpet["sketch.us_per_update"] - carpet["window.plain_us_per_update"]
    )
    saved_query = (
        carpet["sketch.topk_us_per_call"] - churn["sketch.topk_us_per_call"]
    )
    lines.append(
        "  Q2 at what query rate does tracking pay off? "
        f"(tracking {carpet['sketch.us_per_update']:.2f} - plain "
        f"{carpet['window.plain_us_per_update']:.2f} us/update) / "
        f"(base_topk {carpet['sketch.topk_us_per_call']:.1f} - track_topk "
        f"{churn['sketch.topk_us_per_call']:.1f} us/call)"
    )
    if saved_query > 0 and extra_ingest > 0:
        rate = extra_ingest / saved_query
        lines.append(
            f"     = {rate:.4g} queries/update: tracking pays off when "
            f"queries come more often than every {1 / rate:.0f} updates"
        )
    else:
        lines.append(
            "     = no break-even: tracking is not dearer to maintain "
            "or not cheaper to query on this machine"
        )
    return lines


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in pipelines.SPECS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--size", args.size,
            ]
            completed = subprocess.run(command, check=False, timeout=600)
            status = status or completed.returncode
    for line in report(args.seed, args.size):
        print(line)
    return status


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=sorted(pipelines.SPECS) + ["all"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=workloads.SIZES, default="full",
        help="input size; 'tiny' is for the harness self-tests",
    )
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
