"""The instrument catalogue: every metric the library can emit.

One :class:`MetricSpec` per metric, each mapping back to the paper
quantity it observes (``paper_ref``).  Library code never registers
ad-hoc metric names — components create instruments via
``registry.counter_from(SPEC)`` etc., so this module is the single
source of truth that ``tools/check_obs_docs.py`` checks
``docs/observability.md`` against in CI.

Naming follows the Prometheus conventions: ``repro_`` namespace,
``_total`` suffix on counters, base units implied by the name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric.

    Attributes:
        name: exported metric name (``repro_*``).
        kind: ``counter``, ``gauge``, or ``histogram``.
        help: one-line description, exported verbatim.
        labels: label names, if the metric is a family.
        buckets: histogram bucket upper bounds (histograms only).
        paper_ref: the paper quantity/section this metric observes.
    """

    name: str
    kind: str
    help: str
    labels: Tuple[str, ...] = ()
    buckets: Optional[Tuple[int, ...]] = None
    paper_ref: str = ""


# -- sketch core (repro.sketch.dcs) -----------------------------------------

SKETCH_UPDATES = MetricSpec(
    name="repro_sketch_updates_total",
    kind="counter",
    help="Flow updates applied to the sketch, by operation.",
    labels=("op",),
    paper_ref="§3 maintenance; the stream length n",
)

SKETCH_QUERIES = MetricSpec(
    name="repro_sketch_queries_total",
    kind="counter",
    help="Estimation queries answered, by query kind.",
    labels=("kind",),
    paper_ref="§4 BaseTopk / §5 TrackTopk invocations",
)

SKETCH_SINGLETONS_RECOVERED = MetricSpec(
    name="repro_sketch_singletons_recovered_total",
    kind="counter",
    help="Singleton buckets decoded during distinct-sample scans, "
         "by first-level bucket.",
    labels=("level",),
    paper_ref="§4 Fig. 4 ReturnSingleton successes at level b",
)

SKETCH_SIGNATURE_COLLISIONS = MetricSpec(
    name="repro_sketch_signature_collisions_total",
    kind="counter",
    help="Occupied buckets that failed singleton decoding (>= 2 pairs "
         "hashed together), by first-level bucket.",
    labels=("level",),
    paper_ref="§4 Lemma 4.1: collision mass outside the u_b <= s/2 regime",
)

SKETCH_QUERY_SAMPLE_SIZE = MetricSpec(
    name="repro_sketch_query_sample_size",
    kind="histogram",
    help="Distinct-sample size |D| at each sample-building query.",
    buckets=(8, 16, 32, 64, 128, 256, 512, 1024, 2048),
    paper_ref="§4 Fig. 3 sample vs target (1+eps)*s*factor",
)

SKETCH_MERGES = MetricSpec(
    name="repro_sketch_merges_total",
    kind="counter",
    help="Sketch-merge operations (per-router synopsis folding).",
    paper_ref="§3 linearity; Fig. 1 multiple update streams",
)

SKETCH_OCCUPIED_BUCKETS = MetricSpec(
    name="repro_sketch_occupied_buckets",
    kind="gauge",
    help="Second-level buckets currently holding state (pull gauge; "
         "sums across sketches sharing the registry).",
    paper_ref="Fig. 2 structure occupancy; §6.1 space accounting",
)

SKETCH_ACTIVE_LEVELS = MetricSpec(
    name="repro_sketch_active_levels",
    kind="gauge",
    help="First-level buckets currently non-empty (pull gauge).",
    paper_ref="§6.1 'approximately 23 non-empty buckets' at U = 8e6",
)

SKETCH_SWEEP_DURATION = MetricSpec(
    name="repro_sketch_sweep_duration_us",
    kind="histogram",
    help="Wall time of one whole-sketch slab-decode sweep, in "
         "microseconds (observed via the span tracer: query modules "
         "stay clock-free).",
    buckets=(100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000),
    paper_ref="§4 BaseTopk scan cost: O(r·s) bucket decodes per query",
)

SKETCH_TOPK_CANDIDATES = MetricSpec(
    name="repro_sketch_topk_candidates",
    kind="histogram",
    help="Distinct candidate destinations in the recovered sample at "
         "each base_topk query (before truncating to k).",
    buckets=(8, 16, 32, 64, 128, 256, 512, 1024, 2048),
    paper_ref="§4 BaseTopk: |{v : f_v^s > 0}| in the distinct sample D",
)

SKETCH_SCALAR_FALLBACKS = MetricSpec(
    name="repro_sketch_scalar_fallbacks_total",
    kind="counter",
    help="Query-path decodes that took the scalar bucket walk because "
         "the vectorized slab path was unavailable (reference backend).",
    paper_ref="§4 Fig. 4 ReturnSingleton run per-bucket instead of "
              "per-slab (same answers, §6.2 speed notes)",
)

# -- tracking state (repro.sketch.tracking) ----------------------------------

TRACKING_SINGLETON_EVENTS = MetricSpec(
    name="repro_tracking_singleton_events_total",
    kind="counter",
    help="Distinct pairs entering/leaving a tracked level's sample, "
         "including when the tracked levels move.",
    labels=("event",),
    paper_ref="§5 Fig. 6 steps 8-12 (remove) and 18-22 (add)",
)

TRACKING_HEAP_OPS = MetricSpec(
    name="repro_tracking_heap_ops_total",
    kind="counter",
    help="topDestHeap adjustments folds make across the tracked "
         "levels b..floor (heap churn).",
    labels=("op",),
    paper_ref="§5 Fig. 6 heap adjustments; the O(r log^2 m) term",
)

TRACKING_SAMPLE_PAIRS = MetricSpec(
    name="repro_tracking_sample_pairs",
    kind="gauge",
    help="Total tracked distinct sample size, summed over the tracked "
         "levels (pull gauge).",
    paper_ref="§5 Fig. 5: sum_b numSingletons(b) over b >= floor",
)

# -- sharded ingestion (repro.sketch.sharded) --------------------------------

SHARDED_UPDATES = MetricSpec(
    name="repro_sharded_updates_total",
    kind="counter",
    help="Updates routed to each shard (load-balance view).",
    labels=("shard",),
    paper_ref="§2 backbone volumes; partition validity from §3 linearity",
)

SHARDED_MERGES = MetricSpec(
    name="repro_sharded_merges_total",
    kind="counter",
    help="Shard sketches folded into a combined global view.",
    paper_ref="§3 linearity: merged answer == single-sketch answer",
)

SHARDED_SHARDS = MetricSpec(
    name="repro_sharded_shards",
    kind="gauge",
    help="Configured number of shard partitions.",
    paper_ref="Fig. 1 deployment: per-router/worker synopses",
)

SHARDED_DELTA_BYTES = MetricSpec(
    name="repro_sharded_delta_bytes",
    kind="histogram",
    help="Raw bytes shipped per combined() delta sync (bucket "
         "indices + counter rows, all shards; a full resync counts "
         "its absolute rows here too).",
    buckets=(1_024, 16_384, 262_144, 4_194_304, 67_108_864),
    paper_ref="§3 linearity: only touched buckets need to travel",
)

SHARDED_SYNC_DURATION = MetricSpec(
    name="repro_sharded_sync_duration_us",
    kind="histogram",
    help="Wall time of one combined() shard sync (delta collect "
         "plus the fold), in microseconds (observed via the span "
         "tracer: the sync path stays clock-free).",
    buckets=(100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000),
    paper_ref="§6.2 query latency; merged answer == single sketch (§3)",
)

SHARDED_FULL_RESYNCS = MetricSpec(
    name="repro_sharded_full_resyncs_total",
    kind="counter",
    help="Delta syncs that had to re-read absolute shard "
         "state (first sync, epoch mismatch, or a worker death "
         "discarding the running sum).",
    paper_ref="§3 delete-resistance: absolute rows re-fold exactly",
)

# -- monitor (repro.monitor) --------------------------------------------------

MONITOR_UPDATES = MetricSpec(
    name="repro_monitor_updates_total",
    kind="counter",
    help="Flow updates observed by the monitor facade.",
    paper_ref="Fig. 1 MONITOR ingest",
)

MONITOR_CHECKS = MetricSpec(
    name="repro_monitor_checks_total",
    kind="counter",
    help="Detection passes (tracking query + baseline scoring).",
    paper_ref="§5 continuous queries every check_interval updates",
)

MONITOR_ALARMS = MetricSpec(
    name="repro_monitor_alarms_total",
    kind="counter",
    help="Accepted (de-duplicated) alarms, by severity.",
    labels=("severity",),
    paper_ref="§2 alarms against baseline profiles",
)

MONITOR_CHECK_ALARMS = MetricSpec(
    name="repro_monitor_check_alarms",
    kind="histogram",
    help="Alarms accepted per detection pass.",
    buckets=(1, 2, 4, 8, 16),
    paper_ref="§2: attack breadth per poll (0 in quiet periods)",
)

MONITOR_THRESHOLD_CROSSINGS = MetricSpec(
    name="repro_monitor_threshold_crossings_total",
    kind="counter",
    help="Destinations crossing tau, by direction.",
    labels=("direction",),
    paper_ref="§2 footnote 3: track all v with f_v >= tau",
)

MONITOR_SNAPSHOTS = MetricSpec(
    name="repro_monitor_snapshots_total",
    kind="counter",
    help="Top-k snapshots captured by the timeline recorder.",
    paper_ref="continuous tracking (§5) recorded for forensics",
)

MONITOR_WINDOW_ADVANCES = MetricSpec(
    name="repro_monitor_window_advances_total",
    kind="counter",
    help="Sub-epoch boundaries crossed by the sliding-window engine "
         "(each drains the running sum's deltas into the ring as one "
         "run).",
    paper_ref="§3 linearity: the window sum is a sum of sub-epoch "
              "delta runs",
)

MONITOR_WINDOW_ADVANCE_DURATION = MetricSpec(
    name="repro_monitor_window_advance_duration_us",
    kind="histogram",
    help="Wall time spent advancing the window one sub-epoch, in "
         "microseconds (delta drain + expiry fold + ring bookkeeping).",
    buckets=(100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000),
    paper_ref="§3 linearity: expiry is one O(run size) fold, "
              "not a rebuild",
)

MONITOR_WINDOW_EXPIRATIONS = MetricSpec(
    name="repro_monitor_window_expirations_total",
    kind="counter",
    help="Sub-epoch runs folded out of the running window sum "
         "(negated) after aging past the window horizon.",
    paper_ref="§3 linearity: subtracting a sub-stream's counters is "
              "exact",
)

MONITOR_WINDOW_LIVE_SUBEPOCHS = MetricSpec(
    name="repro_monitor_window_live_subepochs",
    kind="gauge",
    help="Sub-epochs currently in the window: the ring's runs plus "
         "the open one (pull gauge).",
    paper_ref="window of W updates at sub-epoch granularity g: one "
              "synopsis plus ceil(W/g) - 1 delta runs",
)

# -- crash safety (repro.resilience) ------------------------------------------

CHECKPOINT_DURATION = MetricSpec(
    name="repro_checkpoint_duration_us",
    kind="histogram",
    help="Wall time spent writing one checkpoint, in microseconds "
         "(serialize + temp-file write + fsync + rename).",
    buckets=(100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000),
    paper_ref="§5 continuously-running tracking: persisting the synopsis "
              "is O(sketch size), not O(stream length n)",
)

CHECKPOINT_BYTES = MetricSpec(
    name="repro_checkpoint_bytes",
    kind="histogram",
    help="Serialized payload size of each checkpoint written.",
    buckets=(1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26),
    paper_ref="§6.1 space accounting: the checkpoint is the synopsis, "
              "so its size tracks the 2.3-4.6 MB sketch footprint",
)

WAL_RECORDS = MetricSpec(
    name="repro_wal_records_total",
    kind="counter",
    help="Flow updates appended to the write-ahead log.",
    paper_ref="§2 stream model: the log is a durable suffix of the "
              "update stream (source, dest, ±1)",
)

WAL_RECORDS_REPLAYED = MetricSpec(
    name="repro_wal_records_replayed_total",
    kind="counter",
    help="Logged updates re-applied during recovery (checkpoint tail).",
    paper_ref="§3 delete-imperviousness: re-applying a logged suffix "
              "reconstructs the exact synopsis",
)

WORKER_RESTARTS = MetricSpec(
    name="repro_worker_restarts_total",
    kind="counter",
    help="Shard-worker respawn attempts by the supervisor, per shard.",
    labels=("shard",),
    paper_ref="Fig. 1 deployment: per-worker synopses must survive "
              "worker failure for the monitor to run continuously",
)

WORKER_UPDATES = MetricSpec(
    name="repro_worker_updates_total",
    kind="counter",
    help="Updates applied inside shard worker processes (worker-side "
         "view, merged into the parent registry over the shard pipe; "
         "rebuilt from restored sketch state on respawn, so the "
         "aggregate never double-counts).",
    labels=("shard",),
    paper_ref="Fig. 1 per-worker synopses; §3 linearity makes the "
              "per-shard counts additive",
)

# -- transport (repro.streams.transport) --------------------------------------

TRANSPORT_UPDATES = MetricSpec(
    name="repro_transport_updates_total",
    kind="counter",
    help="Updates leaving a transport channel, by outcome (delivered "
         "/ dropped / duplicated); the ingest-throughput counter.",
    labels=("outcome",),
    paper_ref="§2 NetFlow-over-UDP feed imperfections",
)

TRANSPORT_REORDERED = MetricSpec(
    name="repro_transport_reordered_total",
    kind="counter",
    help="Updates delivered out of their original stream position.",
    paper_ref="§3 order-invariance makes reordering harmless",
)

#: Every metric the library can emit, in export (name) order.
CATALOG: Tuple[MetricSpec, ...] = tuple(
    sorted(
        (
            SKETCH_UPDATES,
            SKETCH_QUERIES,
            SKETCH_SINGLETONS_RECOVERED,
            SKETCH_SIGNATURE_COLLISIONS,
            SKETCH_QUERY_SAMPLE_SIZE,
            SKETCH_MERGES,
            SKETCH_OCCUPIED_BUCKETS,
            SKETCH_ACTIVE_LEVELS,
            SKETCH_SWEEP_DURATION,
            SKETCH_TOPK_CANDIDATES,
            SKETCH_SCALAR_FALLBACKS,
            TRACKING_SINGLETON_EVENTS,
            TRACKING_HEAP_OPS,
            TRACKING_SAMPLE_PAIRS,
            SHARDED_UPDATES,
            SHARDED_MERGES,
            SHARDED_SHARDS,
            SHARDED_DELTA_BYTES,
            SHARDED_SYNC_DURATION,
            SHARDED_FULL_RESYNCS,
            MONITOR_UPDATES,
            MONITOR_CHECKS,
            MONITOR_ALARMS,
            MONITOR_CHECK_ALARMS,
            MONITOR_THRESHOLD_CROSSINGS,
            MONITOR_SNAPSHOTS,
            MONITOR_WINDOW_ADVANCES,
            MONITOR_WINDOW_ADVANCE_DURATION,
            MONITOR_WINDOW_EXPIRATIONS,
            MONITOR_WINDOW_LIVE_SUBEPOCHS,
            CHECKPOINT_DURATION,
            CHECKPOINT_BYTES,
            WAL_RECORDS,
            WAL_RECORDS_REPLAYED,
            WORKER_RESTARTS,
            WORKER_UPDATES,
            TRANSPORT_UPDATES,
            TRANSPORT_REORDERED,
        ),
        key=lambda spec: spec.name,
    )
)


def spec_for(name: str) -> MetricSpec:
    """Look up a catalogue entry by metric name."""
    for spec in CATALOG:
        if spec.name == name:
            return spec
    raise KeyError(name)
