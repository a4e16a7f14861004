"""Statistics and per-layer attribution for the pipeline benchmark.

Percentiles
    :func:`percentile` is nearest-rank and refuses to answer unless at
    least :data:`MIN_BEYOND` samples lie beyond the requested rank, so
    a p90 needs 100 samples and a p99 1000.

Self time
    A span's self time is its duration minus the part of its interval
    that its child spans cover (:func:`self_times`).  Spans of one
    process form a tree through their ``parent`` ids; spans of shard
    workers carry other pids and are kept out of the parent's tree.

Layers
    :data:`LAYER_SPANS` maps each layer's self-time metric to the span
    names whose self time it sums.  The benchmark opens the ``bench.*``
    spans around the public entry points of each layer; the other names
    are the library's own spans.  A span whose name is in no layer
    inherits the layer of its nearest named ancestor, and time under no
    named span at all (including the ``bench.cycle`` root's own time and
    the gaps between cycles) is ``bench.other_s``.  Only spans inside a
    ``bench.cycle`` tree are attributed (:func:`in_cycles`): the
    benchmark's own work between cycles, such as pulling the shard
    workers' spans over the pipes, is ``bench.other_s`` too.  The layer
    metrics plus ``bench.other_s`` therefore sum to the traced wall time.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

#: Samples that must lie beyond a percentile's rank before it is reported.
MIN_BEYOND = 10

#: Layer self-time metric -> the span names whose self time it sums.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "netsim.busy_s": ("bench.records_to_updates",),
    "monitor.ingest_busy_s": ("bench.monitor.observe_batch",),
    "monitor.check_busy_s": ("bench.monitor.check_now",),
    "sketch.ingest_busy_s": (
        "bench.sketch.update_batch",
        "sketch.update_batch",
        "sketch.hash_bulk",
        "sketch.scatter",
    ),
    "sketch.topk_busy_s": (
        "bench.sketch.track_topk",
        "bench.sketch.base_topk",
        "sketch.base_topk",
        "sketch.dsample_sweep",
        "arena.decode_slab",
    ),
    "window.ingest_busy_s": (
        "bench.window.observe_batch",
        "monitor.window_advance",
    ),
    "sharded.route_busy_s": ("bench.sharded.update_batch",),
    "sharded.pipe_send_s": ("sharded.pipe_send",),
    "sharded.sync_busy_s": ("bench.sharded.combined", "sharded.delta_sync"),
    "sharded.sync_wait_s": ("sharded.pipe_recv",),
}

#: Parts of a layer metric broken out on their own (self times too).
COMPONENT_SPANS: Dict[str, Tuple[str, ...]] = {
    "sketch.encode_s": ("bench.sketch.update_batch", "sketch.update_batch"),
    "sketch.hash_s": ("sketch.hash_bulk",),
    "sketch.scatter_s": ("sketch.scatter",),
    # base_topk's own span covers its slab decode; the sweep and the
    # arena decode open spans of their own on the other query paths.
    "sketch.decode_s": (
        "sketch.base_topk",
        "sketch.dsample_sweep",
        "arena.decode_slab",
    ),
    "window.advance_s": ("monitor.window_advance",),
}

#: Time under no named span.
OTHER = "bench.other_s"

#: Root span of one timed cycle.
CYCLE = "bench.cycle"

#: Entry-point spans of top-k queries (outermost query calls).
QUERY_SPANS = ("bench.sketch.track_topk", "bench.sketch.base_topk")

_NAMED = {name for names in LAYER_SPANS.values() for name in names}

Span = Mapping[str, Any]


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, ``0 < q < 100``.

    Raises:
        TooFewSamples: when fewer than :data:`MIN_BEYOND` samples lie
            beyond the percentile's rank.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    count = len(samples)
    rank = max(1, math.ceil(q / 100.0 * count))
    if count - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond rank {rank}, "
            f"got {count} samples"
        )
    return sorted(samples)[rank - 1]


def percentile_or_zero(samples: Sequence[float], q: float) -> float:
    """:func:`percentile`, or 0 when the sample cannot support it."""
    try:
        return float(percentile(samples, q))
    except TooFewSamples:
        return 0.0


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of ``values`` after dropping the lowest and the highest
    quarter (``len // 4`` values at each end).

    Over the 8 to 20 victims of a workload it moves smoothly from seed
    to seed, where the median jumps between neighbouring order
    statistics.
    """
    if not values:
        raise ValueError("interquartile_mean of no values")
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def self_times(spans: Iterable[Span]) -> Dict[Tuple[int, int], int]:
    """Self time (ns) of every span, keyed by ``(pid, id)``.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    by_key: Dict[Tuple[int, int], Span] = {}
    children: Dict[Tuple[int, int], List[Span]] = {}
    for span in spans:
        key = (span["pid"], span["id"])
        by_key[key] = span
        children.setdefault((span["pid"], span["parent"]), []).append(span)
    out: Dict[Tuple[int, int], int] = {}
    for key, span in by_key.items():
        start = span["start_ns"]
        end = start + span["dur_ns"]
        intervals = sorted(
            (max(child["start_ns"], start),
             min(child["start_ns"] + child["dur_ns"], end))
            for child in children.get(key, ())
        )
        covered = 0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[key] = span["dur_ns"] - covered
    return out


def in_cycles(spans: Sequence[Span]) -> List[Span]:
    """The spans that lie in the tree of a :data:`CYCLE` root."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    inside: Dict[Tuple[int, int], bool] = {}

    def under_cycle(key: Tuple[int, int]) -> bool:
        chain = []
        found = False
        while key in by_key:
            if key in inside:
                found = inside[key]
                break
            chain.append(key)
            span = by_key[key]
            if span["name"] == CYCLE:
                found = True
                break
            key = (span["pid"], span["parent"])
        for link in chain:
            inside[link] = found
        return found

    return [s for s in spans if under_cycle((s["pid"], s["id"]))]


def attribute(
    spans: Sequence[Span], wall_ns: int
) -> Dict[str, float]:
    """Layer and component self times (seconds) of one process's spans.

    ``wall_ns`` is the traced wall time the spans were recorded in; the
    returned layer metrics plus ``bench.other_s`` sum to it.
    """
    by_key = {(s["pid"], s["id"]): s for s in spans}
    own = self_times(spans)
    named_cache: Dict[Tuple[int, int], str] = {}

    def named(key: Tuple[int, int]) -> str:
        chain = []
        name = OTHER
        while key in by_key:
            if key in named_cache:
                name = named_cache[key]
                break
            chain.append(key)
            span = by_key[key]
            if span["name"] in _NAMED:
                name = span["name"]
                break
            key = (span["pid"], span["parent"])
        for link in chain:
            named_cache[link] = name
        return name

    per_name: Dict[str, int] = {}
    for key, ns in own.items():
        name = named(key)
        per_name[name] = per_name.get(name, 0) + ns
    out: Dict[str, float] = {}
    for table in (LAYER_SPANS, COMPONENT_SPANS):
        for metric, names in table.items():
            out[metric] = sum(per_name.get(name, 0) for name in names) / 1e9
    attributed = sum(out[metric] for metric in LAYER_SPANS)
    out[OTHER] = wall_ns / 1e9 - attributed
    return out


def durations(spans: Iterable[Span], names: Sequence[str]) -> List[int]:
    """Durations (ns) of the spans with one of ``names``."""
    return [span["dur_ns"] for span in spans if span["name"] in names]


def child_durations(
    spans: Sequence[Span], parent_name: str, child_name: str
) -> List[int]:
    """Durations (ns) of ``child_name`` spans directly under a
    ``parent_name`` span."""
    parents = {
        (span["pid"], span["id"])
        for span in spans
        if span["name"] == parent_name
    }
    return [
        span["dur_ns"]
        for span in spans
        if span["name"] == child_name
        and (span["pid"], span["parent"]) in parents
    ]


# -- registry snapshots -------------------------------------------------------


def instrument_totals(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """Flatten a :meth:`repro.obs.Registry.snapshot` document.

    Counters and gauges map to the sum of their samples, histograms to
    ``(count, sum)``, and each labelled sample also appears under
    ``name{label=value,...}``.
    """
    out: Dict[str, Any] = {}
    for instrument in snapshot.get("instruments", []):
        name = instrument["name"]
        histogram = instrument["kind"] == "histogram"
        total: Any = (0, 0) if histogram else 0
        for sample in instrument["samples"]:
            value: Any
            if histogram:
                value = (sample["count"], sample["sum"])
                total = (total[0] + value[0], total[1] + value[1])
            else:
                value = sample["value"]
                total += value
            labels = sample.get("labels") or {}
            if labels:
                inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
                out[f"{name}{{{inner}}}"] = value
        out[name] = total
    return out


def delta(
    after: Mapping[str, Any], before: Mapping[str, Any], name: str
) -> int:
    """Counter growth between two flattened snapshots (0 if absent)."""
    return int(after.get(name, 0) - before.get(name, 0))


def histogram_delta(
    after: Mapping[str, Any], before: Mapping[str, Any], name: str
) -> Tuple[int, int]:
    """Histogram ``(count, sum)`` growth between flattened snapshots."""
    late = after.get(name, (0, 0))
    early = before.get(name, (0, 0))
    return (late[0] - early[0], late[1] - early[1])


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0
