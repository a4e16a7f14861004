"""Experiment E3 — Figure 9: per-update processing time vs query rate.

Paper setup (Section 6.2): a stream of 4e6 flow updates with a parallel
stream of max (top-1) queries whose frequency varies from 0 to 0.0025
(one query per 400 updates).  Reported metric: average processing time
per update, for the Basic and the Tracking distinct-count sketch.

Expected shape, per the paper: with no queries both synopses cost the
same per update; as query frequency grows, Tracking stays ~flat (its
TrackTopk is O(k log m)) while Basic climbs steeply (BaseTopk rebuilds
the distinct sample, O(r s log^2 m) per query).

Our pure-Python absolute numbers differ from the paper's 2007 C
implementation, but land in the same few-tens-of-microseconds band;
the Basic-vs-Tracking divergence is the reproduced result.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import run_timing_sweep
from repro.metrics import UpdateTimer
from repro.sketch import (
    DistinctCountSketch,
    ShardedSketch,
    TrackingDistinctCountSketch,
)

from conftest import (
    best_seconds,
    env_float,
    make_workload,
    print_table,
    scaled_pairs,
    write_result,
)

#: Queries per update.  The paper sweeps 0 .. 1/400 at U = 8e6, where a
#: single BaseTopk scan is very expensive; at REPRO_SCALE-reduced U the
#: scan is proportionally cheaper (it touches fewer occupied levels), so
#: we extend the sweep to higher rates to expose the same divergence.
QUERY_FREQUENCIES = [0.0, 1 / 1600, 1 / 400, 1 / 200, 1 / 100, 1 / 50]


@pytest.fixture(scope="module")
def update_stream(ipv4_domain):
    updates, _ = make_workload(ipv4_domain, skew=1.5, seed=99,
                               pairs=max(20_000, scaled_pairs() // 3))
    return updates


@pytest.fixture(scope="module")
def fig9_results(ipv4_domain, update_stream):
    """Best-of-2 us/update per (variant, query rate): the reference
    store, sketch seed 5, r = 3, s = 128."""
    points = run_timing_sweep(
        ipv4_domain,
        updates=update_stream,
        query_frequencies=QUERY_FREQUENCIES,
        repeats=2,
    )
    return {
        (point.variant.capitalize(), point.query_frequency):
            point.microseconds_per_update
        for point in points
    }


def test_fig9_per_update_time(benchmark, ipv4_domain, fig9_results):
    """Figure 9: us/update as the max-query frequency grows."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [
        [f"{frequency:.5f}",
         f"{fig9_results[('Basic', frequency)]:.1f}",
         f"{fig9_results[('Tracking', frequency)]:.1f}"]
        for frequency in QUERY_FREQUENCIES
    ]
    print_table(
        "Figure 9: per-update processing time (microseconds)",
        ["query_freq", "Basic DCS", "Tracking DCS"],
        rows,
    )
    basic_flat = fig9_results[("Basic", 0.0)]
    basic_busy = fig9_results[("Basic", QUERY_FREQUENCIES[-1])]
    tracking_flat = fig9_results[("Tracking", 0.0)]
    tracking_busy = fig9_results[("Tracking", QUERY_FREQUENCIES[-1])]
    # Paper shape 1: with no queries, the two synopses cost about the
    # same per update (within 2x).
    assert basic_flat < 2 * tracking_flat
    assert tracking_flat < 2 * basic_flat
    # Paper shape 2: Tracking stays approximately constant.  The
    # tolerance absorbs scheduler noise: 200 TrackTopk queries cost
    # ~10 ms over the whole stream, i.e. well under 1 us/update.
    assert tracking_busy < 1.6 * tracking_flat
    # Paper shape 3: Basic grows substantially with query frequency.
    assert basic_busy > 1.8 * basic_flat
    # Paper shape 4: at the highest query rate, Basic is clearly more
    # expensive than Tracking.
    assert basic_busy > 1.8 * tracking_busy
    # Paper shape 5: Basic's cost is monotone in the query rate (allow
    # small timing jitter between adjacent points).
    basic_curve = [fig9_results[("Basic", f)] for f in QUERY_FREQUENCIES]
    for earlier, later in zip(basic_curve, basic_curve[2:]):
        assert later > 0.95 * earlier


#: Batch size used by the batched ingestion variants.
VARIANT_BATCH = 1024


def test_fig9_update_variants(ipv4_domain, update_stream):
    """Packed arenas + batched engine vs the seed per-update path.

    Measures updates/sec for every ingestion variant on the same Zipf
    workload, checks the packed+batched engine clears the
    ``REPRO_BENCH_MIN_SPEEDUP`` bar (default 3x; CI smoke runs with
    1.0, i.e. "batched must not be slower"), verifies the fast path is
    *bit-identical* to the reference, and writes the results to
    ``BENCH_fig9.json`` (path override: ``REPRO_BENCH_OUT``).
    """
    updates = update_stream
    count = len(updates)

    sketches = {}

    def reference_per_update():
        sketch = DistinctCountSketch(
            ipv4_domain, seed=5, backend="reference"
        )
        for update in updates:
            sketch.process(update)
        sketches["reference-per-update"] = sketch

    def reference_batched():
        sketch = DistinctCountSketch(
            ipv4_domain, seed=5, backend="reference"
        )
        sketch.process_stream(updates, batch_size=VARIANT_BATCH)
        sketches["reference-batched"] = sketch

    def packed_batched():
        sketch = DistinctCountSketch(ipv4_domain, seed=5, backend="packed")
        sketch.process_stream(updates, batch_size=VARIANT_BATCH)
        sketches["packed-batched"] = sketch

    def packed_tracking_batched():
        sketch = TrackingDistinctCountSketch(
            ipv4_domain, seed=5, backend="packed"
        )
        sketch.process_stream(updates, batch_size=VARIANT_BATCH)
        sketches["packed-tracking-batched"] = sketch

    def sharded_sync_packed():
        sharded = ShardedSketch(
            ipv4_domain, shards=4, policy="round-robin", seed=5,
            sketch_backend="packed",
        )
        sharded.process_stream(updates, batch_size=VARIANT_BATCH)

    variants = {
        "reference-per-update": reference_per_update,
        "reference-batched": reference_batched,
        "packed-batched": packed_batched,
        "packed-tracking-batched": packed_tracking_batched,
        "sharded-sync-packed": sharded_sync_packed,
    }
    seconds = best_seconds(variants, repeats=3)

    # Correctness gate: the fast paths must be bit-identical to the
    # seed per-update reference on the same stream and seed.
    baseline_sketch = sketches["reference-per-update"]
    for name in ("reference-batched", "packed-batched",
                 "packed-tracking-batched"):
        assert baseline_sketch.structurally_equal(sketches[name]), name

    baseline = seconds["reference-per-update"]
    results = {
        name: {
            "seconds": elapsed,
            "us_per_update": 1e6 * elapsed / count,
            "updates_per_sec": count / elapsed,
            "speedup_vs_reference": baseline / elapsed,
        }
        for name, elapsed in seconds.items()
    }
    print_table(
        "Figure 9 ingestion variants (same Zipf stream, seed 5)",
        ["variant", "us/update", "updates/sec", "speedup"],
        [
            [name,
             f"{data['us_per_update']:.2f}",
             f"{data['updates_per_sec']:.0f}",
             f"{data['speedup_vs_reference']:.2f}x"]
            for name, data in results.items()
        ],
    )

    out_path = write_result("REPRO_BENCH_OUT", "BENCH_fig9.json", {
        "benchmark": "fig9_update_variants",
        "updates": count,
        "batch_size": VARIANT_BATCH,
        "scale": os.environ.get("REPRO_SCALE", "1.0"),
        "variants": results,
    })

    min_speedup = env_float("REPRO_BENCH_MIN_SPEEDUP", 3.0)
    packed_speedup = results["packed-batched"]["speedup_vs_reference"]
    assert packed_speedup >= min_speedup, (
        f"packed+batched speedup {packed_speedup:.2f}x is below the "
        f"{min_speedup:.1f}x bar (see {out_path})"
    )
    # The batched path must never lose to per-update ingestion, on any
    # backend.
    assert results["reference-batched"]["speedup_vs_reference"] >= 1.0
    assert packed_speedup >= 1.0


def test_update_throughput_basic(benchmark, ipv4_domain, update_stream):
    """Raw maintenance cost of the Basic sketch (microbenchmark)."""
    chunk = update_stream[:2000]

    def run():
        sketch = DistinctCountSketch(
            ipv4_domain, seed=6, backend="reference"
        )
        sketch.process_stream(chunk)
        return sketch

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_update_throughput_tracking(benchmark, ipv4_domain, update_stream):
    """Raw maintenance cost of the Tracking sketch (microbenchmark)."""
    chunk = update_stream[:2000]

    def run():
        sketch = TrackingDistinctCountSketch(
            ipv4_domain, seed=6, backend="reference"
        )
        sketch.process_stream(chunk)
        return sketch

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_obs_instrumentation_overhead(benchmark, ipv4_domain,
                                      update_stream):
    """Instrumented update path stays within 5% of the no-op path.

    The hot path pays one pre-bound ``Counter.inc`` (an integer add)
    when a registry is attached, versus one empty ``NullCounter.inc``
    call when not.  Best-of-5, interleaved to damp scheduler drift.
    """
    from repro.obs import Registry

    chunk = update_stream[:4000]

    def time_once(obs):
        sketch = TrackingDistinctCountSketch(ipv4_domain, seed=11,
                                             obs=obs, backend="reference")
        timer = UpdateTimer(
            update=sketch.process,
            query=lambda: None,
            query_frequency=0.0,
        )
        return timer.run(chunk).microseconds_per_update

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    plain_runs = []
    instrumented_runs = []
    for _ in range(5):
        plain_runs.append(time_once(None))
        instrumented_runs.append(time_once(Registry()))
    plain = min(plain_runs)
    instrumented = min(instrumented_runs)
    print_table(
        "Observability overhead (us/update, best of 5)",
        ["variant", "us/update"],
        [["no-op (obs=None)", f"{plain:.2f}"],
         ["instrumented", f"{instrumented:.2f}"]],
    )
    assert instrumented < 1.05 * plain


def test_query_time_tracking(benchmark, ipv4_domain, update_stream):
    """TrackTopk query latency on a loaded sketch (O(k log m))."""
    sketch = TrackingDistinctCountSketch(
        ipv4_domain, seed=7, backend="reference"
    )
    sketch.process_stream(update_stream)
    benchmark(lambda: sketch.track_topk(10))


def test_query_time_basic(benchmark, ipv4_domain, update_stream):
    """BaseTopk query latency on a loaded sketch (O(r s log^2 m))."""
    sketch = DistinctCountSketch(ipv4_domain, seed=7, backend="reference")
    sketch.process_stream(update_stream)
    benchmark.pedantic(lambda: sketch.base_topk(10), rounds=5,
                       iterations=1)
