"""Tracing overhead gate: 1% head sampling must stay within 5%.

The span tracer (:mod:`repro.obs.trace`) instruments the fig9 ingest
path — ``update_batch`` roots with ``hash_bulk``/``scatter`` children.
The design promise is that tracing at the default 1% head sampling
(``sample_every=100``) is invisible at the ingest throughput level: an
unsampled root costs one modulo and a suppressed context manager, and
99% of batches take exactly that path.

This bench runs the fig9-style Zipf ingest three ways — tracer off
(the ``NULL_TRACER`` default), 1% sampling, and 100% sampling for
context — interleaved best-of-N to damp scheduler drift, asserts the
1% run stays within ``REPRO_BENCH_TRACE_MAX_OVERHEAD`` (default 5%) of
off, and writes ``BENCH_trace.json`` (path override:
``REPRO_BENCH_TRACE_OUT``).
"""

from __future__ import annotations

import os
import time

from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.sketch import TrackingDistinctCountSketch

from conftest import (
    env_float,
    make_workload,
    print_table,
    scaled_pairs,
    write_result,
)

#: Batch size matching the fig9 ingestion variants.
BATCH = 1024

#: Interleaved repetitions per variant; best-of damps scheduler noise.
REPEATS = 5


def _ingest_seconds(ipv4_domain, updates, sample_every) -> float:
    """One timed ingest run under the given tracer configuration."""
    if sample_every:
        install_tracer(Tracer(sample_every=sample_every))
    try:
        sketch = TrackingDistinctCountSketch(
            ipv4_domain, seed=5, backend="packed"
        )
        start = time.perf_counter()
        sketch.process_stream(updates, batch_size=BATCH)
        return time.perf_counter() - start
    finally:
        if sample_every:
            uninstall_tracer()


def test_trace_overhead_gate(benchmark, ipv4_domain):
    """1%-sampled tracing stays within the configured ingest overhead."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    updates, _ = make_workload(
        ipv4_domain, skew=1.5, seed=99,
        pairs=max(20_000, scaled_pairs() // 3),
    )
    variants = {"off": 0, "sampled-1pct": 100, "sampled-all": 1}
    timings = {name: [] for name in variants}
    for _ in range(REPEATS):
        for name, sample_every in variants.items():
            timings[name].append(
                _ingest_seconds(ipv4_domain, updates, sample_every)
            )
    best = {name: min(runs) for name, runs in timings.items()}
    count = len(updates)
    results = {
        name: {
            "seconds": elapsed,
            "us_per_update": 1e6 * elapsed / count,
            "updates_per_sec": count / elapsed,
            "overhead_vs_off": elapsed / best["off"] - 1.0,
        }
        for name, elapsed in best.items()
    }
    print_table(
        "Tracing overhead (fig9 Zipf ingest, best of "
        f"{REPEATS})",
        ["tracer", "us/update", "updates/sec", "overhead"],
        [
            [name,
             f"{data['us_per_update']:.2f}",
             f"{data['updates_per_sec']:.0f}",
             f"{100 * data['overhead_vs_off']:+.1f}%"]
            for name, data in results.items()
        ],
    )

    out_path = write_result("REPRO_BENCH_TRACE_OUT", "BENCH_trace.json", {
        "benchmark": "trace_overhead",
        "updates": count,
        "batch_size": BATCH,
        "repeats": REPEATS,
        "scale": os.environ.get("REPRO_SCALE", "1.0"),
        "variants": results,
    })

    max_overhead = env_float("REPRO_BENCH_TRACE_MAX_OVERHEAD", 0.05)
    overhead = results["sampled-1pct"]["overhead_vs_off"]
    assert overhead <= max_overhead, (
        f"1%-sampled tracing costs {100 * overhead:.1f}% on the fig9 "
        f"ingest path, over the {100 * max_overhead:.0f}% bar "
        f"(see {out_path})"
    )


def test_trace_off_is_effectively_free(benchmark, ipv4_domain):
    """The NULL_TRACER call sites cost one method call per batch site.

    A direct microbenchmark of the uninstrumented path: the per-batch
    overhead of the span plumbing with no tracer installed must be
    far below one microsecond per update.
    """
    updates, _ = make_workload(ipv4_domain, skew=1.5, seed=42,
                               pairs=10_000)
    chunk = updates[:5000]

    def run():
        sketch = TrackingDistinctCountSketch(
            ipv4_domain, seed=6, backend="packed"
        )
        sketch.process_stream(chunk, batch_size=BATCH)
        return sketch

    benchmark.pedantic(run, rounds=3, iterations=1)
