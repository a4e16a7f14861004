"""Query-path decode microbenchmark: scalar vs whole-slab decode.

The update path was vectorized in PR 5 (``BENCH_fig9.json``); this
bench gates its query-side counterpart.  Three decode strategies
materialize the full ``GetdSample`` hierarchy (every level of a loaded
sketch) on the same Zipf stream and seed:

- ``reference-scalar``: the seed query path — per-signature
  ``recover_singleton`` over the reference dict store, one level at a
  time;
- ``packed-scalar``: the same scalar predicate evaluated in place over
  the packed slab (``singleton_at`` over ``occupied_keys()``),
  isolating what packed storage alone buys;
- ``packed-slab``: the vectorized engine —
  :meth:`~repro.sketch.dcs.DistinctCountSketch.dsample_sweep` decodes
  the sketch's whole slab with one application of the
  :func:`~repro.sketch.arena.singleton_mask` kernel.

All three must produce identical per-level samples (the bit-identity
contract), and ``packed-slab`` must clear the
``REPRO_BENCH_QUERY_MIN_SPEEDUP`` bar (default and CI floor: 5x) over
the seed scalar decode.  ``BaseTopk`` end-to-end latency rides along in
the table: its walk shares the slab decode but also pays ranking costs
on both sides, so it is asserted faster but not held to the decode
floor.  Results land in ``BENCH_query.json``
(override: ``REPRO_BENCH_QUERY_OUT``).
"""

from __future__ import annotations

import os
from typing import Dict, Set

import pytest

from repro.sketch import DistinctCountSketch

from conftest import (
    best_seconds,
    env_float,
    make_workload,
    print_table,
    scaled_pairs,
    write_result,
)

#: Distinct pairs in the bench workload.  Decode speedup is measured on
#: a loaded sketch, so the floor below keeps the workload large enough
#: for slab amortization even under CI's REPRO_SCALE=0.2 smoke runs.
MIN_DECODE_PAIRS = 40_000

#: Ingestion batch size (ingest cost is not what this bench measures).
INGEST_BATCH = 1024


def _scalar_arena_sweep(sketch: DistinctCountSketch) -> Dict[int, Set[int]]:
    """Scalar singleton decode over the packed slab, row by row."""
    slab = sketch._store
    per_level = sketch.params.r * sketch.params.s
    sweep: Dict[int, Set[int]] = {
        level: set() for level in range(sketch.params.num_levels)
    }
    for key in slab.occupied_keys().tolist():
        code = slab.singleton_at(key)
        if code is not None:
            sweep[key // per_level].add(code)
    return sweep


@pytest.fixture(scope="module")
def loaded_sketches(ipv4_domain):
    updates, _ = make_workload(
        ipv4_domain, skew=1.5, seed=99,
        pairs=max(MIN_DECODE_PAIRS, scaled_pairs() // 3),
    )
    reference = DistinctCountSketch(ipv4_domain, seed=5, backend="reference")
    packed = DistinctCountSketch(ipv4_domain, seed=5, backend="packed")
    reference.process_stream(updates, batch_size=INGEST_BATCH)
    packed.process_stream(updates, batch_size=INGEST_BATCH)
    return reference, packed, len(updates)


def test_query_decode_variants(ipv4_domain, loaded_sketches):
    """Slab decode clears the 5x floor and stays bit-identical."""
    reference, packed, update_count = loaded_sketches
    levels = range(reference.params.num_levels)

    def reference_scalar() -> Dict[int, Set[int]]:
        return {level: reference.get_dsample(level) for level in levels}

    def packed_scalar() -> Dict[int, Set[int]]:
        return _scalar_arena_sweep(packed)

    def packed_slab() -> Dict[int, Set[int]]:
        return packed.dsample_sweep()

    # Bit-identity first: every strategy recovers the same per-level
    # distinct samples, and the estimator built on top agrees exactly.
    baseline_sweep = reference_scalar()
    assert baseline_sweep == packed_scalar()
    assert baseline_sweep == packed_slab()
    reference_topk = reference.base_topk(10)
    packed_topk = packed.base_topk(10)
    assert reference_topk.as_dict() == packed_topk.as_dict()
    assert reference_topk.stop_level == packed_topk.stop_level

    seconds = best_seconds(
        {
            "reference-scalar": reference_scalar,
            "packed-scalar": packed_scalar,
            "packed-slab": packed_slab,
        },
        repeats=5,
        inner={"reference-scalar": 5, "packed-scalar": 5, "packed-slab": 20},
    )
    topk_seconds = best_seconds(
        {
            "reference": lambda: reference.base_topk(10),
            "packed-slab": lambda: packed.base_topk(10),
        },
        repeats=5,
        inner={"reference": 5, "packed-slab": 20},
    )

    baseline = seconds["reference-scalar"]
    results = {
        name: {
            "seconds_per_sweep": elapsed,
            "sweeps_per_sec": 1.0 / elapsed,
            "speedup_vs_reference": baseline / elapsed,
        }
        for name, elapsed in seconds.items()
    }
    topk_baseline = topk_seconds["reference"]
    topk_results = {
        name: {
            "seconds_per_query": elapsed,
            "speedup_vs_reference": topk_baseline / elapsed,
        }
        for name, elapsed in topk_seconds.items()
    }
    print_table(
        "Query decode: full GetdSample sweep (same Zipf stream, seed 5)",
        ["variant", "ms/sweep", "speedup"],
        [
            [name,
             f"{data['seconds_per_sweep'] * 1e3:.2f}",
             f"{data['speedup_vs_reference']:.2f}x"]
            for name, data in results.items()
        ],
    )
    print_table(
        "BaseTopk end to end (k=10)",
        ["variant", "ms/query", "speedup"],
        [
            [name,
             f"{data['seconds_per_query'] * 1e3:.2f}",
             f"{data['speedup_vs_reference']:.2f}x"]
            for name, data in topk_results.items()
        ],
    )

    min_speedup = env_float("REPRO_BENCH_QUERY_MIN_SPEEDUP", 5.0)
    out_path = write_result("REPRO_BENCH_QUERY_OUT", "BENCH_query.json", {
        "benchmark": "query_decode_variants",
        "updates": update_count,
        "occupied_buckets": packed.occupied_buckets(),
        "scale": os.environ.get("REPRO_SCALE", "1.0"),
        "min_speedup": min_speedup,
        "sweep_variants": results,
        "base_topk": topk_results,
    })

    slab_speedup = results["packed-slab"]["speedup_vs_reference"]
    assert slab_speedup >= min_speedup, (
        f"slab decode speedup {slab_speedup:.2f}x is below the "
        f"{min_speedup:.1f}x bar (see {out_path})"
    )
    # The slab walk must also win end to end, ranking included.
    assert topk_results["packed-slab"]["speedup_vs_reference"] >= 1.0
