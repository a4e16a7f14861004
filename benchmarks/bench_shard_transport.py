"""Sharded sync-path benchmark: delta fold vs whole-snapshot merge.

The process-backed :class:`~repro.sketch.sharded.ShardedSketch` has to
reconcile worker state with the parent on every ``combined()`` call
(the §5 distributed-monitor merge).  It does so by delta: workers ship
only the buckets dirtied since the previous sync, and the parent folds
the signed counter deltas into a running combined sketch, so each sync
is O(changed) instead of O(state).

The baseline is the whole-snapshot merge that delta sync replaced:
every worker serializes its whole sketch over its pipe (request-all
then read-all), and the parent deserializes each snapshot onto packed
storage and merges them all into a fresh sketch — O(resident state)
per sync, however little changed.

The monitor's steady-state loop is *ingest a small batch, then query
top-k* — so that is what this bench times: each cycle routes one small
update chunk into the bank, then times both syncs plus
``track_topk(10)`` against the same worker state (alternating which
goes first).  Bit-identity is asserted first (the delta merge must
match a single-process sketch exactly, both after bulk load and after
the timed cycles), then delta must clear the
``REPRO_BENCH_SHARD_MIN_SPEEDUP`` bar (default and CI floor: 10x) over
the whole-snapshot baseline.  Results land in ``BENCH_shard.json``
(override: ``REPRO_BENCH_SHARD_OUT``).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List

import pytest

from repro.sketch import ShardedSketch, TrackingDistinctCountSketch
from repro.sketch.serialize import loads
from repro.types import FlowUpdate

from conftest import (
    env_float,
    make_workload,
    print_table,
    scaled_pairs,
    write_result,
)

#: Distinct pairs in the bulk-load workload.  The snapshot baseline's
#: cost is proportional to resident state, so the floor keeps the loaded
#: sketches at fig9 scale even under CI's REPRO_SCALE=0.2 smoke runs.
MIN_SHARD_PAIRS = 40_000

#: Worker processes per bank (matches the fig9 sharding experiments).
SHARDS = 3

#: Timed sync cycles and the ingest chunk size between them.  The
#: chunk is deliberately small relative to the bulk load: steady-state
#: syncs reconcile a trickle of fresh traffic against a large resident
#: sketch, which is exactly the regime delta sync targets.
SYNC_CYCLES = 6
CHUNK_UPDATES = 1_000

#: Ingestion batch size (ingest cost is not what this bench measures).
INGEST_BATCH = 1024


def _chunks(updates: List[FlowUpdate]) -> List[List[FlowUpdate]]:
    """The per-cycle ingest chunks."""
    return [
        updates[start:start + CHUNK_UPDATES]
        for start in range(0, SYNC_CYCLES * CHUNK_UPDATES, CHUNK_UPDATES)
    ]


def _snapshot_merge(bank: ShardedSketch) -> TrackingDistinctCountSketch:
    """Merge every worker's whole snapshot into a fresh sketch."""
    assert bank._pool is not None
    merged = TrackingDistinctCountSketch(
        bank.params, seed=bank.seed, backend="packed"
    )
    for payload in bank._pool.snapshots():
        merged.merge(loads(payload, backend="packed"))
    return merged


def _stats(seconds: List[float]) -> Dict[str, float]:
    return {
        "seconds_per_sync": sum(seconds) / len(seconds),
        "best_seconds_per_sync": min(seconds),
        "syncs_per_sec": len(seconds) / sum(seconds),
    }


def test_shard_transport_sync_latency(ipv4_domain):
    """Delta sync clears the 10x floor and stays bit-identical."""
    pairs = max(MIN_SHARD_PAIRS, scaled_pairs() // 4)
    updates, _ = make_workload(ipv4_domain, skew=1.5, seed=77, pairs=pairs)
    trickle, _ = make_workload(
        ipv4_domain, skew=1.5, seed=78,
        pairs=SYNC_CYCLES * CHUNK_UPDATES,
    )
    chunks = _chunks(trickle)

    bank = ShardedSketch(ipv4_domain, shards=SHARDS, seed=9, backend="process")
    try:
        if bank.backend != "process":
            pytest.skip("multiprocessing unavailable on this platform")
        single_after_bulk = TrackingDistinctCountSketch(
            bank.params, seed=9, backend="packed"
        )
        single_after_bulk.process_stream(updates, batch_size=INGEST_BATCH)
        single_after_chunks = single_after_bulk.copy()
        for chunk in chunks:
            single_after_chunks.process_stream(chunk)

        bank.process_stream(updates, batch_size=INGEST_BATCH)
        # Bit-identity first: delta sync must reproduce the
        # single-process sketch exactly before it is worth timing.
        combined = bank.combined()
        assert combined.structurally_equal(single_after_bulk)
        assert combined.track_topk(10).as_dict() == (
            single_after_bulk.track_topk(10).as_dict()
        )

        syncs: Dict[str, Callable[[], TrackingDistinctCountSketch]] = {
            "snapshot-merge": lambda: _snapshot_merge(bank),
            "delta": bank.combined,
        }
        seconds: Dict[str, List[float]] = {name: [] for name in syncs}
        for cycle, chunk in enumerate(chunks):
            bank.update_batch(chunk)
            # Ingest is queued on the workers' FIFO pipes; the obs
            # round trip drains those queues so the clock below sees
            # only the sync itself, not residual ingest.
            bank.absorb_worker_obs()
            names = list(syncs) if cycle % 2 == 0 else list(syncs)[::-1]
            for name in names:
                start = time.perf_counter()
                syncs[name]().track_topk(10)
                seconds[name].append(time.perf_counter() - start)

        # ... and exactly again after the timed trickle, so the timed
        # path itself is covered by the identity contract.
        final = bank.combined()
        assert final.structurally_equal(single_after_chunks)
        assert final.track_topk(10).as_dict() == (
            single_after_chunks.track_topk(10).as_dict()
        )
        assert _snapshot_merge(bank).structurally_equal(single_after_chunks)
    finally:
        bank.close()

    results = {name: _stats(values) for name, values in seconds.items()}
    baseline = results["snapshot-merge"]["seconds_per_sync"]
    for data in results.values():
        data["speedup_vs_snapshot"] = baseline / data["seconds_per_sync"]

    print_table(
        f"Sharded sync + top-k per cycle ({SHARDS} shards, "
        f"{pairs} resident pairs, {CHUNK_UPDATES}-update chunks)",
        ["sync path", "ms/sync", "best ms", "speedup"],
        [
            [name,
             f"{data['seconds_per_sync'] * 1e3:.2f}",
             f"{data['best_seconds_per_sync'] * 1e3:.2f}",
             f"{data['speedup_vs_snapshot']:.2f}x"]
            for name, data in results.items()
        ],
    )

    min_speedup = env_float("REPRO_BENCH_SHARD_MIN_SPEEDUP", 10.0)
    out_path = write_result("REPRO_BENCH_SHARD_OUT", "BENCH_shard.json", {
        "benchmark": "shard_transport_sync_latency",
        "shards": SHARDS,
        "resident_pairs": pairs,
        "chunk_updates": CHUNK_UPDATES,
        "sync_cycles": SYNC_CYCLES,
        "scale": os.environ.get("REPRO_SCALE", "1.0"),
        "min_speedup": min_speedup,
        "sync_paths": results,
    })

    speedup = results["delta"]["speedup_vs_snapshot"]
    assert speedup >= min_speedup, (
        f"delta sync speedup {speedup:.2f}x over the whole-snapshot "
        f"merge is below the {min_speedup:.1f}x bar (see {out_path})"
    )
