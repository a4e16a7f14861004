"""Integration: sharding, serialization, and tracing composed.

A distributed pipeline uses all three transports at once: routers shard
the stream locally, archive traces, ship serialized shards, and the
monitor merges everything.  These tests pin the composition.
"""

from __future__ import annotations

import random

import pytest

from repro.sketch import (
    ShardedSketch,
    TrackingDistinctCountSketch,
    serialize,
)
from repro.streams import read_trace, write_trace
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)


def stream(count, seed):
    rng = random.Random(seed)
    updates = []
    live = []
    for _ in range(count):
        if live and rng.random() < 0.3:
            updates.append(live.pop().inverted())
        else:
            update = FlowUpdate(rng.randrange(2 ** 16),
                                rng.randrange(50), +1)
            live.append(update)
            updates.append(update)
    return updates


class TestShardShipAndMerge:
    def test_serialized_shards_merge_to_global_truth(self):
        updates = stream(800, seed=1)
        sharded = ShardedSketch(DOMAIN, shards=3, seed=7)
        sharded.process_stream(updates)
        # Ship each shard through the wire format.
        shipped = [
            serialize.loads(serialize.dumps(sharded.shard(index)))
            for index in range(sharded.num_shards)
        ]
        merged = TrackingDistinctCountSketch(sharded.params, seed=7)
        merged.track_topk(1)  # empty: every level tracked
        for shard in shipped:
            merged.merge(shard)
        direct = TrackingDistinctCountSketch(
            sharded.params, seed=7, backend="reference"
        )
        direct.process_stream(updates)
        assert merged.structurally_equal(direct)
        merged.check_invariants()

    def test_trace_roundtrip_preserves_shard_equivalence(self, tmp_path):
        updates = stream(500, seed=2)
        path = tmp_path / "archive.trace"
        write_trace(path, updates, dotted=False)
        replayed = read_trace(path)
        assert replayed == updates
        a = ShardedSketch(DOMAIN, shards=2, seed=8)
        a.process_stream(updates)
        b = ShardedSketch(DOMAIN, shards=2, seed=8)
        b.process_stream(replayed)
        assert a.combined().structurally_equal(b.combined())

    def test_pipeline_answers_match_every_stage(self, tmp_path):
        updates = stream(600, seed=3)
        # Stage A: direct.
        direct = TrackingDistinctCountSketch(
            DOMAIN, seed=9, backend="reference"
        )
        direct.process_stream(updates)
        expected = direct.track_topk(5).as_dict()
        # Stage B: trace -> shard -> serialize -> merge.
        path = tmp_path / "p.trace"
        write_trace(path, updates, dotted=False)
        sharded = ShardedSketch(DOMAIN, shards=4, seed=9)
        sharded.process_stream(read_trace(path))
        payloads = [
            serialize.dumps(sharded.shard(index))
            for index in range(4)
        ]
        monitor_side = TrackingDistinctCountSketch(sharded.params,
                                                   seed=9)
        for payload in payloads:
            monitor_side.merge(serialize.loads(payload))
        assert monitor_side.track_topk(5).as_dict() == expected
