"""Pair domains wider than 64 bits run on the reference store.

Packed storage holds one uint64 pair code per update: the paper's IPv4
domain (m = 2^32) gives 64-bit codes.  At m = 2^33 a code takes 66
bits, so every constructor that forwards ``backend="packed"`` builds
the reference store and says so, and every ingest path stays
bit-identical to a sketch that asked for the reference store.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.monitor import DDoSMonitor, SlidingWindowSketch
from repro.resilience import DurableSketch
from repro.sketch import (
    DistinctCountSketch,
    ShardedSketch,
    SignatureArena,
    SignatureTable,
    TrackingDistinctCountSketch,
)
from repro.sketch.dcs import encode_batch
from repro.sketch.serialize import dumps, loads
from repro.types import AddressDomain, FlowUpdate

WIDE = AddressDomain(2 ** 33)
SEED = 11
KINDS = [DistinctCountSketch, TrackingDistinctCountSketch]


def wide_stream(
    seed: int, length: int, delete_fraction: float = 0.3
) -> List[FlowUpdate]:
    """Inserts and well-formed deletes over 40 destinations spread
    across the whole domain; most pair codes are at or above 2^64."""
    rng = random.Random(seed)
    dests = [rng.randrange(WIDE.m) for _ in range(40)]
    live: List[Tuple[int, int]] = []
    updates: List[FlowUpdate] = []
    for _ in range(length):
        if live and rng.random() < delete_fraction:
            source, dest = live.pop(rng.randrange(len(live)))
            updates.append(FlowUpdate(source, dest, -1))
        else:
            dest = dests[int(rng.paretovariate(1.2)) % len(dests)]
            pair = (rng.randrange(WIDE.m), dest)
            live.append(pair)
            updates.append(FlowUpdate(*pair, 1))
    return updates


STREAM = wide_stream(SEED, 900)


def reference_of(kind, updates=STREAM):
    sketch = kind(WIDE, seed=SEED, backend="reference")
    for update in updates:
        sketch.process(update)
    return sketch


def assert_same_answers(sketch, reference) -> None:
    assert sketch.structurally_equal(reference)
    assert sketch.base_topk(5) == reference.base_topk(5)
    if isinstance(reference, TrackingDistinctCountSketch):
        assert sketch.track_topk(5) == reference.track_topk(5)


class TestBackendResolution:
    """A packed request on a wide domain builds the reference store."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_sketch_reports_reference(self, kind):
        sketch = kind(WIDE, seed=SEED, backend="packed")
        assert WIDE.pair_bits > 64
        assert sketch.backend == "reference"
        assert isinstance(sketch._store, SignatureTable)
        assert sketch.copy().backend == "reference"

    def test_ipv4_domain_stays_packed(self):
        sketch = DistinctCountSketch(AddressDomain(2 ** 32), seed=SEED)
        assert sketch.backend == "packed"
        assert isinstance(sketch._store, SignatureArena)

    def test_sync_shards_are_reference(self):
        sharded = ShardedSketch(
            WIDE, shards=2, seed=SEED, sketch_backend="packed"
        )
        sharded.update_batch(STREAM)
        for index in range(2):
            assert sharded.shard(index).backend == "reference"
        assert_same_answers(
            sharded.combined(), reference_of(TrackingDistinctCountSketch)
        )

    def test_sliding_window_sum_is_reference(self):
        window = SlidingWindowSketch(
            WIDE, subepoch_length=100, window_subepochs=3, seed=SEED,
            backend="packed",
        )
        oracle = SlidingWindowSketch(
            WIDE, subepoch_length=100, window_subepochs=3, seed=SEED,
            backend="reference",
        )
        window.observe_batch(STREAM)
        for update in STREAM:
            oracle.observe(update)
        assert window.window_sum.backend == "reference"
        assert_same_answers(window.window_sum, oracle.window_sum)

    def test_durable_sketch_is_reference(self, tmp_path):
        with DurableSketch(
            tmp_path, WIDE, kind="tracking", seed=SEED, backend="packed",
            checkpoint_every=400,
        ) as durable:
            assert durable.sketch.backend == "reference"
            durable.process_stream(STREAM)
        reopened = DurableSketch(tmp_path, backend="packed")
        try:
            assert reopened.recovered
            assert reopened.sketch.backend == "reference"
            assert_same_answers(
                reopened.sketch, reference_of(TrackingDistinctCountSketch)
            )
        finally:
            reopened.close()

    def test_monitor_sketch_is_reference(self):
        monitor = DDoSMonitor(WIDE, seed=SEED, backend="packed")
        assert monitor.sketch.backend == "reference"
        monitor.observe_stream(STREAM)
        assert_same_answers(
            monitor.sketch, reference_of(TrackingDistinctCountSketch)
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_loads_default_backend_is_reference(self, kind):
        reference = reference_of(kind)
        loaded = loads(dumps(reference))
        assert type(loaded) is kind
        assert loaded.backend == "reference"
        assert_same_answers(loaded, reference)

    def test_arena_holds_at_most_64_bit_codes(self):
        assert SignatureArena(64, 16).pair_bits == 64
        with pytest.raises(ParameterError):
            SignatureArena(65, 16)


class TestIngestMatchesReference:
    """Every ingest path equals per-update reference processing."""

    def test_encode_batch_gives_object_codes(self):
        codes, deltas = encode_batch(WIDE, STREAM)
        assert codes.dtype == object
        assert deltas.dtype == np.int64
        assert codes.tolist() == [
            WIDE.encode_pair(u.source, u.dest) for u in STREAM
        ]
        assert max(codes.tolist()) >= 2 ** 64
        assert deltas.tolist() == [u.delta for u in STREAM]

    @pytest.mark.parametrize("kind", KINDS)
    def test_per_update(self, kind):
        sketch = kind(WIDE, seed=SEED, backend="packed")
        for update in STREAM:
            sketch.process(update)
        assert_same_answers(sketch, reference_of(kind))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("batch_size", [1, 250, 2000])
    def test_batches(self, kind, batch_size):
        sketch = kind(WIDE, seed=SEED, backend="packed")
        assert sketch.process_stream(STREAM, batch_size) == len(STREAM)
        assert_same_answers(sketch, reference_of(kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_update_encoded(self, kind):
        sketch = kind(WIDE, seed=SEED, backend="packed")
        for lo in range(0, len(STREAM), 250):
            sketch.update_encoded(*encode_batch(WIDE, STREAM[lo:lo + 250]))
        assert_same_answers(sketch, reference_of(kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_merge_and_subtract(self, kind):
        head = kind(WIDE, seed=SEED, backend="packed")
        tail = kind(WIDE, seed=SEED, backend="packed")
        head.update_batch(STREAM[:400])
        tail.update_batch(STREAM[400:])
        head.merge(tail)
        assert_same_answers(head, reference_of(kind))
        head.subtract(tail)
        assert_same_answers(head, reference_of(kind, STREAM[:400]))
