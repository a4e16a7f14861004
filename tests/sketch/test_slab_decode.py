"""Differential fuzzing of the vectorized slab-decode query path.

The slab engine (``SignatureArena.decode_slab`` and ``decode_levels``
under ``get_dsample`` / ``dsample_sweep`` and the whole-walk decode of
``collect_distinct_sample``) must be *bit-identical* to the scalar
per-signature decode — same singleton sets, same per-level collision
counts, same estimator answers — on every backend, under delete-heavy
churn, after merges, and after crash recovery.

The oracle here is deliberately primitive: walk every occupied bucket,
materialize its :class:`~repro.sketch.signature.CountSignature`, and
apply the scalar ``recover_singleton`` — sharing no code with the
vectorized kernels under test.
"""

from __future__ import annotations

import pickle
import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.exceptions import ParameterError
from repro.resilience import DurableSketch
from repro.sketch import (
    DistinctCountSketch,
    ShardedSketch,
    TrackingDistinctCountSketch,
)
from repro.sketch.arena import SignatureArena
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)


def make_stream(
    seed: int,
    length: int,
    dests: int = 150,
    delete_fraction: float = 0.35,
    domain: AddressDomain = DOMAIN,
) -> List[FlowUpdate]:
    """A seeded insert/delete stream where every delete is well-formed."""
    rng = random.Random(seed)
    live: List[Tuple[int, int]] = []
    updates: List[FlowUpdate] = []
    for _ in range(length):
        if live and rng.random() < delete_fraction:
            source, dest = live.pop(rng.randrange(len(live)))
            updates.append(FlowUpdate(source, dest, -1))
        else:
            source = rng.randrange(domain.m)
            dest = rng.randrange(dests)
            live.append((source, dest))
            updates.append(FlowUpdate(source, dest, 1))
    return updates


def oracle_dsample(sketch: DistinctCountSketch, level: int) -> Set[int]:
    """Scalar ``GetdSample`` oracle: per-signature ``recover_singleton``."""
    sample: Set[int] = set()
    for at_level, _, _, signature in sketch._iter_signatures():
        code = signature.recover_singleton()
        if at_level == level and code is not None:
            sample.add(code)
    return sample


def oracle_collisions(sketch: DistinctCountSketch, level: int) -> int:
    """Occupied buckets at ``level`` that fail the singleton test."""
    collisions = 0
    for at_level, _, _, signature in sketch._iter_signatures():
        if at_level == level and signature.recover_singleton() is None:
            collisions += 1
    return collisions


def assert_decode_matches_oracle(sketch: DistinctCountSketch) -> None:
    """Every decode surface agrees with the scalar oracle."""
    sweep = sketch.dsample_sweep()
    levels = range(sketch.params.num_levels)
    decoded = list(
        sketch._store.decode_levels(levels, sketch.params.r * sketch.params.s)
    )
    for level, (codes, collisions) in zip(levels, decoded):
        expected = oracle_dsample(sketch, level)
        assert sketch.get_dsample(level) == expected
        assert sweep[level] == expected
        assert set(codes) == expected
        assert collisions == oracle_collisions(sketch, level)


class TestSlabDecodeDifferential:
    @pytest.mark.parametrize("backend", ["reference", "packed"])
    @pytest.mark.parametrize("stream_seed", [1, 2, 3])
    @pytest.mark.parametrize("delete_fraction", [0.0, 0.35, 0.7])
    def test_slab_decode_matches_scalar_oracle(
        self, backend, stream_seed, delete_fraction
    ):
        updates = make_stream(
            stream_seed, 3000, delete_fraction=delete_fraction
        )
        sketch = DistinctCountSketch(DOMAIN, seed=42, backend=backend)
        sketch.process_stream(updates, batch_size=256)
        assert_decode_matches_oracle(sketch)

    @pytest.mark.parametrize("stream_seed", [4, 5])
    def test_query_answers_identical_across_backends(self, stream_seed):
        updates = make_stream(stream_seed, 2500, delete_fraction=0.5)
        reference = DistinctCountSketch(DOMAIN, seed=9, backend="reference")
        packed = DistinctCountSketch(DOMAIN, seed=9, backend="packed")
        reference.process_stream(updates)
        packed.process_stream(updates, batch_size=128)
        assert (
            reference.collect_distinct_sample()
            == packed.collect_distinct_sample()
        )
        assert reference.base_topk(10) == packed.base_topk(10)
        assert reference.threshold_query(4) == packed.threshold_query(4)
        assert (
            reference.estimate_distinct_pairs()
            == packed.estimate_distinct_pairs()
        )

    def test_slab_decode_after_merge(self):
        left = DistinctCountSketch(DOMAIN, seed=6, backend="packed")
        right = DistinctCountSketch(DOMAIN, seed=6, backend="packed")
        left.process_stream(make_stream(11, 1500, delete_fraction=0.4))
        right.process_stream(make_stream(12, 1500, delete_fraction=0.4))
        left.merge(right)
        assert_decode_matches_oracle(left)

    def test_slab_decode_after_recovery(self, tmp_path):
        """Decode stays exact on a sketch rebuilt from checkpoint + WAL."""
        updates = make_stream(13, 2000, delete_fraction=0.4)
        with DurableSketch(
            tmp_path, DOMAIN, kind="basic", seed=3, backend="packed",
            checkpoint_every=512,
        ) as durable:
            durable.process_stream(updates)
        reopened = DurableSketch(tmp_path, backend="packed")
        assert reopened.recovered
        assert_decode_matches_oracle(reopened.sketch)
        pristine = DistinctCountSketch(DOMAIN, seed=3, backend="packed")
        pristine.process_stream(updates)
        assert pristine.structurally_equal(reopened.sketch)
        assert pristine.base_topk(10) == reopened.sketch.base_topk(10)
        reopened.close()

    def test_wide_pair_domain_takes_scalar_fallback(self):
        """pair_bits > 64 must transparently use the scalar decode."""
        wide = AddressDomain(2 ** 33)
        sketch = DistinctCountSketch(wide, seed=1, backend="packed")
        assert sketch.params.pair_bits > 64
        assert not sketch._slab_engine
        updates = make_stream(14, 800, domain=wide)
        sketch.process_stream(updates, batch_size=64)
        assert_decode_matches_oracle(sketch)

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_get_dsample_rejects_levels_outside_the_sketch(self, backend):
        sketch = DistinctCountSketch(DOMAIN, seed=7, backend=backend)
        sketch.process_stream(make_stream(18, 300))
        for level in (-1, sketch.params.num_levels):
            with pytest.raises(ParameterError):
                sketch.get_dsample(level)

    def test_int64_scratch_path_matches_int32(self):
        """Forcing the wide-counter scratch dtype changes nothing."""
        sketch = DistinctCountSketch(DOMAIN, seed=7, backend="packed")
        sketch.process_stream(make_stream(15, 2000, delete_fraction=0.4))
        narrow = sketch.dsample_sweep()
        # Pretend the stream was long enough that counters might not
        # fit 32 bits: the decode must switch to int64 scratch and
        # still produce identical samples.
        sketch.updates_processed = 2 ** 31
        assert sketch.dsample_sweep() == narrow

    def test_tracking_rebuild_agrees_with_slab_decode(self):
        updates = make_stream(16, 2000, delete_fraction=0.45)
        tracking = TrackingDistinctCountSketch(
            DOMAIN, seed=21, backend="packed"
        )
        tracking.process_stream(updates, batch_size=200)
        tracking.check_invariants()
        for level in range(tracking.params.num_levels):
            assert tracking.singleton_pairs(level) == oracle_dsample(
                tracking, level
            )


def slab_decode(arena: SignatureArena) -> Tuple[Dict[int, int], int]:
    """``{key: code}`` of the arena's singleton rows, plus collisions."""
    keys, codes = arena.decode_slab()
    decoded = dict(zip(keys.tolist(), codes.tolist()))
    return decoded, len(arena) - len(decoded)


class TestArenaSlabKernel:
    def test_empty_arena_decodes_empty(self):
        arena = SignatureArena(pair_bits=8, range_size=16)
        assert slab_decode(arena) == ({}, 0)

    def test_freed_rows_are_excluded(self):
        arena = SignatureArena(pair_bits=8, range_size=16)
        arena.update(3, 0b1010, 1)
        arena.update(5, 0b0011, 1)
        arena.update(3, 0b1010, -1)  # nets bucket 3 back to zero
        assert slab_decode(arena) == ({5: 0b0011}, 0)

    def test_collision_rows_counted_not_decoded(self):
        arena = SignatureArena(pair_bits=8, range_size=16)
        arena.update(3, 0b1010, 1)
        arena.update(3, 0b0101, 1)
        assert slab_decode(arena) == ({}, 1)

    def test_view_cache_survives_growth_and_pickle(self):
        arena = SignatureArena(pair_bits=8, range_size=16)
        arena.update(1, 0b1, 1)
        first = arena.view2d()
        assert arena.view2d() is first  # cached between calls
        # Drop the exported view before growing: ``array`` cannot
        # resize while any view holds its buffer (true before the
        # cache existed, too).
        del first
        for bucket in range(2, 10):
            arena.update(bucket, bucket, 1)  # forces buffer growth
        regrown = arena.view2d()
        assert regrown.shape[0] == len(arena)
        # The pickled twin must decode from its own buffer, not from a
        # stale copied view.
        twin = pickle.loads(pickle.dumps(arena))
        twin.update(1, 0b1, -1)
        assert slab_decode(twin) != slab_decode(arena)
        assert slab_decode(arena)[0] == {
            key: key for key in range(1, 10)
        }


class TestShardedBaseTopk:
    def test_sharded_base_topk_matches_single_sketch(self):
        updates = make_stream(17, 3000, delete_fraction=0.3)
        sharded = ShardedSketch(
            DOMAIN, shards=4, policy="round-robin", seed=5,
            sketch_backend="packed",
        )
        sharded.process_stream(updates, batch_size=250)
        whole = TrackingDistinctCountSketch(
            DOMAIN, seed=5, backend="reference"
        )
        whole.process_stream(updates)
        assert sharded.base_topk(10) == whole.base_topk(10)
        assert sharded.track_topk(10) == whole.track_topk(10)
