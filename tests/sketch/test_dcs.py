"""Tests for the Distinct-Count Sketch and the BaseTopk estimator."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import MergeError, ParameterError
from repro.sketch import DistinctCountSketch, SketchParams
from repro.types import AddressDomain, FlowUpdate


@pytest.fixture
def domain() -> AddressDomain:
    return AddressDomain(2 ** 16)


@pytest.fixture
def sketch(domain) -> DistinctCountSketch:
    return DistinctCountSketch(domain, seed=1)


def feed_heavy_hitter(sketch, dest: int, sources: int, base: int = 0):
    for source in range(base, base + sources):
        sketch.insert(source, dest)


class TestMaintenance:
    def test_empty_initially(self, sketch):
        assert sketch.is_empty
        assert sketch.updates_processed == 0

    def test_insert_changes_state(self, sketch):
        sketch.insert(1, 2)
        assert not sketch.is_empty
        assert sketch.updates_processed == 1
        assert sketch.net_total == 1

    def test_delete_resilience_single_pair(self, domain):
        a = DistinctCountSketch(domain, seed=3)
        b = DistinctCountSketch(domain, seed=3)
        a.insert(10, 20)
        a.insert(30, 40)
        a.delete(30, 40)
        b.insert(10, 20)
        assert a.structurally_equal(b)

    def test_delete_resilience_bulk(self, domain):
        rng = random.Random(5)
        churned = DistinctCountSketch(domain, seed=9)
        clean = DistinctCountSketch(domain, seed=9)
        persistent = [(rng.randrange(2 ** 16), rng.randrange(2 ** 16))
                      for _ in range(200)]
        transient = [(rng.randrange(2 ** 16), rng.randrange(2 ** 16))
                     for _ in range(500)]
        stream = []
        stream += [(s, d, +1) for s, d in persistent]
        stream += [(s, d, +1) for s, d in transient]
        stream += [(s, d, -1) for s, d in transient]
        rng_order = random.Random(6)
        # Respect insert-before-delete per transient pair: shuffle only
        # the persistent inserts among the transients' inserts.
        for source, dest, delta in stream:
            churned.update(source, dest, delta)
        for source, dest in persistent:
            clean.insert(source, dest)
        assert churned.structurally_equal(clean)

    def test_update_rejects_bad_delta(self, sketch):
        with pytest.raises(ParameterError):
            sketch.update(1, 2, 0)

    def test_process_flow_update(self, sketch):
        sketch.process(FlowUpdate(1, 2, +1))
        sketch.process(FlowUpdate(1, 2, -1))
        assert sketch.is_empty

    def test_process_stream_counts(self, sketch):
        count = sketch.process_stream(
            FlowUpdate(i, 7, +1) for i in range(25)
        )
        assert count == 25
        assert sketch.updates_processed == 25

    def test_order_insensitive(self, domain):
        updates = [FlowUpdate(i, i % 5, +1) for i in range(100)]
        forward = DistinctCountSketch(domain, seed=2)
        backward = DistinctCountSketch(domain, seed=2)
        forward.process_stream(updates)
        backward.process_stream(reversed(updates))
        assert forward.structurally_equal(backward)

    def test_duplicate_insertions_do_not_change_distinct_recovery(
        self, domain
    ):
        once = DistinctCountSketch(domain, seed=4)
        thrice = DistinctCountSketch(domain, seed=4)
        for source in range(60):
            once.insert(source, 9)
            for _ in range(3):
                thrice.insert(source, 9)
        # Same distinct sample, hence identical top-k answers.
        assert (once.base_topk(1).as_dict()
                == thrice.base_topk(1).as_dict())


class TestSingletonRecovery:
    def test_single_inserted_pair_is_recovered(self, sketch, domain):
        sketch.insert(123, 456)
        pair = domain.encode_pair(123, 456)
        level = sketch.level_of(123, 456)
        assert pair in sketch.get_dsample(level)

    def test_return_singleton_matches_structure(self, sketch, domain):
        sketch.insert(7, 8)
        level = sketch.level_of(7, 8)
        bucket = sketch.inner_bucket(0, 7, 8)
        assert sketch.return_singleton(level, 0, bucket) == (
            domain.encode_pair(7, 8)
        )

    def test_return_singleton_empty_bucket(self, sketch):
        assert sketch.return_singleton(0, 0, 0) is None

    def test_full_recovery_when_sparse(self, domain):
        # With few pairs, every one should be recovered at its level.
        sketch = DistinctCountSketch(domain, seed=8)
        pairs = [(i, 2 * i + 1) for i in range(20)]
        for source, dest in pairs:
            sketch.insert(source, dest)
        recovered = set()
        for level in range(sketch.params.num_levels):
            recovered |= sketch.get_dsample(level)
        expected = {domain.encode_pair(s, d) for s, d in pairs}
        assert recovered == expected

    def test_deleted_pairs_not_recovered(self, domain):
        sketch = DistinctCountSketch(domain, seed=8)
        sketch.insert(1, 2)
        sketch.insert(3, 4)
        sketch.delete(1, 2)
        recovered = set()
        for level in range(sketch.params.num_levels):
            recovered |= sketch.get_dsample(level)
        assert recovered == {domain.encode_pair(3, 4)}


class TestBaseTopk:
    def test_identifies_heavy_hitter(self, sketch):
        feed_heavy_hitter(sketch, dest=7, sources=400)
        feed_heavy_hitter(sketch, dest=8, sources=20, base=1000)
        result = sketch.base_topk(1)
        assert result.destinations == [7]

    def test_estimates_scale_by_stop_level(self, sketch):
        feed_heavy_hitter(sketch, dest=7, sources=300)
        result = sketch.base_topk(1)
        entry = result.entries[0]
        assert entry.estimate == entry.sample_frequency << result.stop_level

    def test_estimate_accuracy_loose(self, sketch):
        feed_heavy_hitter(sketch, dest=7, sources=1000)
        estimate = sketch.base_topk(1).entries[0].estimate
        assert 500 <= estimate <= 2000  # within 2x for a lone hitter

    def test_small_stream_is_exact(self, domain):
        # When everything fits in the sample, estimates are exact.
        sketch = DistinctCountSketch(domain, seed=2)
        for source in range(30):
            sketch.insert(source, 5)
        for source in range(10):
            sketch.insert(100 + source, 6)
        result = sketch.base_topk(2)
        assert result.stop_level == 0
        assert result.as_dict() == {5: 30, 6: 10}

    def test_k_larger_than_destinations(self, sketch):
        feed_heavy_hitter(sketch, dest=7, sources=10)
        result = sketch.base_topk(5)
        assert len(result) == 1

    def test_rejects_bad_k(self, sketch):
        with pytest.raises(ParameterError):
            sketch.base_topk(0)

    def test_empty_sketch_returns_empty(self, sketch):
        result = sketch.base_topk(3)
        assert len(result) == 0
        assert result.sample_size == 0

    def test_deterministic_given_seed(self, domain):
        def build():
            sketch = DistinctCountSketch(domain, seed=11)
            for source in range(200):
                sketch.insert(source, source % 7)
            return sketch.base_topk(3)

        first, second = build(), build()
        assert first.as_dict() == second.as_dict()
        assert first.stop_level == second.stop_level


class TestThresholdQuery:
    def test_reports_only_above_threshold(self, sketch):
        feed_heavy_hitter(sketch, dest=7, sources=500)
        feed_heavy_hitter(sketch, dest=8, sources=10, base=2000)
        result = sketch.threshold_query(100)
        assert 7 in result.destinations
        assert 8 not in result.destinations

    def test_rejects_bad_tau(self, sketch):
        with pytest.raises(ParameterError):
            sketch.threshold_query(0)

    def test_threshold_one_reports_everything_sampled(self, domain):
        sketch = DistinctCountSketch(domain, seed=3)
        for source in range(15):
            sketch.insert(source, source)  # 15 singleton destinations
        result = sketch.threshold_query(1)
        assert len(result) == 15


class TestEstimateDistinctPairs:
    def test_small_stream_exact(self, domain):
        sketch = DistinctCountSketch(domain, seed=7)
        for i in range(40):
            sketch.insert(i, 1000 + i)
        assert sketch.estimate_distinct_pairs() == 40

    def test_large_stream_approximate(self, domain):
        sketch = DistinctCountSketch(domain, seed=7)
        rng = random.Random(0)
        pairs = {(rng.randrange(2 ** 16), rng.randrange(2 ** 16))
                 for _ in range(5000)}
        for source, dest in pairs:
            sketch.insert(source, dest)
        estimate = sketch.estimate_distinct_pairs()
        assert 0.5 * len(pairs) <= estimate <= 2.0 * len(pairs)


class TestMerge:
    def test_merge_equals_union_stream(self, domain):
        left = DistinctCountSketch(domain, seed=5)
        right = DistinctCountSketch(domain, seed=5)
        union = DistinctCountSketch(domain, seed=5)
        for i in range(50):
            left.insert(i, 1)
            union.insert(i, 1)
        for i in range(50, 120):
            right.insert(i, 2)
            union.insert(i, 2)
        left.merge(right)
        assert left.structurally_equal(union)
        assert left.updates_processed == union.updates_processed

    def test_merge_with_deletions_cancels(self, domain):
        inserts = DistinctCountSketch(domain, seed=5)
        deletes = DistinctCountSketch(domain, seed=5)
        for i in range(30):
            inserts.insert(i, 3)
            deletes.delete(i, 3)
        inserts.merge(deletes)
        assert inserts.is_empty

    def test_merge_rejects_different_seeds(self, domain):
        a = DistinctCountSketch(domain, seed=1)
        b = DistinctCountSketch(domain, seed=2)
        with pytest.raises(MergeError):
            a.merge(b)

    def test_merge_rejects_different_shapes(self, domain):
        a = DistinctCountSketch(SketchParams(domain, s=64), seed=1)
        b = DistinctCountSketch(SketchParams(domain, s=128), seed=1)
        with pytest.raises(MergeError):
            a.merge(b)

    def test_copy_independent(self, sketch):
        sketch.insert(1, 2)
        clone = sketch.copy()
        clone.insert(3, 4)
        assert not sketch.structurally_equal(clone)
        assert sketch.updates_processed == 1
        assert clone.updates_processed == 2


class TestSampleInternals:
    def test_collect_distinct_sample_reaches_target(self, domain):
        sketch = DistinctCountSketch(domain, seed=21)
        for source in range(3000):
            sketch.insert(source, source % 40)
        sample, stop_level, target = sketch.collect_distinct_sample()
        assert len(sample) >= target
        assert stop_level >= 0
        # Every sampled pair decodes into the domain.
        for pair in sample:
            source, dest = domain.decode_pair(pair)
            assert 0 <= source < domain.m
            assert 0 <= dest < domain.m

    def test_collect_on_empty_sketch(self, sketch):
        sample, stop_level, target = sketch.collect_distinct_sample()
        assert sample == set()
        assert stop_level == 0
        assert target > 0

    def test_sample_destination_frequencies(self, domain):
        sketch = DistinctCountSketch(domain, seed=22)
        pairs = {
            domain.encode_pair(1, 7),
            domain.encode_pair(2, 7),
            domain.encode_pair(3, 9),
        }
        frequencies = sketch.sample_destination_frequencies(pairs)
        assert frequencies == {7: 2, 9: 1}

    def test_custom_epsilon_changes_target(self, domain):
        sketch = DistinctCountSketch(domain, seed=23)
        for source in range(2000):
            sketch.insert(source, source % 10)
        _, _, small = sketch.collect_distinct_sample(epsilon=0.01)
        _, _, large = sketch.collect_distinct_sample(epsilon=0.3)
        assert large > small

    def test_iter_signatures_covers_all_occupied(self, domain):
        # Identity holds for reference signatures only: packed storage
        # materializes a fresh CountSignature per access.
        sketch = DistinctCountSketch(domain, seed=24, backend="reference")
        for source in range(100):
            sketch.insert(source, 1)
        listed = list(sketch._iter_signatures())
        assert len(listed) == sketch.occupied_buckets()
        for level, j, bucket, signature in listed:
            assert sketch.signature_at(level, j, bucket) is signature


class TestSpaceAccounting:
    def test_active_levels_grow_with_data(self, sketch):
        assert sketch.active_levels() == 0
        feed_heavy_hitter(sketch, dest=1, sources=500)
        assert sketch.active_levels() > 3

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_active_levels_count_the_occupied_levels(self, domain, backend):
        sketch = DistinctCountSketch(domain, seed=1, backend=backend)
        per_level = sketch.params.r * sketch.params.s

        def occupied_levels():
            keys = sketch._store.occupied_keys() // per_level
            return set(keys.tolist())

        inserts = [FlowUpdate(source, 1, 1) for source in range(500)]
        level = {u: sketch.level_of(u.source, u.dest) for u in inserts}
        top = max(level.values())
        sketch.update_batch(inserts)
        assert sketch.active_levels() == len(occupied_levels()) > 3
        # Deleting every pair of the highest level empties that level.
        sketch.update_batch([u.inverted() for u in inserts if level[u] == top])
        assert top not in occupied_levels()
        assert sketch.active_levels() == len(occupied_levels())
        sketch.update_batch([u.inverted() for u in inserts if level[u] < top])
        assert sketch.active_levels() == len(occupied_levels()) == 0

    def test_space_bytes_counts_active_levels(self, sketch):
        feed_heavy_hitter(sketch, dest=1, sources=100)
        active = sketch.space_bytes()
        full = sketch.space_bytes(only_active_levels=False)
        assert 0 < active <= full
        assert full == sketch.params.allocated_bytes()

    def test_occupied_buckets_bounded(self, sketch):
        feed_heavy_hitter(sketch, dest=1, sources=100)
        # At most r buckets touched per distinct pair.
        assert sketch.occupied_buckets() <= 100 * sketch.params.r
