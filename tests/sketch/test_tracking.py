"""Tests for the Tracking Distinct-Count Sketch (Section 5)."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ParameterError
from repro.sketch import (
    DistinctCountSketch,
    SketchParams,
    TrackingDistinctCountSketch,
)
from repro.sketch.tracking import SingletonSet
from repro.types import AddressDomain, FlowUpdate


@pytest.fixture
def domain() -> AddressDomain:
    return AddressDomain(2 ** 16)


@pytest.fixture
def sketch(domain) -> TrackingDistinctCountSketch:
    return TrackingDistinctCountSketch(domain, seed=1)


def random_stream(count, seed, m=2 ** 16, dests=20):
    rng = random.Random(seed)
    return [
        FlowUpdate(rng.randrange(m), rng.randrange(dests), +1)
        for _ in range(count)
    ]


class TestSingletonSet:
    def test_get_count_absent_is_zero(self):
        assert SingletonSet().get_count(5) == 0

    def test_incr_and_decr(self):
        singleton_set = SingletonSet()
        assert singleton_set.incr_count(5) == 1
        assert singleton_set.incr_count(5) == 2
        assert singleton_set.decr_count(5) == 1
        assert singleton_set.decr_count(5) == 0
        assert 5 not in singleton_set

    def test_decr_absent_raises(self):
        with pytest.raises(ParameterError):
            SingletonSet().decr_count(1)

    def test_pairs_and_len(self):
        singleton_set = SingletonSet()
        singleton_set.incr_count(1)
        singleton_set.incr_count(2)
        singleton_set.incr_count(2)
        assert singleton_set.pairs() == {1, 2}
        assert len(singleton_set) == 2


class TestTrackedStateConsistency:
    def test_invariants_after_insert_stream(self, sketch):
        for update in random_stream(500, seed=2):
            sketch.process(update)
        sketch.check_invariants()

    def test_invariants_after_mixed_stream(self, sketch):
        rng = random.Random(3)
        live = []
        for step in range(1500):
            if live and rng.random() < 0.4:
                source, dest = live.pop(rng.randrange(len(live)))
                sketch.delete(source, dest)
            else:
                source, dest = rng.randrange(2 ** 16), rng.randrange(30)
                live.append((source, dest))
                sketch.insert(source, dest)
            if step % 250 == 0:
                sketch.check_invariants()
        sketch.check_invariants()

    def test_invariants_with_duplicates(self, sketch):
        rng = random.Random(4)
        pairs = [(rng.randrange(100), rng.randrange(5)) for _ in range(50)]
        for _ in range(4):
            for source, dest in pairs:
                sketch.insert(source, dest)
        sketch.check_invariants()

    def test_num_singletons_matches_scan(self, sketch, domain):
        for update in random_stream(300, seed=5):
            sketch.process(update)
        for level in range(sketch.params.num_levels):
            assert sketch.num_singletons(level) == len(
                sketch.get_dsample(level)
            )
            assert sketch.singleton_pairs(level) == sketch.get_dsample(level)

    def test_signature_state_identical_to_basic_sketch(self, domain):
        basic = DistinctCountSketch(domain, seed=6)
        tracking = TrackingDistinctCountSketch(domain, seed=6)
        for update in random_stream(400, seed=7):
            basic.process(update)
            tracking.process(update)
        assert tracking.structurally_equal(basic)


class TestTrackTopkAgreesWithBaseTopk:
    def test_agreement_on_insert_stream(self, domain):
        tracking = TrackingDistinctCountSketch(domain, seed=8)
        for update in random_stream(800, seed=9, dests=15):
            tracking.process(update)
        base = tracking.base_topk(5)
        tracked = tracking.track_topk(5)
        assert tracked.as_dict() == base.as_dict()
        assert tracked.stop_level == base.stop_level

    def test_agreement_under_deletions(self, domain):
        tracking = TrackingDistinctCountSketch(domain, seed=10)
        rng = random.Random(11)
        live = []
        for _ in range(1200):
            if live and rng.random() < 0.35:
                source, dest = live.pop()
                tracking.delete(source, dest)
            else:
                source, dest = rng.randrange(2 ** 16), rng.randrange(25)
                live.append((source, dest))
                tracking.insert(source, dest)
        assert tracking.track_topk(8).as_dict() == (
            tracking.base_topk(8).as_dict()
        )

    def test_agreement_at_every_prefix(self, domain):
        tracking = TrackingDistinctCountSketch(domain, seed=12)
        for index, update in enumerate(random_stream(200, seed=13)):
            tracking.process(update)
            if index % 40 == 0:
                assert tracking.track_topk(3).as_dict() == (
                    tracking.base_topk(3).as_dict()
                )


class TestTrackTopkBehaviour:
    def test_identifies_heavy_hitter(self, sketch):
        for source in range(500):
            sketch.insert(source, 7)
        for source in range(20):
            sketch.insert(1000 + source, 8)
        assert sketch.track_topk(1).destinations == [7]

    def test_query_does_not_mutate(self, sketch):
        for source in range(300):
            sketch.insert(source, 7)
        before = sketch.track_topk(3).as_dict()
        for _ in range(10):
            sketch.track_topk(3)
        sketch.check_invariants()
        assert sketch.track_topk(3).as_dict() == before

    def test_deletions_dethrone_a_destination(self, sketch):
        for source in range(200):
            sketch.insert(source, 7)
        for source in range(100):
            sketch.insert(5000 + source, 8)
        assert sketch.track_topk(1).destinations == [7]
        for source in range(200):
            sketch.delete(source, 7)
        assert sketch.track_topk(1).destinations == [8]
        sketch.check_invariants()

    def test_empty_sketch(self, sketch):
        result = sketch.track_topk(4)
        assert len(result) == 0

    def test_rejects_bad_k(self, sketch):
        with pytest.raises(ParameterError):
            sketch.track_topk(0)

    def test_fully_drained_sketch_returns_empty(self, sketch):
        for source in range(50):
            sketch.insert(source, 3)
        for source in range(50):
            sketch.delete(source, 3)
        assert len(sketch.track_topk(2)) == 0
        sketch.check_invariants()


class TestTrackThreshold:
    def test_reports_above_tau(self, sketch):
        for source in range(400):
            sketch.insert(source, 7)
        for source in range(10):
            sketch.insert(9000 + source, 8)
        result = sketch.track_threshold(50)
        assert 7 in result.destinations
        assert 8 not in result.destinations

    def test_heap_restored_after_threshold_query(self, sketch):
        for source in range(300):
            sketch.insert(source, 7)
        sketch.track_threshold(10)
        sketch.check_invariants()

    def test_threshold_query_leaves_heap_layout(self, domain):
        sketch = TrackingDistinctCountSketch(domain, seed=20)
        sketch.process_stream(random_stream(600, seed=21, dests=10))
        layouts = [heap.items() for heap in sketch._dest_heaps]
        assert len(sketch.track_threshold(16)) > 1
        assert [heap.items() for heap in sketch._dest_heaps] == layouts

    def test_rejects_bad_tau(self, sketch):
        with pytest.raises(ParameterError):
            sketch.track_threshold(0)

    def test_agrees_with_basic_threshold_query(self, domain):
        sketch = TrackingDistinctCountSketch(domain, seed=20)
        for update in random_stream(600, seed=21, dests=10):
            sketch.process(update)
        tracked = sketch.track_threshold(16).as_dict()
        base = sketch.threshold_query(16).as_dict()
        assert tracked == base


class TestMergeAndCopy:
    def test_merge_rebuilds_tracking_state(self, domain):
        left = TrackingDistinctCountSketch(domain, seed=14)
        right = TrackingDistinctCountSketch(domain, seed=14)
        for source in range(100):
            left.insert(source, 1)
        for source in range(100, 250):
            right.insert(source, 2)
        left.merge(right)
        left.check_invariants()
        combined = left.track_topk(2).as_dict()
        assert set(combined) == {1, 2}

    def test_merge_matches_direct_processing(self, domain):
        streams = [random_stream(150, seed=s) for s in (31, 32, 33)]
        direct = TrackingDistinctCountSketch(domain, seed=15)
        for stream in streams:
            direct.process_stream(stream)
        merged = TrackingDistinctCountSketch(domain, seed=15)
        for stream in streams:
            part = TrackingDistinctCountSketch(domain, seed=15)
            part.process_stream(stream)
            merged.merge(part)
        assert merged.structurally_equal(direct)
        assert merged.track_topk(5).as_dict() == (
            direct.track_topk(5).as_dict()
        )

    def test_copy_preserves_tracked_state(self, sketch):
        for source in range(120):
            sketch.insert(source, 4)
        clone = sketch.copy()
        clone.check_invariants()
        assert clone.track_topk(1).as_dict() == (
            sketch.track_topk(1).as_dict()
        )
        clone.insert(999, 5)
        assert sketch.updates_processed == 120


class TestHeapFrequencyAccessor:
    def test_frequency_zero_for_unknown(self, sketch):
        assert sketch.heap_frequency(0, 12345) == 0

    def test_frequency_counts_cumulative_sample(self, sketch, domain):
        sketch.insert(1, 7)
        level = sketch.level_of(1, 7)
        # Level 0's heap sees everything above it.
        assert sketch.heap_frequency(0, 7) == 1
        assert sketch.heap_frequency(level, 7) == 1
