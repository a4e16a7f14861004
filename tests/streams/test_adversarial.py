"""Tests for adversarial workloads and sketch behaviour under them."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.sketch import SketchParams, TrackingDistinctCountSketch
from repro.streams import (
    ChurnStorm,
    RankFlipper,
    SingleVictimStorm,
    UniformSpray,
    true_frequencies,
)
from repro.types import AddressDomain

DOMAIN = AddressDomain(2 ** 32)


def build_sketch(seed=1):
    sketch = TrackingDistinctCountSketch(DOMAIN, seed=seed)
    sketch.track_topk(1)  # empty: every level tracked
    return sketch


class TestSingleVictimStorm:
    def test_ground_truth(self):
        storm = SingleVictimStorm(dest=7, sources=500, seed=1)
        assert true_frequencies(list(storm)) == storm.frequencies()
        assert len(storm) == 500

    def test_sketch_nails_the_victim(self):
        storm = SingleVictimStorm(dest=7, sources=2000, seed=2)
        sketch = build_sketch()
        sketch.process_stream(storm)
        result = sketch.track_topk(1)
        assert result.destinations == [7]
        estimate = result.entries[0].estimate
        assert 1000 <= estimate <= 4000
        sketch.check_invariants()

    def test_rejects_bad_sources(self):
        with pytest.raises(ParameterError):
            SingleVictimStorm(dest=1, sources=0)


class TestUniformSpray:
    def test_every_frequency_is_one(self):
        spray = UniformSpray(pairs=300, seed=3)
        frequencies = true_frequencies(list(spray))
        assert set(frequencies.values()) == {1}
        assert len(frequencies) == 300

    def test_sketch_reports_no_inflated_estimates(self):
        spray = UniformSpray(pairs=3000, seed=4)
        sketch = build_sketch(seed=5)
        sketch.process_stream(spray)
        result = sketch.track_topk(5)
        # No destination should be estimated far above its true 1;
        # estimates are quantized to the sampling scale, so the bound
        # is one sample unit.
        for entry in result:
            assert entry.sample_frequency == 1
            assert entry.estimate <= result.scale
        sketch.check_invariants()

    def test_rejects_bad_pairs(self):
        with pytest.raises(ParameterError):
            UniformSpray(pairs=0)


class TestChurnStorm:
    def test_net_state_equals_survivors(self):
        storm = ChurnStorm(churn_pairs=200, rounds=3, survivor_dest=9,
                           survivor_sources=100, seed=6)
        assert true_frequencies(list(storm)) == {9: 100}
        assert len(storm) == 100 + 2 * 200 * 3

    def test_sketch_equals_churn_free_sketch(self):
        storm = ChurnStorm(churn_pairs=300, rounds=4, survivor_dest=9,
                           survivor_sources=150, seed=7)
        churned = build_sketch(seed=8)
        churned.process_stream(storm)
        clean = build_sketch(seed=8)
        for source in range(150):
            clean.insert(source, 9)
        assert churned.structurally_equal(clean)
        churned.check_invariants()

    def test_tracking_survives_oscillation(self):
        storm = ChurnStorm(churn_pairs=100, rounds=10, survivor_dest=9,
                           survivor_sources=200, seed=9)
        sketch = build_sketch(seed=10)
        for index, update in enumerate(storm):
            sketch.process(update)
            if index % 500 == 0:
                sketch.track_topk(3)  # queries mid-churn never crash
        sketch.check_invariants()
        assert sketch.track_topk(1).destinations == [9]


class TestRankFlipper:
    def test_final_frequencies(self):
        flipper = RankFlipper(dest_a=1, dest_b=2, flips=10, step=20)
        frequencies = true_frequencies(list(flipper))
        assert frequencies == flipper.frequencies() == {1: 100, 2: 100}

    def test_odd_flips_leave_a_ahead(self):
        flipper = RankFlipper(dest_a=1, dest_b=2, flips=5, step=10)
        assert flipper.frequencies() == {1: 30, 2: 20}

    def test_queries_at_every_phase_are_sane(self):
        flipper = RankFlipper(dest_a=1, dest_b=2, flips=8, step=50)
        sketch = build_sketch(seed=11)
        position = 0
        for update in flipper:
            sketch.process(update)
            position += 1
            if position % 50 == 0:
                result = sketch.track_topk(2)
                # Only the two real destinations ever appear.
                assert set(result.destinations) <= {1, 2}
        sketch.check_invariants()

    def test_rejects_equal_destinations(self):
        with pytest.raises(ParameterError):
            RankFlipper(dest_a=1, dest_b=1)
