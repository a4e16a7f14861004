"""Cross-variant behaviours: basic/tracking interop and config variants."""

from __future__ import annotations

import pytest

from repro.metrics import UpdateTimer
from repro.sketch import (
    DistinctCountSketch,
    SketchParams,
    TrackingDistinctCountSketch,
)
from repro.types import AddressDomain, FlowUpdate


@pytest.fixture
def domain() -> AddressDomain:
    return AddressDomain(2 ** 16)


class TestBasicTrackingInterop:
    def test_basic_sketch_merges_into_tracking(self, domain):
        # A router running the cheap basic sketch can still ship to a
        # tracking monitor: params/seed equality is all merge needs.
        basic = DistinctCountSketch(domain, seed=5)
        for source in range(120):
            basic.insert(source, 7)
        tracking = TrackingDistinctCountSketch(domain, seed=5)
        tracking.track_topk(1)  # empty: every level tracked
        for source in range(200, 260):
            tracking.insert(source, 8)
        tracking.merge(basic)
        tracking.check_invariants()
        result = tracking.track_topk(2)
        assert set(result.destinations) == {7, 8}

    def test_tracking_base_topk_available(self, domain):
        # The tracking variant still answers via the BaseTopk scan.
        sketch = TrackingDistinctCountSketch(domain, seed=6)
        for source in range(100):
            sketch.insert(source, 3)
        assert sketch.base_topk(1).destinations == [3]

    def test_variants_share_signature_state(self, domain):
        basic = DistinctCountSketch(domain, seed=7)
        tracking = TrackingDistinctCountSketch(domain, seed=7)
        for source in range(150):
            basic.insert(source, source % 4)
            tracking.insert(source, source % 4)
        assert basic.structurally_equal(tracking)


class TestParamsClassmethods:
    def test_pseudocode_faithful_passes_shape_through(self, domain):
        params = SketchParams.pseudocode_faithful(domain, r=2, s=64)
        assert params.r == 2
        assert params.s == 64
        assert params.sample_target_factor == pytest.approx(1 / 16)

    def test_paper_defaults_shape(self, domain):
        params = SketchParams.paper_defaults(domain)
        assert (params.r, params.s) == (3, 128)
        assert params.sample_target_factor == 1.0


class TestUpdateTimerIntervals:
    def test_fractional_frequency_rounds_interval(self):
        queries = []
        timer = UpdateTimer(
            update=lambda update: None,
            query=lambda: queries.append(1),
            query_frequency=0.3,  # interval = round(1/0.3) = 3
        )
        timer.run([FlowUpdate(1, 2, +1)] * 10)
        assert len(queries) == 3

    def test_frequency_one_queries_every_update(self):
        queries = []
        timer = UpdateTimer(
            update=lambda update: None,
            query=lambda: queries.append(1),
            query_frequency=1.0,
        )
        report = timer.run([FlowUpdate(1, 2, +1)] * 5)
        assert report.queries == 5
