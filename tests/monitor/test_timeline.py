"""Tests for monitoring timelines."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.monitor import MonitorTimeline
from repro.sketch import TrackingDistinctCountSketch
from repro.types import AddressDomain, FlowUpdate


@pytest.fixture
def timeline():
    sketch = TrackingDistinctCountSketch(AddressDomain(2 ** 16), seed=1)
    return MonitorTimeline(sketch, k=5, snapshot_interval=100,
                           capacity=50)


def flood(dest, count, base=0):
    return [FlowUpdate(base + i, dest, +1) for i in range(count)]


class TestCapture:
    def test_snapshots_on_interval(self, timeline):
        timeline.observe_stream(flood(7, 550))
        # 550 / 100 -> 5 automatic snapshots.
        assert len(timeline) == 5
        assert timeline.snapshots[-1].position == 500

    def test_manual_capture(self, timeline):
        timeline.observe_stream(flood(7, 50))
        snapshot = timeline.capture()
        assert snapshot.position == 50
        assert len(timeline) == 1

    def test_capacity_evicts_oldest(self):
        sketch = TrackingDistinctCountSketch(AddressDomain(2 ** 16),
                                             seed=2)
        timeline = MonitorTimeline(sketch, snapshot_interval=10,
                                   capacity=3)
        timeline.observe_stream(flood(7, 100))
        assert len(timeline) == 3
        assert timeline.snapshots[0].position == 80


class TestObserveStream:
    @pytest.mark.parametrize("interval", [1, 30, 100])
    def test_stream_equals_per_update(self, interval):
        updates = flood(7, 250) + flood(8, 120, base=500)
        updates += [update.inverted() for update in updates[:180]]

        def fresh():
            sketch = TrackingDistinctCountSketch(AddressDomain(2 ** 16),
                                                 seed=4)
            return MonitorTimeline(sketch, k=3, snapshot_interval=interval)

        looped = fresh()
        for update in updates:
            looped.observe(update)
        streamed = fresh()
        # Two pieces, the first ending mid-interval.
        assert streamed.observe_stream(iter(updates[:77])) == 77
        assert streamed.observe_stream(iter(updates[77:])) == (
            len(updates) - 77
        )
        assert streamed.snapshots == looped.snapshots
        assert streamed.position == looped.position
        assert streamed.sketch.structurally_equal(looped.sketch)


class TestRetrospection:
    def test_series_shows_the_ramp(self, timeline):
        timeline.observe_stream(flood(7, 500))
        series = timeline.series(7)
        positions = [position for position, _ in series]
        estimates = [estimate for _, estimate in series]
        assert positions == [100, 200, 300, 400, 500]
        # The ramp is visible: later estimates generally larger.
        assert estimates[-1] > estimates[0]

    def test_series_zero_when_outside_topk(self, timeline):
        timeline.observe_stream(flood(7, 200))
        assert all(estimate == 0
                   for _, estimate in timeline.series(999))

    def test_first_exceeding(self, timeline):
        timeline.observe_stream(flood(7, 500))
        position = timeline.first_exceeding(7, 150)
        assert position is not None
        # Before that snapshot, the estimate was below the level.
        for snapshot in timeline.snapshots:
            if snapshot.position < position:
                assert snapshot.estimates.get(7, 0) < 150

    def test_first_exceeding_never(self, timeline):
        timeline.observe_stream(flood(7, 200))
        assert timeline.first_exceeding(7, 10 ** 9) is None

    def test_peak_after_rise_and_fall(self, timeline):
        timeline.observe_stream(flood(7, 400))
        timeline.observe_stream(
            [FlowUpdate(i, 7, -1) for i in range(400)]
        )
        position, estimate = timeline.peak(7)
        assert position is not None
        assert estimate > 0
        # The final snapshot shows the teardown.
        assert timeline.snapshots[-1].estimates.get(7, 0) < estimate

    def test_snapshot_at(self, timeline):
        timeline.observe_stream(flood(7, 350))
        snapshot = timeline.snapshot_at(250)
        assert snapshot is not None
        assert snapshot.position == 200
        assert timeline.snapshot_at(50) is None


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(k=0), dict(snapshot_interval=0), dict(capacity=0)],
    )
    def test_rejects_bad_parameters(self, kwargs):
        sketch = TrackingDistinctCountSketch(AddressDomain(2 ** 16),
                                             seed=3)
        with pytest.raises(ParameterError):
            MonitorTimeline(sketch, **kwargs)

    def test_rejects_bad_level(self, timeline):
        with pytest.raises(ParameterError):
            timeline.first_exceeding(1, 0)
