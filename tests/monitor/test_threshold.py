"""Tests for the threshold-tracking watch."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.monitor import ThresholdWatch
from repro.types import AddressDomain, FlowUpdate


@pytest.fixture
def domain() -> AddressDomain:
    return AddressDomain(2 ** 16)


class TestCrossing:
    def test_upward_crossing_event(self, domain):
        watch = ThresholdWatch(domain, tau=100, check_interval=50, seed=1)
        events = []
        for source in range(1000):
            events.extend(watch.observe(FlowUpdate(source, 7, +1)))
        ups = [e for e in events if e.above and e.dest == 7]
        assert len(ups) == 1
        assert ups[0].estimate >= 100

    def test_downward_crossing_after_deletions(self, domain):
        watch = ThresholdWatch(domain, tau=100, check_interval=50, seed=2)
        for source in range(800):
            watch.observe(FlowUpdate(source, 7, +1))
        events = []
        for source in range(800):
            events.extend(watch.observe(FlowUpdate(source, 7, -1)))
        downs = [e for e in events if not e.above and e.dest == 7]
        assert len(downs) == 1

    def test_no_events_below_threshold(self, domain):
        watch = ThresholdWatch(domain, tau=10 ** 6, check_interval=10,
                               seed=3)
        events = watch.observe_stream(
            FlowUpdate(source, 7, +1) for source in range(500)
        )
        assert events == []

    def test_above_threshold_listing(self, domain):
        watch = ThresholdWatch(domain, tau=50, check_interval=100, seed=4)
        for source in range(600):
            watch.observe(FlowUpdate(source, 7, +1))
        listing = dict(watch.above_threshold())
        assert 7 in listing

    def test_events_accumulate(self, domain):
        watch = ThresholdWatch(domain, tau=100, check_interval=50, seed=5)
        for source in range(500):
            watch.observe(FlowUpdate(source, 7, +1))
        watch.poll()
        assert len(watch.events) >= 1

    def test_poll_is_idempotent_without_changes(self, domain):
        watch = ThresholdWatch(domain, tau=100, check_interval=10 ** 9,
                               seed=6)
        for source in range(500):
            watch.observe(FlowUpdate(source, 7, +1))
        first = watch.poll()
        second = watch.poll()
        assert len(first) == 1
        assert second == []


def rise_and_fall(dests=(7, 8), sources=400):
    """Distinct-source floods that later drain through deletions."""
    rises = [
        FlowUpdate(source, dest, +1)
        for source in range(sources)
        for dest in dests
    ]
    return rises + [update.inverted() for update in rises]


class TestObserveStream:
    """observe_stream (the batch path) equals a per-update loop."""

    @pytest.mark.parametrize("check_interval", [1, 37, 400])
    def test_stream_equals_per_update(self, domain, check_interval):
        updates = rise_and_fall()
        looped = ThresholdWatch(domain, tau=100,
                                check_interval=check_interval, seed=8)
        expected = []
        for update in updates:
            expected.extend(looped.observe(update))
        streamed = ThresholdWatch(domain, tau=100,
                                  check_interval=check_interval, seed=8)
        # Two pieces, the first ending mid-interval: the cut positions
        # must carry over between calls.
        raised = streamed.observe_stream(iter(updates[:501]))
        raised += streamed.observe_stream(iter(updates[501:]))
        assert raised == expected == streamed.events == looped.events
        assert any(not event.above for event in expected)
        assert streamed.updates_seen == looped.updates_seen
        assert streamed.sketch.structurally_equal(looped.sketch)


class TestValidation:
    def test_rejects_bad_tau(self, domain):
        with pytest.raises(ParameterError):
            ThresholdWatch(domain, tau=0)

    def test_rejects_bad_interval(self, domain):
        with pytest.raises(ParameterError):
            ThresholdWatch(domain, tau=5, check_interval=0)

    def test_updates_seen(self, domain):
        watch = ThresholdWatch(domain, tau=5, seed=7)
        watch.observe_stream(
            FlowUpdate(source, 1, +1) for source in range(20)
        )
        assert watch.updates_seen == 20
