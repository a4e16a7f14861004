"""Poll-boundary regressions: the straddling artifacts, pinned.

The bugfix sweep for the windowing work audited
:class:`~repro.monitor.ThresholdWatch` for off-by-one behaviour at poll
boundaries; these tests pin the arithmetic so it stays correct.  The
last test pins that a threshold watch over the sliding window does not
flap around sub-epoch boundaries — the epoch-rotation baseline in
``benchmarks/bench_window_latency.py`` does, on the same stream, which
is the behaviour gap ``docs/windowing.md`` explains.
"""

from __future__ import annotations

import pytest

from repro.monitor import (
    SlidingWindowSketch,
    ThresholdWatch,
    WindowedThresholdWatch,
)
from repro.types import AddressDomain, FlowUpdate


@pytest.fixture
def domain() -> AddressDomain:
    return AddressDomain(2 ** 16)


def distinct_flood(dest: int, count: int, start: int = 0):
    """``count`` updates at ``dest``, each from a distinct source."""
    return (
        FlowUpdate(source, dest, 1)
        for source in range(start, start + count)
    )


class TestThresholdWatchBoundaries:
    def test_poll_fires_exactly_on_interval(self, domain) -> None:
        watch = ThresholdWatch(domain, tau=5, check_interval=10)
        events = []
        for source in range(9):
            events.extend(watch.observe(FlowUpdate(source, 3, 1)))
        assert events == []  # 9 updates: the 10th triggers the poll
        events.extend(watch.observe(FlowUpdate(9, 3, 1)))
        assert [e.dest for e in events] == [3]
        assert events[0].updates_seen == 10

    def test_crossing_exactly_at_tau_is_reported(self, domain) -> None:
        """f_v >= tau is inclusive: estimate == tau crosses."""
        watch = ThresholdWatch(domain, tau=10, check_interval=10)
        events = watch.observe_stream(distinct_flood(3, 10))
        assert [e.dest for e in events] == [3]


class TestBoundaryFlap:
    """A steady heavy hitter: the window does not flap."""

    def test_window_does_not_flap(self, domain) -> None:
        # Minimum coverage 150 > tau at sub-epoch granularity: the
        # windowed estimate never dips below threshold, so the only
        # event stream is the single initial up-crossing.
        window = SlidingWindowSketch(
            domain, subepoch_length=50, window_subepochs=4, seed=9
        )
        watch = WindowedThresholdWatch(window, tau=120, check_interval=10)
        watch.observe_stream(distinct_flood(9, 400))
        events = [e for e in watch.events if e.dest == 9]
        assert [e.above for e in events] == [True]
