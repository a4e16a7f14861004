"""Threshold tracking: the Section 2 footnote-3 variant.

"Our techniques and results also easily extend to the problem of
tracking all destinations v with f_v >= tau, for some fixed threshold
tau."  :class:`ThresholdWatch` packages that: it maintains a tracking
sketch and reports, on demand or continuously, every destination whose
estimated distinct-source frequency clears ``tau`` — together with
crossing events (a destination newly clearing or dropping below the
threshold), which is the natural alerting interface.  The crossing loop
itself, :class:`CrossingWatch`, is shared with
:class:`~repro.monitor.window.WindowedThresholdWatch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..exceptions import ParameterError
from ..obs.catalog import MONITOR_THRESHOLD_CROSSINGS
from ..obs.recorder import current_recorder
from ..obs.registry import Registry, registry_or_null
from ..sketch import TrackingDistinctCountSketch
from ..sketch.estimate import TopKResult
from ..types import AddressDomain, FlowUpdate, cut_stream


@dataclass(frozen=True)
class CrossingEvent:
    """A destination crossing the threshold, in either direction.

    Attributes:
        dest: the destination address.
        estimate: its frequency estimate at the poll that saw the cross.
        above: True for an upward cross (newly over tau), False for a
            downward cross (dropped below tau — e.g. the flows were
            legitimised by deletions).
        updates_seen: stream position of the poll.
    """

    dest: int
    estimate: int
    above: bool
    updates_seen: int


class CrossingWatch:
    """The crossing loop: poll a synopsis for destinations over ``tau``.

    Every ``check_interval`` updates the watch queries its synopsis for
    all destinations with estimate ``>= tau`` and diffs the answer
    against the previous poll: a destination newly over the threshold
    raises an upward :class:`CrossingEvent` (with its fresh estimate),
    one that vanished raises a downward event (estimate 0 — the query
    no longer reports it).  Events export as
    ``repro_monitor_threshold_crossings_total{direction=...}`` and are
    recorded by the flight recorder.

    Subclasses say what an update feeds and what a poll queries:
    :meth:`_feed` (one update), :meth:`_feed_batch` (a chunk that ends
    at or before the next poll) and :meth:`_threshold`.

    Args:
        tau: the frequency threshold.
        check_interval: poll every this many updates.
        obs: optional :class:`~repro.obs.Registry` for crossing counts.
    """

    def __init__(
        self, tau: int, check_interval: int, obs: Optional[Registry]
    ) -> None:
        if tau < 1:
            raise ParameterError(f"tau must be >= 1, got {tau}")
        if check_interval < 1:
            raise ParameterError(
                f"check_interval must be >= 1, got {check_interval}"
            )
        self.tau = tau
        self.check_interval = check_interval
        self._updates_seen = 0
        self._currently_above: Set[int] = set()
        self._events: List[CrossingEvent] = []
        self.obs: Registry = registry_or_null(obs)
        crossings = self.obs.counter_from(MONITOR_THRESHOLD_CROSSINGS)
        self._obs_cross_up = crossings.labels(direction="up")
        self._obs_cross_down = crossings.labels(direction="down")

    def _feed(self, update: FlowUpdate) -> None:
        raise NotImplementedError

    def _feed_batch(self, updates: List[FlowUpdate]) -> None:
        raise NotImplementedError

    def _threshold(self) -> TopKResult:
        raise NotImplementedError

    def observe(self, update: FlowUpdate) -> List[CrossingEvent]:
        """Feed one update; returns crossing events from a due poll."""
        self._feed(update)
        self._updates_seen += 1
        if self._updates_seen % self.check_interval == 0:
            return self.poll()
        return []

    def observe_stream(
        self, updates: Iterable[FlowUpdate]
    ) -> List[CrossingEvent]:
        """Feed a whole stream; returns all crossing events raised.

        The stream is cut at poll boundaries and fed in batches, so
        polls fire where per-update :meth:`observe` calls fire them.
        """
        raised: List[CrossingEvent] = []
        interval = self.check_interval
        for chunk in cut_stream(updates, interval, self._updates_seen):
            self._feed_batch(chunk)
            self._updates_seen += len(chunk)
            if self._updates_seen % interval == 0:
                raised.extend(self.poll())
        return raised

    def poll(self) -> List[CrossingEvent]:
        """Query the synopsis now and emit crossing events."""
        now_above: Dict[int, int] = self._threshold().as_dict()
        position = self._updates_seen
        events = [
            CrossingEvent(dest, estimate, above=True, updates_seen=position)
            for dest, estimate in now_above.items()
            if dest not in self._currently_above
        ] + [
            CrossingEvent(dest, 0, above=False, updates_seen=position)
            for dest in self._currently_above
            if dest not in now_above
        ]
        self._currently_above = set(now_above)
        self._events.extend(events)
        recorder = current_recorder()
        for event in events:
            if event.above:
                self._obs_cross_up.inc()
            else:
                self._obs_cross_down.inc()
            recorder.record(
                "threshold_crossing",
                dest=event.dest,
                estimate=event.estimate,
                direction="up" if event.above else "down",
                updates_seen=event.updates_seen,
            )
        return events

    def above_threshold(self) -> List[Tuple[int, int]]:
        """Current ``(dest, estimate)`` list over the threshold."""
        return [(entry.dest, entry.estimate) for entry in self._threshold()]

    @property
    def events(self) -> List[CrossingEvent]:
        """All crossing events observed so far."""
        return list(self._events)

    @property
    def updates_seen(self) -> int:
        """Number of flow updates processed so far."""
        return self._updates_seen

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(tau={self.tau}, "
            f"updates={self._updates_seen}, "
            f"above={len(self._currently_above)})"
        )


class ThresholdWatch(CrossingWatch):
    """Continuously track all destinations with ``f_v >= tau``.

    Polls an all-time tracking sketch (``track_threshold``) through
    the :class:`CrossingWatch` loop.

    Args:
        domain: address domain.
        tau: the frequency threshold.
        check_interval: poll the sketch every this many updates.
        seed, r, s: sketch configuration.
        obs: optional :class:`~repro.obs.Registry`, shared with the
            inner tracking sketch; crossing events export as
            ``repro_monitor_threshold_crossings_total{direction=...}``.
    """

    def __init__(
        self,
        domain: AddressDomain,
        tau: int,
        check_interval: int = 1000,
        seed: int = 0,
        r: int = 3,
        s: int = 128,
        obs: Optional[Registry] = None,
    ) -> None:
        super().__init__(tau, check_interval, obs)
        self.sketch = TrackingDistinctCountSketch(
            domain, r=r, s=s, seed=seed, obs=obs
        )

    def _feed(self, update: FlowUpdate) -> None:
        self.sketch.process(update)

    def _feed_batch(self, updates: List[FlowUpdate]) -> None:
        self.sketch.update_batch(updates)

    def _threshold(self) -> TopKResult:
        return self.sketch.track_threshold(self.tau)
