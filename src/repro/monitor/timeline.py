"""Monitoring timelines: retrospective views of tracked estimates.

After an incident, operators ask questions the live monitor cannot
answer from current state alone: *when* did the victim's half-open
count start climbing, how fast, and when did mitigation bite?
:class:`MonitorTimeline` records periodic top-k snapshots into a
bounded ring and answers those questions:

* :meth:`series` — one destination's estimate over stream positions;
* :meth:`first_exceeding` — when a destination first crossed a level;
* :meth:`peak` — a destination's maximum observed estimate;
* :meth:`snapshot_at` — the whole top-k view nearest a position.

Space is bounded: ``capacity`` snapshots of ``k`` entries each.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..exceptions import ParameterError
from ..obs.catalog import MONITOR_SNAPSHOTS
from ..obs.registry import Registry, registry_or_null
from ..sketch import TrackingDistinctCountSketch
from ..types import FlowUpdate, cut_stream


@dataclass(frozen=True)
class Snapshot:
    """One recorded top-k view.

    Attributes:
        position: stream position (updates processed) at capture time.
        estimates: ``{dest: estimate}`` of the top-k at that moment.
    """

    position: int
    estimates: Dict[int, int]


class MonitorTimeline:
    """A tracking sketch plus a bounded history of its top-k views.

    Args:
        sketch: the tracking sketch to snapshot (owned by the caller —
            the timeline only reads it).
        k: how many destinations each snapshot records.
        snapshot_interval: capture a snapshot every this many updates.
        capacity: maximum retained snapshots (oldest evicted first).
        obs: optional :class:`~repro.obs.Registry` counting captured
            snapshots (``repro_monitor_snapshots_total``).
    """

    def __init__(
        self,
        sketch: TrackingDistinctCountSketch,
        k: int = 10,
        snapshot_interval: int = 1000,
        capacity: int = 1024,
        obs: Optional[Registry] = None,
    ) -> None:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        if snapshot_interval < 1:
            raise ParameterError(
                f"snapshot_interval must be >= 1, got {snapshot_interval}"
            )
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.sketch = sketch
        self.k = k
        self.snapshot_interval = snapshot_interval
        self.capacity = capacity
        self._snapshots: Deque[Snapshot] = deque(maxlen=capacity)
        self._position = 0
        self.obs: Registry = registry_or_null(obs)
        self._obs_snapshots = self.obs.counter_from(MONITOR_SNAPSHOTS)

    # -- ingestion ---------------------------------------------------------

    def observe(self, update: FlowUpdate) -> Optional[Snapshot]:
        """Feed one update; returns the snapshot if one was captured."""
        self.sketch.process(update)
        self._position += 1
        if self._position % self.snapshot_interval == 0:
            return self.capture()
        return None

    def observe_stream(self, updates: Iterable[FlowUpdate]) -> int:
        """Feed a whole stream; returns the update count.

        The stream is cut at snapshot boundaries and fed through
        ``update_batch``, so snapshots land where per-update
        :meth:`observe` calls would capture them.
        """
        count = 0
        interval = self.snapshot_interval
        for chunk in cut_stream(updates, interval, self._position):
            self.sketch.update_batch(chunk)
            self._position += len(chunk)
            count += len(chunk)
            if self._position % interval == 0:
                self.capture()
        return count

    def capture(self) -> Snapshot:
        """Capture a snapshot now (also called on the interval)."""
        snapshot = Snapshot(
            position=self._position,
            estimates=self.sketch.track_topk(self.k).as_dict(),
        )
        self._snapshots.append(snapshot)
        self._obs_snapshots.inc()
        return snapshot

    # -- retrospective queries ------------------------------------------------

    @property
    def snapshots(self) -> List[Snapshot]:
        """All retained snapshots, oldest first."""
        return list(self._snapshots)

    def series(self, dest: int) -> List[Tuple[int, int]]:
        """``(position, estimate)`` samples for one destination.

        Positions where the destination was outside the recorded top-k
        report an estimate of 0 (it was not distinguishable from noise
        at that capture).
        """
        return [
            (snapshot.position, snapshot.estimates.get(dest, 0))
            for snapshot in self._snapshots
        ]

    def first_exceeding(self, dest: int, level: int) -> Optional[int]:
        """First recorded position where ``dest``'s estimate >= level."""
        if level < 1:
            raise ParameterError(f"level must be >= 1, got {level}")
        for snapshot in self._snapshots:
            if snapshot.estimates.get(dest, 0) >= level:
                return snapshot.position
        return None

    def peak(self, dest: int) -> Tuple[Optional[int], int]:
        """``(position, estimate)`` of the destination's maximum."""
        best_position: Optional[int] = None
        best_estimate = 0
        for snapshot in self._snapshots:
            estimate = snapshot.estimates.get(dest, 0)
            if estimate > best_estimate:
                best_estimate = estimate
                best_position = snapshot.position
        return best_position, best_estimate

    def snapshot_at(self, position: int) -> Optional[Snapshot]:
        """The retained snapshot nearest (at or before) ``position``."""
        candidate: Optional[Snapshot] = None
        for snapshot in self._snapshots:
            if snapshot.position <= position:
                candidate = snapshot
            else:
                break
        return candidate

    @property
    def position(self) -> int:
        """Updates processed so far."""
        return self._position

    def __len__(self) -> int:
        return len(self._snapshots)

    def __repr__(self) -> str:
        return (
            f"MonitorTimeline(position={self._position}, "
            f"snapshots={len(self._snapshots)})"
        )
