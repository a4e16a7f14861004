"""The DDoS MONITOR facade (Figure 1).

Ties together the tracking sketch, the baseline profile, and alarm
generation.  Operationally:

1. every incoming flow update is fed to the Tracking-DCS (O(r log^2 m));
2. every ``check_interval`` updates, the monitor runs ``TrackTopk``
   (O(k log m)) and scores each reported destination against its
   baseline profile;
3. destinations whose estimated half-open distinct-source frequency is
   ``warning_ratio`` (resp. ``critical_ratio``) times their baseline —
   and above an absolute floor — raise alarms.

Because the sketch *deletes* legitimised flows, a flash crowd of
handshake-completing clients never accumulates frequency and never
alarms; a spoofed SYN flood does.  That discrimination is the paper's
robustness claim and is covered by integration tests and bench E7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..exceptions import ParameterError
from ..obs.catalog import (
    MONITOR_ALARMS,
    MONITOR_CHECK_ALARMS,
    MONITOR_CHECKS,
    MONITOR_UPDATES,
)
from ..obs.registry import Registry, registry_or_null
from ..obs.trace import span as trace_span
from ..sketch import TrackingDistinctCountSketch
from ..sketch.dcs import encode_batch
from ..sketch.estimate import TopKResult
from ..types import AddressDomain, FlowUpdate, cut_stream
from .alarms import Alarm, AlarmSeverity, AlarmSink
from .profile import ActivityProfile
from .window import SlidingWindowSketch


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables of the monitor.

    Attributes:
        k: how many top destinations each poll inspects.
        check_interval: run a tracking query every this many updates.
        warning_ratio: estimate/baseline ratio raising a WARNING.
        critical_ratio: estimate/baseline ratio raising a CRITICAL.
        absolute_floor: ignore destinations whose estimate is below
            this, however anomalous relative to baseline (tiny servers
            crossing a tiny baseline are not DDoS victims).
    """

    k: int = 10
    check_interval: int = 1000
    warning_ratio: float = 10.0
    critical_ratio: float = 50.0
    absolute_floor: int = 100

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.check_interval < 1:
            raise ParameterError(
                f"check_interval must be >= 1, got {self.check_interval}"
            )
        if self.warning_ratio <= 1.0:
            raise ParameterError(
                f"warning_ratio must exceed 1, got {self.warning_ratio}"
            )
        if self.critical_ratio < self.warning_ratio:
            raise ParameterError(
                "critical_ratio must be >= warning_ratio"
            )
        if self.absolute_floor < 0:
            raise ParameterError("absolute_floor must be >= 0")


class DDoSMonitor:
    """Real-time detector of top distinct-source frequency destinations.

    Args:
        domain: address domain of the monitored network.
        config: monitor tunables (defaults are sensible for tests).
        profile: baseline activity profile; a fresh all-default profile
            is used if omitted.
        seed: sketch seed.
        r, s: sketch shape (Section 6.1 defaults).
        obs: optional :class:`~repro.obs.Registry`, shared with the
            inner tracking sketch — one registry then exports the whole
            ingest/detect pipeline (see ``docs/observability.md``).
        backend: storage backend of the inner sketch — ``"packed"``
            (the default; batch ingestion and the check-interval
            queries ride the vectorized engine) or ``"reference"``
            (the oracle store; ``docs/performance.md``).
        window: optional :class:`SlidingWindowSketch`.  When set, every
            update also feeds the window and detection passes score the
            *windowed* top-k instead of the all-time one, so alarms
            follow the last ``window_subepochs`` sub-epochs of traffic
            and clear when an attack ages out (``docs/windowing.md``).
            The all-time tracking sketch keeps running for baselines
            and forensics; batches are encoded and hashed once for both
            (:meth:`observe_batch`).

    Example:
        >>> from repro.types import AddressDomain
        >>> monitor = DDoSMonitor(AddressDomain(2 ** 32), seed=3)
        >>> alarms = monitor.observe_stream(
        ...     FlowUpdate(source, 42, 1) for source in range(500))
        >>> monitor.current_top()[0].dest
        42
    """

    def __init__(
        self,
        domain: AddressDomain,
        config: Optional[MonitorConfig] = None,
        profile: Optional[ActivityProfile] = None,
        seed: int = 0,
        r: int = 3,
        s: int = 128,
        obs: Optional[Registry] = None,
        backend: str = "packed",
        window: Optional[SlidingWindowSketch] = None,
    ) -> None:
        self.config = config or MonitorConfig()
        self.profile = profile or ActivityProfile()
        self.sketch = TrackingDistinctCountSketch(
            domain, r=r, s=s, seed=seed, obs=obs, backend=backend
        )
        self.window = window
        self.alarms = AlarmSink()
        self._updates_seen = 0
        self.obs: Registry = registry_or_null(obs)
        self._obs_updates = self.obs.counter_from(MONITOR_UPDATES)
        self._obs_checks = self.obs.counter_from(MONITOR_CHECKS)
        alarms = self.obs.counter_from(MONITOR_ALARMS)
        self._obs_alarms_warning = alarms.labels(severity="warning")
        self._obs_alarms_critical = alarms.labels(severity="critical")
        self._obs_check_alarms = self.obs.histogram_from(MONITOR_CHECK_ALARMS)

    # -- stream ingestion -------------------------------------------------------

    def observe(self, update: FlowUpdate) -> List[Alarm]:
        """Feed one flow update; returns any alarms this update triggered."""
        self.sketch.process(update)
        if self.window is not None:
            self.window.observe(update)
        self._updates_seen += 1
        self._obs_updates.inc()
        if self._updates_seen % self.config.check_interval == 0:
            return self.check_now()
        return []

    def observe_stream(self, updates: Iterable[FlowUpdate]) -> List[Alarm]:
        """Feed a whole stream; returns all alarms raised along the way.

        The stream rides :meth:`observe_batch`, cut at check-interval
        boundaries, so detection passes fire where per-update
        :meth:`observe` calls would fire them.
        """
        return self.observe_batch(updates)

    def observe_batch(self, updates: Iterable[FlowUpdate]) -> List[Alarm]:
        """Feed a batch through the vectorized engine; returns alarms.

        Equivalent to calling :meth:`observe` per update — detection
        passes fire at exactly the same stream positions (every
        ``check_interval`` updates), and the sketch state is
        bit-identical because ``update_batch`` is — but ingestion rides
        :meth:`~repro.sketch.dcs.DistinctCountSketch.update_batch`, so
        both the packed counter scatter and each check's query run
        vectorized.  The batch is cut at check-interval boundaries so
        no detection pass is skipped or displaced; with a window
        attached, also at the window's sub-epoch boundaries, and each
        piece is encoded and hashed once for both sketches
        (:meth:`_ingest_windowed`).
        """
        raised: List[Alarm] = []
        interval = self.config.check_interval
        for chunk in cut_stream(updates, interval, self._updates_seen):
            if self.window is None:
                applied = self.sketch.update_batch(chunk)
            else:
                applied = self._ingest_windowed(chunk)
            self._updates_seen += applied
            self._obs_updates.inc(applied)
            if self._updates_seen % interval == 0:
                raised.extend(self.check_now())
        return raised

    def _ingest_windowed(self, chunk: List[FlowUpdate]) -> int:
        """One encode and one hash per piece, folded into both sketches.

        The chunk is cut at the window's sub-epoch boundaries, so each
        piece's hashed blocks lie inside one sub-epoch; the all-time
        sketch folds them, then the window sum folds the same blocks
        (:meth:`SlidingWindowSketch.observe_hashed`), or hashes for
        itself when its shape or seed differs.  The ``sketch.
        update_batch`` span covers the encode, as on the one-sketch
        path.  Returns the number of updates applied.
        """
        window = self.window
        assert window is not None
        sketch = self.sketch
        applied = 0
        for piece in cut_stream(
            chunk, window.subepoch_length, window.open_updates
        ):
            with trace_span("sketch.update_batch"):
                codes, deltas = encode_batch(sketch.domain, piece)
                batch = sketch.hash_encoded(codes, deltas)
                applied += sketch.apply_hashed(batch)
            window.observe_hashed(piece, batch)
        return applied

    # -- detection ---------------------------------------------------------------

    def current_top(self) -> TopKResult:
        """The current approximate top-k (does not run alarm checks).

        With a :class:`SlidingWindowSketch` attached this is the
        *windowed* top-k; otherwise the all-time tracked top-k.
        """
        if self.window is not None:
            return self.window.top_k(self.config.k)
        return self.sketch.track_topk(self.config.k)

    def check_now(self) -> List[Alarm]:
        """Run one detection pass immediately; returns accepted alarms."""
        self._obs_checks.inc()
        result = self.current_top()
        accepted: List[Alarm] = []
        for entry in result:
            if entry.estimate < self.config.absolute_floor:
                continue
            baseline = self.profile.baseline(entry.dest)
            ratio = self.profile.anomaly_score(entry.dest, entry.estimate)
            if ratio >= self.config.critical_ratio:
                severity = AlarmSeverity.CRITICAL
            elif ratio >= self.config.warning_ratio:
                severity = AlarmSeverity.WARNING
            else:
                continue
            alarm = Alarm(
                dest=entry.dest,
                estimated_frequency=entry.estimate,
                baseline_frequency=baseline,
                severity=severity,
                updates_seen=self._updates_seen,
            )
            if self.alarms.offer(alarm):
                accepted.append(alarm)
                if severity is AlarmSeverity.CRITICAL:
                    self._obs_alarms_critical.inc()
                else:
                    self._obs_alarms_warning.inc()
        self._obs_check_alarms.observe(len(accepted))
        return accepted

    # -- profiling ---------------------------------------------------------------

    def learn_baseline(self) -> None:
        """Fold the sketch's current top-k view into the baseline profile.

        Call this during known-clean periods ("longer periods of time",
        Section 2) so that habitual heavy hitters — busy mail servers,
        popular sites — stop looking anomalous.  Always reads the
        all-time tracking sketch: baselines describe long-run behaviour,
        which a sliding window by design forgets.
        """
        snapshot = {
            entry.dest: entry.estimate
            for entry in self.sketch.track_topk(self.config.k)
        }
        self.profile.learn(snapshot)

    @property
    def updates_seen(self) -> int:
        """Number of flow updates processed so far."""
        return self._updates_seen

    def __repr__(self) -> str:
        return (
            f"DDoSMonitor(updates={self._updates_seen}, "
            f"alarms={len(self.alarms)})"
        )
