"""Sliding-window detection: exact windows by subtract-merge.

A window built by rotating whole epoch sketches only moves at epoch
granularity: an attack shorter than an epoch — or one straddling an
epoch boundary — can be diluted or seen late.  Approximate
sliding-window schemes (Memento's heavy-hitter windows, ALBUS's burst
monitoring) exist precisely because most sketches cannot *remove*
expired updates.  Ours can: the Distinct-Count Sketch is
a linear transform of the update stream (Section 3), so the sketch of
the expired sub-stream can be merged out with −1 multiplicity and the
remaining state is bit-for-bit the sketch of the surviving updates.

:class:`SlidingWindowSketch` exploits that.  It slices the stream into
*sub-epochs* of ``subepoch_length`` updates and keeps

* one running, tracked **window sum**, the only sketch updates feed, and
* a ring of the most recent closed sub-epochs, each held as one **delta
  run**: the ``(keys, rows)`` counter rows the sum gained during that
  sub-epoch (:meth:`~repro.sketch.DistinctCountSketch.drain_deltas`).

Crossing a sub-epoch boundary drains the sum's deltas into the ring
and, once a run ages past ``window_subepochs``, folds the negated run
into the sum (:meth:`~repro.sketch.DistinctCountSketch.
apply_bucket_deltas`).  The sum is at every instant exactly the sketch
of the last ``window_subepochs`` sub-epochs (the open one included) —
not an approximation of it — so every paper guarantee applies verbatim
to the windowed estimates.  See ``docs/windowing.md`` for the model end
to end.

Runs and the sum share one seed and shape: expiry, like merging, is
only exact between contributions drawn from the same hash functions.
"""

from __future__ import annotations

import shutil
from collections import deque
from pathlib import Path
from typing import Any, Deque, Iterable, List, NamedTuple, Optional, Union

from ..exceptions import ParameterError
from ..obs.catalog import (
    MONITOR_WINDOW_ADVANCE_DURATION,
    MONITOR_WINDOW_ADVANCES,
    MONITOR_WINDOW_EXPIRATIONS,
    MONITOR_WINDOW_LIVE_SUBEPOCHS,
)
from ..obs.registry import Registry, registry_or_null
from ..obs.trace import span as trace_span
from ..resilience.durable import DurableSketch
from ..sketch import HashedBatch, TrackingDistinctCountSketch
from ..sketch.estimate import TopKResult
from ..types import AddressDomain, FlowUpdate, cut_stream
from .threshold import CrossingWatch

_SLOT_PREFIX = "slot-"

#: Model bytes per counter of a ring run (the sketch's own default).
_COUNTER_BYTES = 4


class _Run(NamedTuple):
    """One closed sub-epoch: its counter delta rows and update counts."""

    keys: Any
    rows: Any
    updates: int
    net: int


class SlidingWindowSketch:
    """An exact sliding window over the last ``W`` updates.

    The window covers ``window_subepochs`` sub-epochs of
    ``subepoch_length`` updates each: the open sub-epoch plus the
    ``window_subepochs - 1`` most recent closed ones, i.e. between
    ``(window_subepochs - 1) * subepoch_length`` and
    ``window_subepochs * subepoch_length`` trailing updates depending
    on the position within the open sub-epoch.  Queries read the
    running sum's tracked state (``track_topk`` / ``track_threshold``),
    so estimates react to new traffic immediately and shed expired
    traffic within one sub-epoch — the detection-latency contract
    ``docs/windowing.md`` derives.

    Args:
        domain: address domain.
        subepoch_length: updates per sub-epoch (the window granularity).
        window_subepochs: sub-epochs the window spans, open one included.
        seed: hash seed of the running sum (and of every run drained
            from it).
        r, s: sketch shape.
        backend: storage backend of the running sum (``packed`` buys
            the vectorized fold and the slab's dirty-key drain).
        obs: optional :class:`~repro.obs.Registry` for the window
            instruments (advances, expirations, live sub-epochs,
            advance-duration histogram).
        durable_dir: optional directory; when set, the open sub-epoch
            is also logged through a :class:`~repro.resilience.
            DurableSketch` (WAL + checkpoint) slot under ``slot-<subepoch
            index>``, and a fresh open of the same directory rebuilds
            the ring and the running sum from the surviving slots.

    Example:
        >>> from repro.types import AddressDomain, FlowUpdate
        >>> window = SlidingWindowSketch(AddressDomain(2 ** 16),
        ...                              subepoch_length=100,
        ...                              window_subepochs=4)
        >>> for source in range(250):
        ...     window.observe(FlowUpdate(source, 7, 1))
        >>> window.top_k(1).destinations
        [7]
        >>> for position in range(450):  # spammer goes quiet...
        ...     window.observe(FlowUpdate(position % 3, 8, 1))
        >>> 7 in window.top_k(3).destinations  # ...and ages out
        False
    """

    def __init__(
        self,
        domain: AddressDomain,
        subepoch_length: int,
        window_subepochs: int = 8,
        seed: int = 0,
        r: int = 3,
        s: int = 128,
        backend: str = "packed",
        obs: Optional[Registry] = None,
        durable_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if subepoch_length < 1:
            raise ParameterError(
                f"subepoch_length must be >= 1, got {subepoch_length}"
            )
        if window_subepochs < 1:
            raise ParameterError(
                f"window_subepochs must be >= 1, got {window_subepochs}"
            )
        self.domain = domain
        self.subepoch_length = subepoch_length
        self.window_subepochs = window_subepochs
        self.seed = seed
        self.r = r
        self.s = s
        self.backend = backend
        self.durable_dir = Path(durable_dir) if durable_dir else None
        #: True when construction restored ring state from durable slots.
        self.recovered = False
        self._subepoch_index = 0
        self._updates_in_subepoch = 0
        self._updates_seen = 0
        self._ring: Deque[_Run] = deque()
        self._durable: Optional[DurableSketch] = None
        self.obs: Registry = registry_or_null(obs)
        self._obs_advances = self.obs.counter_from(MONITOR_WINDOW_ADVANCES)
        self._obs_expirations = self.obs.counter_from(
            MONITOR_WINDOW_EXPIRATIONS
        )
        self.obs.gauge_from(MONITOR_WINDOW_LIVE_SUBEPOCHS).watch(
            lambda: len(self._ring) + 1
        )
        # Registered eagerly so the family exports before the first
        # sampled advance span observes into it.
        self.obs.histogram_from(MONITOR_WINDOW_ADVANCE_DURATION)
        # The running window sum; the open sub-epoch is its delta since
        # the last boundary, so it records deltas from the start.
        self._sum = TrackingDistinctCountSketch(
            domain, r=r, s=s, seed=seed, backend=backend
        )
        self._sum.track_deltas()
        #: The sum's (updates_processed, net_total) when the open
        #: sub-epoch began.
        self._opened_at = (0, 0)
        if self.durable_dir is not None and not self._recover():
            self._durable = self._open_slot(self._subepoch_index)

    # -- durable slots -------------------------------------------------------

    def _slot_dir(self, index: int) -> Path:
        assert self.durable_dir is not None
        return self.durable_dir / f"{_SLOT_PREFIX}{index:08d}"

    def _open_slot(self, index: int) -> DurableSketch:
        """Open (or create) the durable slot for sub-epoch ``index``."""
        return DurableSketch(
            self._slot_dir(index),
            self.domain,
            kind="basic",
            seed=self.seed,
            r=self.r,
            s=self.s,
            backend=self.backend,
        )

    def _slot_indices(self) -> List[int]:
        """Sub-epoch indices with a slot directory on disk, sorted."""
        assert self.durable_dir is not None
        if not self.durable_dir.is_dir():
            return []
        indices: List[int] = []
        for entry in self.durable_dir.iterdir():
            name = entry.name
            if entry.is_dir() and name.startswith(_SLOT_PREFIX):
                suffix = name[len(_SLOT_PREFIX):]
                if suffix.isdigit():
                    indices.append(int(suffix))
        indices.sort()
        return indices

    def _recover(self) -> bool:
        """Rebuild ring + running sum from durable slots, if any exist.

        The newest slot on disk becomes the open sub-epoch (its
        :class:`~repro.resilience.DurableSketch` replays the WAL tail,
        so no acknowledged update is lost); older surviving slots within
        the window are merged into the running sum one by one, each
        drained straight back out as its ring run — linearity makes the
        rebuilt sum and ring identical to the ones that were lost.
        Returns False on a fresh directory.
        """
        indices = self._slot_indices()
        if not indices:
            return False
        current_index = indices[-1]
        horizon = current_index - self.window_subepochs + 1
        total = self._sum
        for index in indices:
            if index < horizon:
                # Aged out while we were down; drop the stale slot.
                shutil.rmtree(self._slot_dir(index))
                continue
            if index == current_index:
                continue
            closed = self._open_slot(index)
            closed.close()
            total.merge(closed.sketch)
            keys, rows = total.drain_deltas()
            self._ring.append(
                _Run(
                    keys,
                    rows,
                    closed.sketch.updates_processed,
                    closed.sketch.net_total,
                )
            )
        self._subepoch_index = current_index
        self._opened_at = (total.updates_processed, total.net_total)
        self._durable = self._open_slot(current_index)
        total.merge(self._durable.sketch)
        self._updates_in_subepoch = self._durable.sketch.updates_processed
        self._updates_seen = total.updates_processed
        self.recovered = True
        if self._updates_in_subepoch >= self.subepoch_length:
            # Crashed on the boundary itself: finish the advance now.
            self._updates_in_subepoch = 0
            self._advance()
        return True

    # -- ingestion -----------------------------------------------------------

    def observe(self, update: FlowUpdate) -> None:
        """Feed one update to the running sum."""
        if self._durable is not None:
            self._durable.process(update)
        self._sum.process(update)
        self._tally(1)

    def observe_batch(self, updates: Iterable[FlowUpdate]) -> int:
        """Feed a batch, cutting it at sub-epoch boundaries.

        Each chunk rides the running sum's batched ingestion path.
        Returns the update count.
        """
        total = 0
        for chunk in cut_stream(
            updates, self.subepoch_length, self._updates_in_subepoch
        ):
            if self._durable is not None:
                self._durable.update_batch(chunk)
            total += self._sum.update_batch(chunk)
            self._tally(len(chunk))
        return total

    def observe_stream(self, updates: Iterable[FlowUpdate]) -> int:
        """Feed a whole stream through :meth:`observe_batch`; returns
        the update count."""
        return self.observe_batch(updates)

    # linear: the open run grows by exact integer addition (RL013)
    def observe_hashed(
        self, updates: List[FlowUpdate], batch: HashedBatch
    ) -> int:
        """Feed a chunk that another sketch already encoded and hashed.

        ``batch`` is ``updates`` as :meth:`~repro.sketch.
        DistinctCountSketch.hash_encoded` returned it; the running sum
        folds its blocks as they are when the hashing sketch shares the
        sum's shape and seed, and hashes for itself otherwise
        (:meth:`~repro.sketch.DistinctCountSketch.apply_hashed`).  Pair
        codes of another address domain name other pairs, so then the
        sum encodes ``updates`` itself.  The chunk must fit in the open
        sub-epoch (:attr:`open_updates` tells where it ends): a block
        cannot be split at a boundary.  Returns the update count.

        Raises:
            ParameterError: when ``batch`` does not hold ``updates``, or
                the chunk crosses a sub-epoch boundary.
        """
        count = len(updates)
        if len(batch.codes) != count:
            raise ParameterError(
                f"hashed batch of {len(batch.codes)} updates does not "
                f"match a chunk of {count}"
            )
        if self._updates_in_subepoch + count > self.subepoch_length:
            raise ParameterError(
                f"a chunk of {count} updates crosses the sub-epoch "
                f"boundary {self.subepoch_length - self._updates_in_subepoch}"
                " updates ahead"
            )
        if self._durable is not None:
            self._durable.update_batch(updates)
        if batch.params.domain == self.domain:
            self._sum.apply_hashed(batch)
        else:
            self._sum.update_batch(updates)
        self._tally(count)
        return count

    def _tally(self, count: int) -> None:
        """Count ``count`` ingested updates; advance on a boundary."""
        self._updates_seen += count
        self._updates_in_subepoch += count
        if self._updates_in_subepoch >= self.subepoch_length:
            self._updates_in_subepoch = 0
            self._advance()

    def _advance(self) -> None:  # hot-path
        """Close the open sub-epoch; expire anything past the horizon."""
        with trace_span(
            "monitor.window_advance", metric=MONITOR_WINDOW_ADVANCE_DURATION
        ):
            if self._durable is not None:
                self._durable.checkpoint()
                self._durable.close()
                self._durable = None
            total = self._sum
            keys, rows = total.drain_deltas()
            updates, net = self._opened_at
            self._ring.append(
                _Run(
                    keys,
                    rows,
                    total.updates_processed - updates,
                    total.net_total - net,
                )
            )
            while len(self._ring) > self.window_subepochs - 1:
                self._expire(self._ring.popleft())
                self._obs_expirations.inc()
                if self.durable_dir is not None:
                    expired_index = (
                        self._subepoch_index - self.window_subepochs + 1
                    )
                    expired_dir = self._slot_dir(expired_index)
                    if expired_dir.is_dir():
                        shutil.rmtree(expired_dir)
            # The expiry folds belong to no sub-epoch: the next run
            # counts from here.
            total.reset_deltas()
            self._opened_at = (total.updates_processed, total.net_total)
            self._subepoch_index += 1
            if self.durable_dir is not None:
                self._durable = self._open_slot(self._subepoch_index)
            self._obs_advances.inc()

    # linear: expiry is the exact −1-multiplicity fold (RL013)
    def _expire(self, run: _Run) -> None:  # hot-path
        """Fold an expired run out of the sum: the sum becomes the exact
        sketch of the surviving in-window updates."""
        total = self._sum
        rows = run.rows
        # The run leaves the ring here: negate its rows in place.
        rows *= -1
        total.apply_bucket_deltas(run.keys, rows)
        total.updates_processed -= run.updates
        total.net_total -= run.net

    # -- queries -------------------------------------------------------------

    @property
    def window_sum(self) -> TrackingDistinctCountSketch:
        """The running sum: exactly the sketch of the in-window updates."""
        return self._sum

    def top_k(self, k: int) -> TopKResult:
        """Top-k destinations over the current window (TrackTopk).

        The same answer ``window_sum.base_topk(k)`` decodes.
        """
        return self._sum.track_topk(k)

    def threshold(self, tau: int) -> TopKResult:
        """All destinations with windowed estimate ``>= tau``.

        The same answer ``window_sum.threshold_query(tau)`` decodes.
        """
        return self._sum.track_threshold(tau)

    @property
    def updates_seen(self) -> int:
        """Total updates fed since construction (or recovery point)."""
        return self._updates_seen

    @property
    def in_window_updates(self) -> int:
        """Updates currently inside the window (sum's net bookkeeping)."""
        return self._sum.updates_processed

    @property
    def open_updates(self) -> int:
        """Updates fed to the open sub-epoch so far."""
        return self._updates_in_subepoch

    @property
    def subepoch_index(self) -> int:
        """Index of the open sub-epoch (0-based)."""
        return self._subepoch_index

    @property
    def live_subepochs(self) -> int:
        """Ring occupancy including the open sub-epoch."""
        return len(self._ring) + 1

    def space_bytes(self) -> int:
        """Combined model space: the running sum plus the ring's runs
        (4 bytes per run counter, the sketch's own accounting)."""
        total = self._sum.space_bytes()
        for run in self._ring:
            total += _COUNTER_BYTES * run.rows.size
        return total

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Checkpoint and release the open durable slot, if any."""
        if self._durable is not None:
            self._durable.checkpoint()
            self._durable.close()
            self._durable = None

    def __enter__(self) -> "SlidingWindowSketch":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SlidingWindowSketch(subepoch={self._subepoch_index}, "
            f"live={self.live_subepochs}, "
            f"subepoch_length={self.subepoch_length}, "
            f"window_subepochs={self.window_subepochs})"
        )


class WindowedThresholdWatch(CrossingWatch):
    """Crossing detection over a :class:`SlidingWindowSketch`.

    The windowed counterpart of
    :class:`~repro.monitor.ThresholdWatch`: the same crossing loop
    (:class:`~repro.monitor.threshold.CrossingWatch`), polling the
    exact window instead of one ever-growing tracking sketch, so a
    burst is flagged while it is inside the window and the alarm clears
    once it ages out, regardless of where the burst falls relative to
    sub-epoch boundaries.

    Args:
        engine: the window to feed and poll.
        tau: the frequency threshold.
        check_interval: poll the window every this many updates.
        obs: optional :class:`~repro.obs.Registry`; crossings export as
            ``repro_monitor_threshold_crossings_total{direction=...}``.
    """

    def __init__(
        self,
        engine: SlidingWindowSketch,
        tau: int,
        check_interval: int = 1000,
        obs: Optional[Registry] = None,
    ) -> None:
        super().__init__(tau, check_interval, obs)
        self.engine = engine

    def _feed(self, update: FlowUpdate) -> None:
        self.engine.observe(update)

    def _feed_batch(self, updates: List[FlowUpdate]) -> None:
        self.engine.observe_batch(updates)

    def _threshold(self) -> TopKResult:
        return self.engine.threshold(self.tau)
