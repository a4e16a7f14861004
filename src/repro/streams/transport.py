"""Transport channels: what UDP does to an update stream.

NetFlow export (the paper's suggested feed) rides UDP: records can be
*lost*, *duplicated*, or *reordered* between router and monitor.  Each
imperfection interacts differently with the sketch semantics:

* **reordering** is harmless — the sketch is order-invariant;
* **duplication** inflates a pair's multiplicity: a duplicated insert
  followed by one delete leaves net +1, a phantom half-open flow;
* **loss** is the dangerous one: losing a deletion leaves a legitimate
  flow counted forever (overcount), losing an insertion can drive a
  pair's net count negative (undercount / ill-formed stream).

These channel models are deterministic given their seed, so experiments
can sweep loss rates reproducibly (bench E13); the monitor-facing fix —
forgetting state older than a window, so a lost deletion's phantom
flow eventually expires — is what
:class:`~repro.monitor.SlidingWindowSketch` provides.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Optional, Sequence

from ..exceptions import ParameterError
from ..hashing import derive_seed
from ..obs.catalog import TRANSPORT_REORDERED, TRANSPORT_UPDATES
from ..obs.registry import Registry, registry_or_null
from ..resilience.wal import WriteAheadLog
from ..types import FlowUpdate


class LossyChannel:
    """Drops each update independently with probability ``loss_rate``.

    With an ``obs`` registry attached, delivered and dropped updates
    export under ``repro_transport_updates_total{outcome=...}`` — the
    ingest-throughput counters a scraper differentiates into a rate.
    """

    def __init__(
        self,
        loss_rate: float,
        seed: int = 0,
        obs: Optional[Registry] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ParameterError(
                f"loss_rate must be in [0, 1), got {loss_rate}"
            )
        self.loss_rate = loss_rate
        self.seed = seed
        #: Updates dropped by the most recent transmission.
        self.dropped = 0
        self.obs: Registry = registry_or_null(obs)
        updates = self.obs.counter_from(TRANSPORT_UPDATES)
        self._obs_delivered = updates.labels(outcome="delivered")
        self._obs_dropped = updates.labels(outcome="dropped")

    def transmit(
        self, updates: Iterable[FlowUpdate]
    ) -> Iterator[FlowUpdate]:
        """Yield the updates that survive the channel."""
        rng = random.Random(derive_seed(self.seed, "lossy-channel"))
        self.dropped = 0
        for update in updates:
            if rng.random() < self.loss_rate:
                self.dropped += 1
                self._obs_dropped.inc()
                continue
            self._obs_delivered.inc()
            yield update


class DuplicatingChannel:
    """Re-delivers each update with probability ``duplicate_rate``.

    Duplicates arrive immediately after the original (the common UDP
    retransmit-storm pattern); a duplicated duplicate is possible at
    rate ``duplicate_rate ** 2`` and so on.
    """

    def __init__(
        self,
        duplicate_rate: float,
        seed: int = 0,
        obs: Optional[Registry] = None,
    ) -> None:
        if not 0.0 <= duplicate_rate < 1.0:
            raise ParameterError(
                f"duplicate_rate must be in [0, 1), got {duplicate_rate}"
            )
        self.duplicate_rate = duplicate_rate
        self.seed = seed
        #: Extra copies injected by the most recent transmission.
        self.duplicated = 0
        self.obs: Registry = registry_or_null(obs)
        updates = self.obs.counter_from(TRANSPORT_UPDATES)
        self._obs_delivered = updates.labels(outcome="delivered")
        self._obs_duplicated = updates.labels(outcome="duplicated")

    def transmit(
        self, updates: Iterable[FlowUpdate]
    ) -> Iterator[FlowUpdate]:
        """Yield updates, occasionally more than once."""
        rng = random.Random(derive_seed(self.seed, "duplicating-channel"))
        self.duplicated = 0
        for update in updates:
            self._obs_delivered.inc()
            yield update
            while rng.random() < self.duplicate_rate:
                self.duplicated += 1
                self._obs_duplicated.inc()
                self._obs_delivered.inc()
                yield update


class ReorderingChannel:
    """Shuffles updates within a bounded window (jittered delivery).

    Each update is delayed by a uniformly random number of slots up to
    ``window``; ties preserve the original order.  Models per-packet
    jitter without unbounded displacement.
    """

    def __init__(
        self, window: int, seed: int = 0, obs: Optional[Registry] = None
    ) -> None:
        if window < 0:
            raise ParameterError(f"window must be >= 0, got {window}")
        self.window = window
        self.seed = seed
        #: Updates delivered out of position by the last transmission.
        self.displaced = 0
        self.obs: Registry = registry_or_null(obs)
        updates = self.obs.counter_from(TRANSPORT_UPDATES)
        self._obs_delivered = updates.labels(outcome="delivered")
        self._obs_reordered = self.obs.counter_from(TRANSPORT_REORDERED)

    def transmit(
        self, updates: Sequence[FlowUpdate]
    ) -> List[FlowUpdate]:
        """Return the updates in jittered order."""
        rng = random.Random(derive_seed(self.seed, "reordering-channel"))
        keyed = [
            (index + rng.randint(0, self.window), index, update)
            for index, update in enumerate(updates)
        ]
        keyed.sort(key=lambda item: (item[0], item[1]))
        self.displaced = sum(
            1
            for position, (_, index, _) in enumerate(keyed)
            if index != position
        )
        self._obs_delivered.inc(len(keyed))
        self._obs_reordered.inc(self.displaced)
        return [update for _, _, update in keyed]


class JournalingChannel:
    """A durable tap: every delivered update hits the WAL, then flows on.

    Place this *last* in a channel chain, directly in front of the
    monitor: what the log captures is exactly what the sketch ingested
    (post-loss, post-duplication), so a crash-recovery replay of the
    journal reproduces the sketch bit-for-bit — the recovery identity
    of :mod:`repro.resilience`.  Journaling upstream of a lossy stage
    would instead record updates the sketch never saw.

    Args:
        wal: the :class:`~repro.resilience.wal.WriteAheadLog` to append
            into (owned by the caller — this channel never closes it).
        obs: optional :class:`~repro.obs.Registry`; delivered updates
            count under ``repro_transport_updates_total``.
    """

    def __init__(
        self, wal: WriteAheadLog, obs: Optional[Registry] = None
    ) -> None:
        self.wal = wal
        #: Updates journaled by the most recent transmission.
        self.journaled = 0
        self.obs: Registry = registry_or_null(obs)
        updates = self.obs.counter_from(TRANSPORT_UPDATES)
        self._obs_delivered = updates.labels(outcome="delivered")

    def transmit(
        self, updates: Iterable[FlowUpdate]
    ) -> Iterator[FlowUpdate]:
        """Append each update to the WAL, then yield it downstream."""
        self.journaled = 0
        for update in updates:
            self.wal.append(update)
            self.journaled += 1
            self._obs_delivered.inc()
            yield update


class Channel:
    """A composite channel: loss, duplication, and reordering chained.

    Args:
        loss_rate: per-update drop probability.
        duplicate_rate: per-update duplication probability.
        reorder_window: maximum displacement in delivery order.
        seed: shared seed (each stage derives its own).
        obs: optional :class:`~repro.obs.Registry`.  The composite
            counts each update exactly once per outcome (the inner
            stages are constructed uninstrumented, so chaining does not
            triple-count ``outcome="delivered"``).
    """

    def __init__(
        self,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_window: int = 0,
        seed: int = 0,
        obs: Optional[Registry] = None,
    ) -> None:
        self.lossy = LossyChannel(loss_rate, seed=derive_seed(seed, "loss"))
        self.duplicating = DuplicatingChannel(
            duplicate_rate, seed=derive_seed(seed, "duplicate")
        )
        self.reordering = ReorderingChannel(
            reorder_window, seed=derive_seed(seed, "reorder")
        )
        self.obs: Registry = registry_or_null(obs)
        updates = self.obs.counter_from(TRANSPORT_UPDATES)
        self._obs_delivered = updates.labels(outcome="delivered")
        self._obs_dropped = updates.labels(outcome="dropped")
        self._obs_duplicated = updates.labels(outcome="duplicated")
        self._obs_reordered = self.obs.counter_from(TRANSPORT_REORDERED)

    def transmit(
        self, updates: Sequence[FlowUpdate]
    ) -> List[FlowUpdate]:
        """Apply duplication, then loss, then reordering."""
        duplicated = list(self.duplicating.transmit(updates))
        survived = list(self.lossy.transmit(duplicated))
        delivered = self.reordering.transmit(survived)
        self._obs_delivered.inc(len(delivered))
        self._obs_dropped.inc(self.lossy.dropped)
        self._obs_duplicated.inc(self.duplicating.duplicated)
        self._obs_reordered.inc(self.reordering.displaced)
        return delivered

    @property
    def dropped(self) -> int:
        """Updates dropped in the last transmission."""
        return self.lossy.dropped

    @property
    def duplicated(self) -> int:
        """Extra copies injected in the last transmission."""
        return self.duplicating.duplicated
