"""The Tracking Distinct-Count Sketch and TrackTopk (Section 5).

A Tracking-DCS augments the basic sketch with, per first-level bucket
``b`` (Figure 5):

1. ``singletons(b)`` — the current set of pairs that are a singleton in
   at least one of the level's ``r`` inner tables, each with a count of
   how many tables it is a singleton in (:class:`SingletonSet`);
2. ``numSingletons(b)`` — the size of that set; and
3. ``topDestHeap(b)`` — a max-heap over destinations keyed by their
   occurrence frequency in the distinct sample drawn from levels
   ``>= b`` (:class:`~repro.sketch.heap.IndexedMaxHeap`).

``TrackTopk`` (Figure 7) answers a top-k query in ``O(k log m)`` by
walking ``numSingletons`` counters top-down to the stopping level and
reading that level's heap; it reads no level below the stop.  So the
sketch keeps the three structures only for the levels at or above a
*floor*, the stop level of the last tracked walk (a new, copied or
loaded sketch tracks no level).  ``UpdateTracking`` (Figure 6)
maintains them alongside every count-signature update at a tracked
level, in ``O(r (L - b) log m)`` for an update at level ``L`` over
floor ``b``; an update below the floor touches only its counters.  A
walk that runs out of tracked levels before its sample reaches the
target decodes the levels below the floor (``GetdSample``, one slab
pass on packed storage), building each level's heap from the level
above plus its own sample, and every walk then moves the floor to the
stop level it found.  Answers do not depend on the floor: the tracked
structures at a level are a pure function of the counters.

The paper's Figure 6 details only the insertion case and notes the
deletion case is "completely symmetric"; we implement both through a
single state-diff: for each inner bucket touched, compare the bucket's
singleton occupant *before* and *after* the counter update and emit
add/remove singleton events for any change.  This uniform rule covers
every transition the paper lists — empty -> singleton,
singleton -> non-singleton, non-singleton -> singleton,
singleton -> empty — plus the no-op transitions.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from ..exceptions import ParameterError
from ..obs.catalog import (
    TRACKING_HEAP_OPS,
    TRACKING_SAMPLE_PAIRS,
    TRACKING_SINGLETON_EVENTS,
)
from ..obs.registry import Registry
from ..types import AddressDomain
from .dcs import DEFAULT_EPSILON, DistinctCountSketch
from .estimate import TopKResult, build_result
from .heap import IndexedMaxHeap
from .params import SketchParams


class SingletonSet:
    """The ``singletons(b)`` structure of Figure 5.

    Maps each pair that is currently a singleton in at least one inner
    table of the level to the number of tables where it is one.  The
    interface mirrors the paper's: ``getCount``, ``incrCount``,
    ``decrCount``; all O(1) expected.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def get_count(self, pair: int) -> int:
        """Tables in which ``pair`` is currently a singleton (0 if none)."""
        return self._counts.get(pair, 0)

    def incr_count(self, pair: int) -> int:
        """Increment ``pair``'s count, inserting at 1; returns new count."""
        new_count = self._counts.get(pair, 0) + 1
        self._counts[pair] = new_count
        return new_count

    def decr_count(self, pair: int) -> int:
        """Decrement ``pair``'s count, deleting at 0; returns new count."""
        count = self._counts.get(pair)
        if count is None:
            raise ParameterError(
                f"pair {pair} not present in singleton set"
            )
        count -= 1
        if count == 0:
            del self._counts[pair]
        else:
            self._counts[pair] = count
        return count

    def pairs(self) -> Set[int]:
        """The set of distinct singleton pairs (the level's sample)."""
        return set(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, pair: int) -> bool:
        return pair in self._counts

    def __repr__(self) -> str:
        return f"SingletonSet(size={len(self._counts)})"


class TrackingDistinctCountSketch(DistinctCountSketch):
    """Distinct-Count Sketch with incrementally-maintained sample state.

    Supports the same maintenance interface as
    :class:`DistinctCountSketch` (``insert``/``delete``/``update``/
    ``process``) and adds :meth:`track_topk` — a continuous-tracking
    query with ``O(k log m)`` cost.

    Example:
        >>> from repro.types import AddressDomain
        >>> sketch = TrackingDistinctCountSketch(AddressDomain(2 ** 16), seed=7)
        >>> for source in range(80):
        ...     sketch.insert(source, dest=4)
        >>> sketch.track_topk(1).destinations[0]
        4
    """

    def __init__(
        self,
        params: Union[SketchParams, AddressDomain],
        *,
        r: int = 3,
        s: int = 128,
        seed: int = 0,
        obs: Optional[Registry] = None,
        backend: str = "packed",
    ) -> None:
        super().__init__(
            params, r=r, s=s, seed=seed, obs=obs, backend=backend
        )
        levels = self.params.num_levels
        #: The lowest tracked level; ``num_levels`` while none is.
        self._floor = levels
        #: singletons(b) for every first-level bucket b (empty below
        #: the floor).
        self._singletons: List[SingletonSet] = [
            SingletonSet() for _ in range(levels)
        ]
        #: numSingletons(b) counters.
        self._num_singletons: List[int] = [0] * levels
        #: topDestHeap(b): destination -> frequency in sample from levels >= b.
        self._dest_heaps: List[IndexedMaxHeap[int]] = [
            IndexedMaxHeap() for _ in range(levels)
        ]
        # Tracking instruments: one event per pair and level, not per table.
        events = self.obs.counter_from(TRACKING_SINGLETON_EVENTS)
        self._obs_sample_add = events.labels(event="add")
        self._obs_sample_remove = events.labels(event="remove")
        heap_ops = self.obs.counter_from(TRACKING_HEAP_OPS)
        self._obs_heap_add = heap_ops.labels(op="add")
        self._obs_heap_remove = heap_ops.labels(op="remove")
        self.obs.gauge_from(TRACKING_SAMPLE_PAIRS).watch(
            lambda: sum(self._num_singletons)
        )

    # -- maintenance (Figure 6) ------------------------------------------------

    def _apply_at(
        self, pair: int, level: int, buckets: Any, delta: int
    ) -> None:
        """UpdateTracking: signature update plus sample-state maintenance.

        The tracking form of the per-pair kernel, for per-update calls
        and the per-pair batch path alike; below the floor it is the
        plain kernel.
        """
        if level < self._floor:
            super()._apply_at(pair, level, buckets, delta)
            return
        store = self._store
        s = self.params.s
        key = level * self.params.r * s
        for bucket in buckets:
            bucket_key = key + bucket
            key += s
            before = store.singleton_at(bucket_key)
            store.update(bucket_key, pair, delta)
            after = store.singleton_at(bucket_key)
            if before == after:
                continue
            # The bucket's singleton occupant changed: emit sample events.
            if before is not None:
                self._remove_singleton_occurrence(level, before)
            if after is not None:
                self._add_singleton_occurrence(level, after)

    def _fold(self, keys: Any, rows: Any) -> None:  # hot-path
        """Batch UpdateTracking: apply a fold's singleton changes.

        The tracked structures are a pure function of the counter state
        (:meth:`check_invariants` is exactly that statement), so moving
        each folded bucket's singleton occupant from its value before
        the fold to its value after yields the same final state as
        replaying the fold update by update.  The store's
        ``fold_changes`` folds every key and reports just the buckets
        at or above the floor whose occupant changed; each lives at
        level ``key // (r * s)``.  Removals and adds may run in any
        order: every removal is a before-fold occupant, so
        ``decr_count`` cannot underflow.
        """
        per_level = self.params.r * self.params.s
        remove = self._remove_singleton_occurrence
        add = self._add_singleton_occurrence
        for key, before, after in self._store.fold_changes(
            keys, rows, self._floor * per_level
        ):
            level = key // per_level
            if before is not None:
                remove(level, before)
            if after is not None:
                add(level, after)

    def _add_singleton_occurrence(self, level: int, pair: int) -> None:
        """A bucket at ``level`` became a singleton holding ``pair``."""
        if self._singletons[level].incr_count(pair) == 1:
            # New distinct pair in the level's sample (Fig 6, steps 18-22).
            self._num_singletons[level] += 1
            dest = self.domain.decode_pair(pair)[1]
            floor = self._floor
            for l in range(level, floor - 1, -1):
                self._dest_heaps[l].add_to(dest, 1, remove_at_zero=True)
            self._obs_sample_add.inc()
            self._obs_heap_add.inc(level - floor + 1)

    def _remove_singleton_occurrence(self, level: int, pair: int) -> None:
        """A bucket at ``level`` stopped being a singleton of ``pair``."""
        if self._singletons[level].decr_count(pair) == 0:
            # Pair left the level's sample (Fig 6, steps 8-12).
            self._num_singletons[level] -= 1
            dest = self.domain.decode_pair(pair)[1]
            floor = self._floor
            for l in range(level, floor - 1, -1):
                self._dest_heaps[l].add_to(dest, -1, remove_at_zero=True)
            self._obs_sample_remove.inc()
            self._obs_heap_remove.inc(level - floor + 1)

    # -- moving the floor -----------------------------------------------------

    def _descend(self, lowest: int) -> Iterator[Tuple[int, int]]:
        """Track the levels below the floor, top-down to ``lowest``.

        Decodes them through the sketch's level walk
        (:meth:`~repro.sketch.dcs.DistinctCountSketch._walk_levels`: one
        slab pass on packed storage).  Each level's ``singletons`` come
        from its decode and its heap from the heap above plus the
        level's own sample; the floor moves down to each level as it
        is built, and the walk yields ``(level, numSingletons(level))``,
        so a caller may stop at any level.
        """
        floor = self._floor
        cumulative: Dict[int, int] = (
            dict(self._dest_heaps[floor].items())
            if floor < self.params.num_levels
            else {}
        )
        decode = self.domain.decode_pair
        for level, codes in self._walk_levels(
            range(floor - 1, lowest - 1, -1)
        ):
            singletons = self._singletons[level]
            for pair in codes:
                if singletons.incr_count(pair) == 1:
                    dest = decode(pair)[1]
                    cumulative[dest] = cumulative.get(dest, 0) + 1
            count = len(singletons)
            self._num_singletons[level] = count
            heap = self._dest_heaps[level]
            for dest, freq in cumulative.items():
                heap.insert(dest, freq)
            self._obs_sample_add.inc(count)
            self._floor = level
            yield level, count

    def _raise_floor(self, level: int) -> None:
        """Stop tracking the levels below ``level`` (at or above the floor)."""
        for below in range(self._floor, level):
            self._obs_sample_remove.inc(self._num_singletons[below])
            self._singletons[below] = SingletonSet()
            self._num_singletons[below] = 0
            self._dest_heaps[below] = IndexedMaxHeap()
        self._floor = level

    def _track_to(self, level: int) -> int:
        """Track every level down to ``level``; returns ``level``.

        Raises:
            ParameterError: for a level outside the sketch.
        """
        self._key(level, 0, 0)
        for _ in self._descend(level):
            pass
        return level

    # -- tracked-state accessors -------------------------------------------------
    #
    # Each first tracks every level down to the one it reads.

    def num_singletons(self, level: int) -> int:
        """The ``numSingletons(b)`` counter for ``level``."""
        return self._num_singletons[self._track_to(level)]

    def singleton_pairs(self, level: int) -> Set[int]:
        """The tracked distinct sample contributed by ``level``."""
        return self._singletons[self._track_to(level)].pairs()

    def heap_frequency(self, level: int, dest: int) -> int:
        """Tracked sample frequency of ``dest`` at ``level`` (0 if absent)."""
        heap = self._dest_heaps[self._track_to(level)]
        return heap.priority(dest) if dest in heap else 0

    # -- estimation (Figure 7) -----------------------------------------------------

    def _tracked_stop(self, epsilon: float) -> Tuple[int, int, float]:
        """Figure 7's walk to the sample inference level.

        Sums ``numSingletons`` top-down until the sample reaches its
        target, decoding on below the floor if the tracked levels run
        out first (:meth:`_descend`), moves the floor to the stop
        level, and observes the sample size.  Returns ``(stop_level,
        sample_size, target)``.
        """
        target = self.params.sample_target(epsilon)
        sample_size = 0
        stop_level = 0
        for stop_level in range(
            self.params.num_levels - 1, self._floor - 1, -1
        ):
            sample_size += self._num_singletons[stop_level]
            if sample_size >= target:
                self._raise_floor(stop_level)
                break
        else:
            for stop_level, count in self._descend(0):
                sample_size += count
                if sample_size >= target:
                    break
        self._obs_sample_size.observe(sample_size)
        return stop_level, sample_size, target

    def track_topk(
        self, k: int, epsilon: float = DEFAULT_EPSILON
    ) -> TopKResult:
        """TrackTopk: the O(k log m) continuous-tracking query.

        Walks ``numSingletons`` counters top-down to locate the sample
        inference level, then reads the ``k`` largest entries of the
        level's destination heap in pop order without popping them
        (:meth:`~repro.sketch.heap.IndexedMaxHeap.top_k`).  The query
        moves the tracked levels to its stop level (decoding the levels
        below the floor the walk needs), never the counters or the
        answers.
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self._obs_queries.labels(kind="track_topk").inc()
        stop_level, sample_size, target = self._tracked_stop(epsilon)
        ranked = [
            (dest, freq)
            for dest, freq in self._dest_heaps[stop_level].top_k(k)
            if freq > 0
        ]
        return build_result(
            ranked=ranked,
            stop_level=stop_level,
            sample_size=sample_size,
            target_size=target,
        )

    def track_threshold(
        self, tau: int, epsilon: float = DEFAULT_EPSILON
    ) -> TopKResult:
        """All destinations with tracked estimate ``>= tau``.

        The footnote-3 threshold variant, answered from tracked state:
        walks the stopping level's heap in pop order
        (:meth:`~repro.sketch.heap.IndexedMaxHeap.ranked`) while
        estimates clear the threshold, leaving the heap untouched.
        Cost ``O(a log a)`` for ``a`` reported answers; the tracked
        levels move as in :meth:`track_topk`.
        """
        if tau < 1:
            raise ParameterError(f"tau must be >= 1, got {tau}")
        self._obs_queries.labels(kind="track_threshold").inc()
        stop_level, sample_size, target = self._tracked_stop(epsilon)
        scale = 1 << stop_level
        ranked: List[Tuple[int, int]] = []
        for dest, freq in self._dest_heaps[stop_level].ranked():
            if scale * freq < tau:
                break
            ranked.append((dest, freq))
        return build_result(
            ranked=ranked,
            stop_level=stop_level,
            sample_size=sample_size,
            target_size=target,
        )

    # -- consistency checking ---------------------------------------------------

    def check_invariants(self) -> None:
        """Verify tracked state against a from-scratch recomputation.

        Asserts that, for every tracked level ``b`` (at or above the
        floor):

        * ``singletons(b)`` equals the set ``GetdSample`` would recover;
        * ``numSingletons(b)`` equals its size; and
        * ``topDestHeap(b)`` holds exactly the destination frequencies of
          the union of singleton sets from levels ``>= b``;

        and that every level below the floor holds no tracked state.
        Used heavily by the test suite; O(sketch size), not for hot paths.
        """
        cumulative: Dict[int, int] = {}
        sweep = self.dsample_sweep()
        for level in range(self.params.num_levels - 1, -1, -1):
            if level < self._floor:
                if (
                    self._singletons[level]
                    or self._num_singletons[level]
                    or self._dest_heaps[level]
                ):
                    raise AssertionError(
                        f"level {level}: untracked level holds state"
                    )
                continue
            expected_sample = sweep[level]
            tracked_sample = self._singletons[level].pairs()
            if expected_sample != tracked_sample:
                raise AssertionError(
                    f"level {level}: tracked singletons diverge from scan"
                )
            if self._num_singletons[level] != len(expected_sample):
                raise AssertionError(
                    f"level {level}: numSingletons counter is stale"
                )
            for pair in expected_sample:
                dest = self.domain.decode_pair(pair)[1]
                cumulative[dest] = cumulative.get(dest, 0) + 1
            heap_state = dict(self._dest_heaps[level].items())
            expected_heap = {
                dest: freq for dest, freq in cumulative.items() if freq > 0
            }
            if heap_state != expected_heap:
                raise AssertionError(
                    f"level {level}: topDestHeap diverges from sample"
                )
            self._dest_heaps[level].check_invariants()

    def __repr__(self) -> str:
        return (
            f"TrackingDistinctCountSketch(m={self.domain.m}, "
            f"r={self.params.r}, s={self.params.s}, "
            f"levels={self.params.num_levels}, "
            f"updates={self.updates_processed})"
        )
