"""Differential fuzzing: packed backend vs the reference implementation.

Drives identical seeded insert/delete/merge sequences through the
reference (dict-of-``CountSignature``) and packed (arena + batch
engine) backends and asserts the two end in *bit-identical* states —
``structurally_equal`` plus equal query answers.  This is the
acceptance surface for the backend: same seeds, same stream, same
sketch, regardless of storage layout or batching.

Everything is deterministically seeded (``random.Random``); no wall
clock, no ordering dependence beyond the stream itself.
"""

from __future__ import annotations

import enum
import random
import tracemalloc
from collections import namedtuple
from typing import List, Tuple

import numpy as np
import pytest

from repro.exceptions import DomainError, ParameterError
from repro.monitor import DDoSMonitor, MonitorConfig, SlidingWindowSketch
from repro.obs import Registry
from repro.sketch import (
    DistinctCountSketch,
    SketchParams,
    TrackingDistinctCountSketch,
    serialize,
)
from repro.sketch.dcs import FOLD_PASS, encode_batch
from repro.streams import ZipfWorkload
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)


class Port(enum.IntEnum):
    HTTP = 80


#: An update object that skips ``FlowUpdate``'s delta validation.
RawUpdate = namedtuple("RawUpdate", "source dest delta")


#: Updates the vectorized encoder must not take, and what per-update
#: ``process`` does with each: raise (the exception type) or accept
#: (``None``, as the integer value).
ODD_UPDATES = {
    "float-address": (FlowUpdate(1.5, 3, 1), TypeError),
    "float-delta": (FlowUpdate(4, 3, 1.0), TypeError),
    "address-2**63": (FlowUpdate(2 ** 63, 3, 1), DomainError),
    "bool-address": (FlowUpdate(True, 3, 1), None),
    "numpy-address": (FlowUpdate(np.int64(4), 3, 1), None),
    "intenum-address": (FlowUpdate(Port.HTTP, 3, 1), None),
    "delta-2": (RawUpdate(4, 3, 2), ParameterError),
    "delta-minus-3": (RawUpdate(4, 3, -3), ParameterError),
    "delta-2**32": (RawUpdate(4, 3, 2 ** 32), ParameterError),
}


def make_stream(
    seed: int,
    length: int,
    dests: int = 150,
    delete_fraction: float = 0.35,
) -> List[FlowUpdate]:
    """A seeded insert/delete stream where every delete is well-formed.

    Deletes only remove currently-live pairs (the paper's stream model:
    a deletion legitimises a previously seen flow), so counters never
    go negative and delete-resistance is exercised honestly.
    """
    rng = random.Random(seed)
    live: List[Tuple[int, int]] = []
    updates: List[FlowUpdate] = []
    for _ in range(length):
        if live and rng.random() < delete_fraction:
            source, dest = live.pop(rng.randrange(len(live)))
            updates.append(FlowUpdate(source, dest, -1))
        else:
            source = rng.randrange(DOMAIN.m)
            dest = rng.randrange(dests)
            live.append((source, dest))
            updates.append(FlowUpdate(source, dest, 1))
    return updates


class TestBasicSketchDifferential:
    @pytest.mark.parametrize("stream_seed", [1, 2, 3])
    @pytest.mark.parametrize("batch_size", [1, 7, 256, None])
    def test_batched_packed_matches_per_update_reference(
        self, stream_seed, batch_size
    ):
        updates = make_stream(stream_seed, 3000)
        reference = DistinctCountSketch(DOMAIN, seed=42, backend="reference")
        packed = DistinctCountSketch(DOMAIN, seed=42, backend="packed")
        for update in updates:
            reference.process(update)
        if batch_size is None:
            packed.process_stream(updates)  # the default chunking
        else:
            packed.process_stream(updates, batch_size=batch_size)
        assert reference.structurally_equal(packed)
        assert packed.structurally_equal(reference)
        assert packed.updates_processed == reference.updates_processed
        assert packed.net_total == reference.net_total
        assert packed.base_topk(10) == reference.base_topk(10)
        assert (
            packed.estimate_distinct_pairs()
            == reference.estimate_distinct_pairs()
        )

    def test_reference_update_batch_matches_per_update(self):
        updates = make_stream(7, 2000)
        one_by_one = DistinctCountSketch(DOMAIN, seed=9, backend="reference")
        batched = DistinctCountSketch(DOMAIN, seed=9, backend="reference")
        for update in updates:
            one_by_one.process(update)
        batched.process_stream(updates, batch_size=64)
        assert one_by_one.structurally_equal(batched)

    def test_matched_insert_delete_is_delete_resistant(self):
        noise = make_stream(11, 800, delete_fraction=0.0)
        attack = [
            FlowUpdate(source, 7, 1) for source in range(500, 900)
        ]
        clean = DistinctCountSketch(DOMAIN, seed=5, backend="packed")
        churned = DistinctCountSketch(DOMAIN, seed=5, backend="packed")
        clean.process_stream(noise, batch_size=128)
        # The churned sketch additionally sees the attack inserted and
        # then fully deleted, interleaved with the same noise.
        churned.process_stream(noise[:400], batch_size=128)
        churned.update_batch(attack)
        churned.process_stream(noise[400:], batch_size=128)
        churned.update_batch(
            [FlowUpdate(u.source, u.dest, -1) for u in attack]
        )
        assert clean.structurally_equal(churned)

    def test_merge_both_directions_and_cross_backend(self):
        left_updates = make_stream(21, 1500)
        right_updates = make_stream(22, 1500)

        def build(backend, updates):
            sketch = DistinctCountSketch(DOMAIN, seed=3, backend=backend)
            sketch.process_stream(updates, batch_size=100)
            return sketch

        whole = DistinctCountSketch(DOMAIN, seed=3, backend="reference")
        whole.process_stream(left_updates + right_updates)

        packed_left = build("packed", left_updates)
        packed_right = build("packed", right_updates)
        packed_left.merge(packed_right)
        assert whole.structurally_equal(packed_left)

        ref_left = build("reference", left_updates)
        packed_right2 = build("packed", right_updates)
        # Cross-backend merges work in both directions.
        ref_left.merge(packed_right2)
        assert whole.structurally_equal(ref_left)
        packed_right2.merge(build("reference", left_updates))
        assert whole.structurally_equal(packed_right2)

    def test_copy_preserves_backend_and_state(self):
        sketch = DistinctCountSketch(DOMAIN, seed=1, backend="packed")
        sketch.process_stream(make_stream(31, 1000), batch_size=50)
        clone = sketch.copy()
        assert clone.backend == "packed"
        assert clone.structurally_equal(sketch)
        # The clone's packed hot path is live, not a detached alias.
        clone.update_batch([FlowUpdate(1, 2, 1)])
        assert not clone.structurally_equal(sketch)

    def test_serialize_roundtrip_across_backends(self):
        sketch = DistinctCountSketch(DOMAIN, seed=8, backend="packed")
        sketch.process_stream(make_stream(41, 1200), batch_size=64)
        payload = serialize.dumps(sketch)
        as_reference = serialize.loads(payload, backend="reference")
        as_packed = serialize.loads(payload, backend="packed")
        assert as_reference.backend == "reference"
        assert as_packed.backend == "packed"
        assert sketch.structurally_equal(as_reference)
        assert sketch.structurally_equal(as_packed)


class TestTrackingSketchDifferential:
    @pytest.mark.parametrize("stream_seed", [5, 6])
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_tracked_state_matches_reference(self, stream_seed, batch_size):
        updates = make_stream(stream_seed, 2500)
        reference = TrackingDistinctCountSketch(
            DOMAIN, seed=13, backend="reference"
        )
        packed = TrackingDistinctCountSketch(
            DOMAIN, seed=13, backend="packed"
        )
        for update in updates:
            reference.process(update)
        packed.process_stream(updates, batch_size=batch_size)
        assert reference.structurally_equal(packed)
        packed.check_invariants()
        reference.check_invariants()
        assert packed.track_topk(10) == reference.track_topk(10)
        assert packed.base_topk(10) == reference.base_topk(10)
        for level in range(packed.params.num_levels):
            assert packed.num_singletons(level) == reference.num_singletons(
                level
            )
            assert packed.singleton_pairs(level) == reference.singleton_pairs(
                level
            )

    def test_tracking_invariants_hold_mid_stream(self):
        updates = make_stream(51, 2000)
        packed = TrackingDistinctCountSketch(
            DOMAIN, seed=2, backend="packed"
        )
        for start in range(0, len(updates), 400):
            packed.update_batch(updates[start:start + 400])
            packed.check_invariants()

    def test_tracking_merge_and_copy(self):
        left = TrackingDistinctCountSketch(DOMAIN, seed=4, backend="packed")
        right = TrackingDistinctCountSketch(DOMAIN, seed=4, backend="packed")
        left.process_stream(make_stream(61, 1000), batch_size=128)
        right.process_stream(make_stream(62, 1000), batch_size=128)
        clone = left.copy()
        assert clone.backend == "packed"
        clone.check_invariants()
        left.merge(right)
        left.check_invariants()
        whole = TrackingDistinctCountSketch(
            DOMAIN, seed=4, backend="reference"
        )
        whole.process_stream(make_stream(61, 1000))
        whole.process_stream(make_stream(62, 1000))
        assert whole.structurally_equal(left)
        assert whole.track_topk(5) == left.track_topk(5)


class TestSlabEngineDifferential:
    """The one-slab fold against the reference, batch size by batch size.

    A pass folds at most ``FOLD_PASS`` (1024) updates, so the sizes
    straddle that cut; delete-heavy streams drive rows back to zero
    and through the slot free list.
    """

    @pytest.mark.parametrize("tracking", [False, True])
    @pytest.mark.parametrize(
        "batch_size", [1, 25, 250, 1023, 1024, 1025, 5000]
    )
    def test_batch_sizes_match_reference(self, tracking, batch_size):
        cls = TrackingDistinctCountSketch if tracking else DistinctCountSketch
        updates = make_stream(71, 6000, delete_fraction=0.6)
        reference = cls(DOMAIN, seed=17, backend="reference")
        for update in updates:
            reference.process(update)
        packed = cls(DOMAIN, seed=17, backend="packed")
        packed.process_stream(updates, batch_size=batch_size)
        assert packed.structurally_equal(reference)
        assert reference.structurally_equal(packed)
        assert packed.updates_processed == reference.updates_processed
        assert packed.net_total == reference.net_total
        assert packed.base_topk(10) == reference.base_topk(10)
        if tracking:
            packed.check_invariants()
            assert packed.track_topk(10) == reference.track_topk(10)

    def test_one_large_batch_holds_one_pass_at_a_time(self):
        """A batch of many passes peaks near what the same updates fed
        in ``FOLD_PASS`` chunks peak at: each pass is folded before the
        next is hashed."""
        domain = AddressDomain(2 ** 32)
        updates = ZipfWorkload(
            domain, distinct_pairs=40_000, destinations=250, skew=1.5,
            seed=99,
        ).updates()

        def peak(feed):
            sketch = TrackingDistinctCountSketch(domain, seed=5)
            tracemalloc.start()
            try:
                feed(sketch)
                return tracemalloc.get_traced_memory()[1], sketch
            finally:
                tracemalloc.stop()

        whole, one_batch = peak(lambda sketch: sketch.update_batch(updates))
        chunked, fed = peak(
            lambda sketch: sketch.process_stream(updates, FOLD_PASS)
        )
        assert one_batch.structurally_equal(fed)
        assert whole <= 1.5 * chunked, (
            f"one batch peaks at {whole / chunked:.2f}x the chunked feed"
        )

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    @pytest.mark.parametrize(
        "bad,error",
        [
            (FlowUpdate(DOMAIN.m, 3, 1), DomainError),
            (FlowUpdate(4, DOMAIN.m + 7, 1), DomainError),
            (FlowUpdate(-1, 3, 1), DomainError),
            (FlowUpdate(1.5, 3, 1), TypeError),
        ],
        ids=["source-range", "dest-range", "negative", "float"],
    )
    def test_bad_batch_raises_like_process_and_changes_nothing(
        self, backend, bad, error
    ):
        single = TrackingDistinctCountSketch(DOMAIN, seed=3, backend=backend)
        with pytest.raises(error):
            single.process(bad)
        batch = make_stream(72, 300)
        batch.insert(150, bad)
        sketch = TrackingDistinctCountSketch(DOMAIN, seed=3, backend=backend)
        with pytest.raises(error):
            sketch.update_batch(batch)
        assert sketch.updates_processed == 0
        assert sketch.is_empty
        sketch.check_invariants()

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    @pytest.mark.parametrize("kind", sorted(ODD_UPDATES))
    def test_odd_batch_does_what_process_does(self, backend, kind):
        """A batch holding a non-``int`` or int64-overflowing value
        raises what per-update ``process`` raises with the sketch
        untouched, or ends in the state per-update feeding reaches."""
        odd, error = ODD_UPDATES[kind]
        batch = make_stream(74, 300)
        batch.insert(150, odd)
        sketch = TrackingDistinctCountSketch(DOMAIN, seed=3, backend=backend)
        looped = TrackingDistinctCountSketch(DOMAIN, seed=3, backend=backend)
        if error is not None:
            with pytest.raises(error):
                looped.process(odd)
            assert looped.is_empty
            with pytest.raises(error):
                sketch.update_batch(batch)
            assert sketch.updates_processed == 0
            assert sketch.is_empty
            sketch.check_invariants()
            return
        for update in batch:
            looped.process(update)
        assert sketch.update_batch(batch) == len(batch)
        assert sketch.structurally_equal(looped)
        assert sketch.updates_processed == looped.updates_processed
        assert sketch.net_total == looped.net_total
        sketch.check_invariants()
        assert sketch.track_topk(10) == looped.track_topk(10)

    @pytest.mark.parametrize(
        "shape",
        [dict(r=1, s=2), dict(r=3, s=128, num_levels=1)],
        ids=["r1-s2", "one-level"],
    )
    def test_minimal_shapes_never_alias_keys(self, shape):
        params = SketchParams(AddressDomain(2 ** 8), **shape)
        rng = random.Random(73)
        updates = [
            FlowUpdate(rng.randrange(2 ** 8), rng.randrange(3), 1)
            for _ in range(400)
        ]
        updates += [u.inverted() for u in updates[::3]]
        rng.shuffle(updates)
        reference = TrackingDistinctCountSketch(
            params, seed=12, backend="reference"
        )
        for update in updates:
            reference.process(update)
        packed = TrackingDistinctCountSketch(params, seed=12)
        packed.process_stream(updates, batch_size=64)
        assert packed.structurally_equal(reference)
        packed.check_invariants()
        assert packed.track_topk(3) == reference.track_topk(3)
        for level, j, bucket, _ in packed._iter_signatures():
            assert packed.signature_at(level, j, bucket) == (
                reference.signature_at(level, j, bucket)
            )


#: How the last batch of :func:`cancel_batches` cancels within itself.
CANCEL_CASES = (
    "insert-then-delete",
    "delete-live-then-reinsert",
    "insert-twice-delete-once",
    "all-cancel",
)


def cancel_batches(case: str) -> List[List[FlowUpdate]]:
    """An insert-only prefix batch, then a batch that cancels by ``case``.

    The pairs the cases move go to destination 500, which the noise
    (destinations below 150) never uses; ``live`` and ``ended`` were
    inserted by the prefix.  Every case but ``all-cancel`` mixes in
    noise of its own (inserts and deletes of pairs the noise itself
    inserted), and ``insert-twice-delete-once`` also nets a pair to +2
    (inserted twice) and one to -1 (``ended``, deleted).
    """
    prefix = make_stream(81, 300, delete_fraction=0.0)
    noise = make_stream(82, 40)
    fresh = [FlowUpdate(60_000 + index, 500, 1) for index in range(4)]
    live = FlowUpdate(59_000, 500, 1)
    ended = FlowUpdate(59_001, 500, 1)
    prefix += [live, ended]
    if case == "insert-then-delete":
        tail = noise[:20] + [fresh[0]] + noise[20:] + [fresh[0].inverted()]
    elif case == "delete-live-then-reinsert":
        tail = [live.inverted()] + noise + [live]
    elif case == "insert-twice-delete-once":
        tail = (
            [fresh[0]] + noise[:20] + [fresh[0], fresh[1], fresh[1]]
            + noise[20:] + [fresh[0].inverted(), ended.inverted()]
        )
    else:
        tail = fresh + [live.inverted(), fresh[1], live]
        tail += [update.inverted() for update in fresh + [fresh[1]]]
    return [prefix, tail]


def update_counts(registry: Registry) -> Tuple[int, int]:
    """The ``(insert, delete)`` values of the sketch update counter."""
    counter = registry.get("repro_sketch_updates_total")
    return (
        counter.labels(op="insert").value,
        counter.labels(op="delete").value,
    )


class TestCancellingBatches:
    """Batches whose pairs cancel inside one fold pass.

    The batch engine nets each pass by pair before hashing, so these
    pairs never reach the slab; the sketch must still equal the
    reference fed update by update, and count every update.
    """

    @pytest.mark.parametrize("tracking", [False, True])
    @pytest.mark.parametrize("case", CANCEL_CASES)
    def test_update_batch_matches_reference(self, tracking, case):
        cls = TrackingDistinctCountSketch if tracking else DistinctCountSketch
        packed_obs = Registry()
        reference_obs = Registry()
        reference = cls(
            DOMAIN, seed=19, backend="reference", obs=reference_obs
        )
        packed = cls(DOMAIN, seed=19, obs=packed_obs)
        for batch in cancel_batches(case):
            for update in batch:
                reference.process(update)
            assert packed.update_batch(batch) == len(batch)
            assert packed.structurally_equal(reference)
        assert packed.updates_processed == reference.updates_processed
        assert packed.net_total == reference.net_total
        assert update_counts(packed_obs) == update_counts(reference_obs)
        assert packed.base_topk(10) == reference.base_topk(10)
        if tracking:
            packed.check_invariants()
            assert packed.track_topk(10) == reference.track_topk(10)

    @pytest.mark.parametrize("case", CANCEL_CASES)
    def test_windowed_monitor_folds_the_shared_blocks(self, case):
        """One hashed block per batch feeds the all-time sketch and
        the window sum (same shape and seed), netted once."""
        window = SlidingWindowSketch(
            DOMAIN, subepoch_length=1000, window_subepochs=2, seed=19
        )
        monitor = DDoSMonitor(
            DOMAIN,
            MonitorConfig(check_interval=1000),
            seed=19,
            window=window,
        )
        reference = TrackingDistinctCountSketch(
            DOMAIN, seed=19, backend="reference"
        )
        for batch in cancel_batches(case):
            monitor.observe_batch(batch)
            for update in batch:
                reference.process(update)
        for sketch in (monitor.sketch, window.window_sum):
            assert sketch.structurally_equal(reference)
            sketch.check_invariants()
            assert sketch.track_topk(10) == reference.track_topk(10)
        assert monitor.sketch.updates_processed == (
            reference.updates_processed
        )
        assert monitor.sketch.net_total == reference.net_total

    @pytest.mark.parametrize("case", CANCEL_CASES)
    def test_update_encoded_drains_the_reference_rows(self, case):
        """A shard worker's path: the drained rows equal the
        reference's once sorted by key (netted keys are never touched,
        so first-touch order may differ)."""
        packed = TrackingDistinctCountSketch(DOMAIN, seed=19)
        reference = DistinctCountSketch(DOMAIN, seed=19, backend="reference")
        packed.track_deltas()
        reference.track_deltas()
        for batch in cancel_batches(case):
            packed.update_encoded(*encode_batch(DOMAIN, batch))
            for update in batch:
                reference.process(update)
            keys, rows = packed.drain_deltas()
            expected_keys, expected_rows = reference.drain_deltas()
            order = keys.argsort()
            assert keys[order].tolist() == expected_keys.tolist()
            assert rows[order].tolist() == expected_rows.tolist()
        assert packed.structurally_equal(reference)

    @pytest.mark.parametrize("tracking", [False, True])
    def test_all_cancelling_batch_takes_no_slot(self, tracking):
        cls = TrackingDistinctCountSketch if tracking else DistinctCountSketch
        prefix, cancelling = cancel_batches("all-cancel")
        sketch = cls(DOMAIN, seed=19)
        # Insert-only: the slab has no released slot to recycle, so a
        # touched fresh key would append one.
        sketch.update_batch(prefix)
        sketch.track_deltas()
        before = sketch.copy()
        slots = len(sketch._store.slot_keys())
        sketch.update_batch(cancelling)
        assert len(sketch._store.slot_keys()) == slots
        keys, rows = sketch.drain_deltas()
        assert len(keys) == 0 and len(rows) == 0
        assert sketch.structurally_equal(before)
        assert sketch.updates_processed == len(prefix) + len(cancelling)
