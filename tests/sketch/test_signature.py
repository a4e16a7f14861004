"""Tests for count signatures: update, recovery, merge, delete-resilience."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import MergeError, ParameterError
from repro.sketch import CountSignature, SignatureArena, SignatureTable


def build(pair_bits: int = 8) -> CountSignature:
    return CountSignature(pair_bits)


class TestConstruction:
    def test_starts_zeroed(self):
        signature = build()
        assert signature.total == 0
        assert signature.is_zero
        assert signature.bit_counts == [0] * 8

    def test_rejects_zero_width(self):
        with pytest.raises(ParameterError):
            CountSignature(0)


class TestUpdate:
    def test_insert_sets_total_and_bits(self):
        signature = build()
        signature.update(0b1010, +1)
        assert signature.total == 1
        assert signature.bit_counts == [0, 1, 0, 1, 0, 0, 0, 0]

    def test_delete_reverses_insert_exactly(self):
        signature = build()
        signature.update(0b1010, +1)
        signature.update(0b1010, -1)
        assert signature.is_zero

    def test_delete_resilience_under_random_churn(self):
        rng = random.Random(1)
        kept = build(16)
        churned = build(16)
        persistent = [rng.randrange(2 ** 16) for _ in range(10)]
        for code in persistent:
            kept.update(code, +1)
            churned.update(code, +1)
        # Churn: 100 random codes inserted then deleted, shuffled in.
        for code in (rng.randrange(2 ** 16) for _ in range(100)):
            churned.update(code, +1)
            churned.update(code, -1)
        assert kept == churned

    def test_multiplicity_accumulates(self):
        signature = build()
        for _ in range(5):
            signature.update(0b11, +1)
        assert signature.total == 5
        assert signature.bit_counts[0] == 5
        assert signature.bit_counts[1] == 5

    def test_rejects_oversized_code(self):
        signature = build(4)
        with pytest.raises(ParameterError):
            signature.update(1 << 4, +1)

    def test_oversized_code_rejected_before_mutation(self):
        signature = build(4)
        with pytest.raises(ParameterError):
            signature.update(0b10000, +1)
        assert signature.is_zero

    def test_zero_code_touches_only_total(self):
        signature = build()
        signature.update(0, +1)
        assert signature.total == 1
        assert signature.bit_counts == [0] * 8


class TestRecoverSingleton:
    def test_empty_returns_none(self):
        assert build().recover_singleton() is None

    def test_single_pair_recovered(self):
        signature = build()
        signature.update(0b10110, +1)
        assert signature.recover_singleton() == 0b10110

    def test_single_pair_with_multiplicity_recovered(self):
        signature = build()
        for _ in range(7):
            signature.update(0b101, +1)
        assert signature.recover_singleton() == 0b101

    def test_two_distinct_pairs_collide(self):
        signature = build()
        signature.update(0b01, +1)
        signature.update(0b10, +1)
        assert signature.recover_singleton() is None

    def test_collision_resolves_after_deletion(self):
        signature = build()
        signature.update(0b01, +1)
        signature.update(0b10, +1)
        signature.update(0b10, -1)
        assert signature.recover_singleton() == 0b01

    def test_all_zero_code_is_recoverable(self):
        # Pair code 0 has an all-zero signature except the total.
        signature = build()
        signature.update(0, +1)
        assert signature.recover_singleton() == 0

    def test_negative_total_returns_none(self):
        signature = build()
        signature.update(0b1, -1)
        assert signature.recover_singleton() is None

    def test_exhaustive_pairs_of_distinct_codes_always_collide(self):
        # For every pair of distinct 4-bit codes, the signature must
        # detect the collision (they differ in at least one bit).
        for a in range(16):
            for b in range(16):
                if a == b:
                    continue
                signature = CountSignature(4)
                signature.update(a, +1)
                signature.update(b, +1)
                assert signature.recover_singleton() is None, (a, b)


class TestMergeAndCopy:
    def test_merge_adds_counters(self):
        a = build()
        b = build()
        a.update(0b1, +1)
        b.update(0b10, +1)
        a.merge(b)
        assert a.total == 2
        assert a.bit_counts[0] == 1
        assert a.bit_counts[1] == 1

    def test_merge_equals_concatenated_stream(self):
        rng = random.Random(3)
        codes = [rng.randrange(256) for _ in range(50)]
        merged_halves = build()
        other = build()
        direct = build()
        for index, code in enumerate(codes):
            direct.update(code, +1)
            (merged_halves if index % 2 else other).update(code, +1)
        merged_halves.merge(other)
        assert merged_halves == direct

    def test_merge_rejects_width_mismatch(self):
        with pytest.raises(MergeError):
            build(8).merge(build(16))

    def test_copy_is_independent(self):
        original = build()
        original.update(0b11, +1)
        clone = original.copy()
        clone.update(0b11, +1)
        assert original.total == 1
        assert clone.total == 2

    def test_counter_values_layout(self):
        signature = build(4)
        signature.update(0b1001, +1)
        assert signature.counter_values() == [1, 1, 0, 0, 1]


class TestEquality:
    def test_equal_signatures(self):
        a, b = build(), build()
        a.update(5, 1)
        b.update(5, 1)
        assert a == b

    def test_unequal_totals(self):
        a, b = build(), build()
        a.update(5, 1)
        assert a != b

    def test_not_equal_to_other_types(self):
        assert build() != "not a signature"


class TestSignatureTable:
    """The reference store behind ``backend="reference"``."""

    def test_rejects_bad_shape(self):
        with pytest.raises(ParameterError):
            SignatureTable(0, 2, 4)
        with pytest.raises(ParameterError):
            SignatureTable(8, 0, 4)
        with pytest.raises(ParameterError):
            SignatureTable(8, 2, 0)

    def test_update_creates_and_prunes(self):
        table = SignatureTable(8, 2, 4)
        assert not table and len(table) == 0
        table.update(5, 0b1010, 1)
        assert table and len(table) == 1
        assert table.singleton_at(5) == 0b1010
        assert table.occupied_keys().tolist() == [5]
        table.update(5, 0b1010, -1)
        assert not table
        assert table.get(5) is None
        assert table.singleton_at(5) is None

    def test_get_returns_the_stored_signature(self):
        table = SignatureTable(8, 2, 4)
        table.update(6, 0b11, 1)
        assert table.get(6) is table.get(6)
        table.get(6).update(0b11, 1)
        assert table.get(6).total == 2

    def test_decode_levels_whole_tables(self):
        table = SignatureTable(8, 3, 4)
        table.update(1, 0b1, 1)
        table.update(2, 0b10, 1)
        table.update(2, 0b11, 1)  # a collision
        table.update(5, 0b100, 1)
        table.update(11, 0b1000, 1)
        assert list(table.decode_levels(range(3), 4)) == [
            ([0b1], 1), ([0b100], 0), ([0b1000], 0),
        ]
        assert list(table.decode_levels([1], 4)) == [([0b100], 0)]
        ((codes, collisions),) = table.decode_levels([0], 12)
        assert sorted(codes) == [0b1, 0b100, 0b1000]
        assert collisions == 1
        assert list(table.decode_levels([], 4)) == []
        with pytest.raises(ParameterError):
            list(table.decode_levels([0], 6))
        assert table.occupied_per_table(4).tolist() == [2, 1, 1]
        with pytest.raises(ParameterError):
            table.occupied_per_table(6)

    def test_fold_keeps_unbounded_counters(self):
        table = SignatureTable(2, 1, 8)
        rows = np.array([[2 ** 70, 2 ** 70, 0]], dtype=object)
        table.fold(np.array([3], dtype=np.int64), rows)
        assert table.get(3).total == 2 ** 70
        assert table.singleton_at(3) == 0b01
        table.fold(np.array([3], dtype=np.int64), -rows)
        assert not table

    def test_export_rows_ascend(self):
        table = SignatureTable(2, 2, 4)
        for key in (6, 1, 4):
            table.update(key, 0b10, 1)
        keys, rows = table.export_rows()
        assert keys.tolist() == [1, 4, 6]
        assert rows.tolist() == [1, 0, 1] * 3

    def test_drain_needs_tracking(self):
        table = SignatureTable(2, 1, 4)
        with pytest.raises(ParameterError):
            table.drain_deltas()
        table.track_deltas()
        table.update(1, 0b1, 1)
        table.update(2, 0b1, 1)
        table.update(2, 0b1, -1)
        keys, rows = table.drain_deltas()
        assert keys.tolist() == [1] and rows.tolist() == [1, 1, 0]
        keys, rows = table.drain_deltas()
        assert len(keys) == 0 and len(rows) == 0
        table.track_deltas(False)
        with pytest.raises(ParameterError):
            table.drain_deltas()

    def test_copy_is_deep_and_untracked(self):
        table = SignatureTable(4, 2, 4)
        table.track_deltas()
        table.update(1, 0b1, 1)
        clone = table.copy()
        clone.update(1, 0b1, 1)
        assert table.get(1).total == 1
        assert clone.get(1).total == 2
        with pytest.raises(ParameterError):
            clone.drain_deltas()


#: Blocks folded in turn, and the ``(key, before, after)`` singleton
#: changes each must report (pair_bits 4: rows are [total, bit_0..3]).
FOLD_CHANGE_SCRIPT = [
    # empty -> singleton on every key (key 2 twice over).
    ([1, 2, 3], [[1, 1, 1, 0, 0], [2, 2, 0, 0, 0], [1, 0, 0, 0, 1]],
     [(1, None, 0b0011), (2, None, 0b0001), (3, None, 0b1000)]),
    # singleton -> another singleton, singleton -> collision, and a
    # singleton whose multiplicity grows (no change).
    ([1, 2, 3], [[0, -1, -1, 1, 0], [1, 0, 1, 0, 0], [1, 0, 0, 0, 1]],
     [(1, 0b0011, 0b0100), (2, 0b0001, None)]),
    # collision -> singleton and singleton -> empty, in block order.
    ([2, 1], [[-1, 0, -1, 0, 0], [-1, 0, 0, -1, 0]],
     [(2, None, 0b0001), (1, 0b0100, None)]),
    ([], [], []),
]


class TestFoldChanges:
    @pytest.mark.parametrize(
        "store",
        [lambda: SignatureArena(4, 16), lambda: SignatureTable(4, 4, 4)],
        ids=["arena", "table"],
    )
    def test_reports_each_occupant_change(self, store):
        store = store()
        for keys, rows, expected in FOLD_CHANGE_SCRIPT:
            changes = store.fold_changes(
                np.array(keys, dtype=np.int64),
                np.array(rows, dtype=np.int64).reshape(len(keys), 5),
                0,
            )
            assert changes == expected
        assert store.occupied_keys().tolist() == [2, 3]
