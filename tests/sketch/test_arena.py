"""Unit tests for the packed SignatureArena store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MergeError, ParameterError
from repro.sketch import CountSignature, SignatureArena, singleton_mask


def make_signature(pair_bits: int, *pairs: int) -> CountSignature:
    signature = CountSignature(pair_bits)
    for pair in pairs:
        signature.update(pair, 1)
    return signature


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            SignatureArena(0, 128)
        with pytest.raises(ParameterError):
            SignatureArena(8, 0)

    def test_starts_empty(self):
        arena = SignatureArena(8, 128)
        assert len(arena) == 0
        assert not arena
        assert arena.occupied_keys().tolist() == []


class TestUpdateAndDecode:
    def test_update_creates_and_prunes(self):
        arena = SignatureArena(8, 128)
        arena.update(5, 0b1010, 1)
        assert 5 in arena
        assert len(arena) == 1
        arena.update(5, 0b1010, -1)
        assert 5 not in arena
        assert len(arena) == 0

    def test_update_rejects_wide_pair_code(self):
        arena = SignatureArena(4, 128)
        with pytest.raises(ParameterError):
            arena.update(0, 1 << 4, 1)

    def test_singleton_at_matches_signature_decode(self):
        arena = SignatureArena(8, 128)
        arena.update(3, 0b1100, 1)
        assert arena.singleton_at(3) == 0b1100
        # A second distinct pair makes the bucket a collision.
        arena.update(3, 0b0011, 1)
        assert arena.singleton_at(3) is None
        assert arena.get(3) == make_signature(8, 0b1100, 0b0011)

    def test_singleton_at_empty_bucket(self):
        arena = SignatureArena(8, 128)
        assert arena.singleton_at(7) is None

    def test_decode_levels_matches_per_bucket_decode(self):
        arena = SignatureArena(8, 128)
        arena.update(1, 0b1, 1)
        arena.update(2, 0b10, 1)
        arena.update(2, 0b11, 1)
        arena.update(9, 0b101, -1)
        arena.update(10, 0b110, 1)
        for width in (1, 2, 8, 16, 128):
            levels = range(128 // width)
            for narrow in (False, True):
                decoded_levels = arena.decode_levels(levels, width, narrow)
                for level, (codes, collisions) in zip(levels, decoded_levels):
                    decoded = [
                        arena.get(key).recover_singleton()
                        for key in arena.occupied_keys().tolist()
                        if key // width == level
                    ]
                    expected = [code for code in decoded if code is not None]
                    assert sorted(codes) == sorted(expected)
                    assert collisions == len(decoded) - len(expected)
        # Levels come back in the order asked for.
        assert list(arena.decode_levels([1, 0], 8)) == [
            ([0b110], 1), ([0b1], 1),
        ]
        assert list(SignatureArena(8, 16).decode_levels(range(2), 8)) == [
            ([], 0), ([], 0),
        ]

    def test_slot_reuse_after_prune(self):
        arena = SignatureArena(8, 128)
        arena.update(1, 0b1, 1)
        arena.update(1, 0b1, -1)
        slots_before = len(arena.slot_keys())
        arena.update(2, 0b10, 1)
        # The freed slot is recycled, not grown past.
        assert len(arena.slot_keys()) == slots_before


class TestMappingSurface:
    def test_get_returns_independent_copy(self):
        arena = SignatureArena(8, 128)
        arena.update(4, 0b111, 1)
        signature = arena.get(4)
        signature.update(0b111, 1)
        # Mutating the copy must not touch the arena.
        assert arena.get(4) == make_signature(8, 0b111)
        assert arena.get(5) is None


class TestEquality:
    def test_arena_vs_arena(self):
        a = SignatureArena(8, 128)
        b = SignatureArena(8, 128)
        a.update(1, 0b1, 1)
        # Different insertion orders / slot layouts still compare equal.
        b.update(9, 0b11, 1)
        b.update(1, 0b1, 1)
        b.update(9, 0b11, -1)
        assert a == b
        b.update(2, 0b10, 1)
        assert a != b

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(SignatureArena(8, 128))


def fold_signature(arena, key, signature):
    """Fold one signature's counter row into ``key``."""
    rows = np.array([signature.counter_values()], dtype=np.int64)
    return arena.fold(np.array([key], dtype=np.int64), rows)


class TestMergeSignature:
    def test_merge_into_empty_and_cancel(self):
        arena = SignatureArena(8, 128)
        fold_signature(arena, 5, make_signature(8, 0b1))
        assert arena.get(5) == make_signature(8, 0b1)
        negative = CountSignature(8)
        negative.update(0b1, -1)
        fold_signature(arena, 5, negative)
        assert 5 not in arena

    def test_merge_rejects_width_mismatch(self):
        arena = SignatureArena(8, 128)
        with pytest.raises(MergeError):
            fold_signature(arena, 0, CountSignature(9))


class TestCopy:
    def test_copy_is_deep(self):
        arena = SignatureArena(8, 128)
        arena.update(1, 0b1, 1)
        clone = arena.copy()
        clone.update(1, 0b1, 1)
        assert arena.get(1) == make_signature(8, 0b1)
        assert clone != arena


class TestBatchSurface:
    def test_resolve_scatter_decode_roundtrip(self):
        arena = SignatureArena(4, 128)
        images = arena.fold(
            np.array([3, 7], dtype=np.int64),
            np.array(
                [
                    [1, 1, 0, 1, 0],   # pair 0b0101 into bucket 3
                    [1, 0, 1, 0, 0],   # pair 0b0010 into bucket 7
                ],
                dtype=np.int64,
            ),
        )
        assert len(arena) == 2
        assert not images[0].any()  # both keys were empty before
        images = arena.fold(
            np.array([3], dtype=np.int64),
            np.array([[-1, -1, 0, -1, 0]], dtype=np.int64),  # the delete
        )
        assert 3 not in arena
        assert arena.singleton_at(7) == 0b0010
        # The images hold bucket 3 as a singleton before, zeroed after.
        ok, _ = singleton_mask(images.reshape(2, 5))
        assert ok.tolist() == [True, False]
        # An empty block changes nothing.
        arena.fold(np.empty(0, dtype=np.int64), np.empty((0, 5), np.int64))
        assert arena.occupied_keys().tolist() == [7]

    def test_sparse_resolve_path(self):
        # range_size above MAX_DENSE_RANGE forces the dict-based path.
        arena = SignatureArena(4, 1 << 20)
        buckets = np.array([123456, 9, 123456], dtype=np.int64)
        slots = arena.resolve_slots(buckets)
        assert slots[0] == slots[2]
        assert len(arena) == 2
        assert arena._dense is None
