"""Bit-identity of the bulk hash paths against their scalar originals.

The batch update engine is only correct because ``hash_many`` (of one
hash or of a :class:`CarterWegmanBank`) / ``words_many`` /
``levels_many`` return *exactly* what calling the scalar hash per value
would — these tests pin that equivalence on adversarial inputs
(field-boundary values, zero, values at and above ``2^64`` that must
take the scalar fallback).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.hashing import (
    MERSENNE_61,
    CarterWegmanBank,
    CarterWegmanHash,
    GeometricLevelHash,
    TabulationHash,
)

#: Values that stress every reduction boundary of the vectorized paths.
EDGE_VALUES = [
    0, 1, 2, 63, 64, 255, 256,
    (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
    MERSENNE_61 - 1, MERSENNE_61, MERSENNE_61 + 1,
    (1 << 64) - 1,
]


def random_values(seed: int, count: int, bits: int = 64) -> list:
    rng = random.Random(seed)
    return [rng.getrandbits(bits) for _ in range(count)]


class TestCarterWegmanHashMany:
    @pytest.mark.parametrize("range_size", [1, 2, 128, 1009])
    def test_matches_scalar_on_edge_values(self, range_size):
        h = CarterWegmanHash(range_size=range_size, seed=17)
        expected = [h(value) for value in EDGE_VALUES]
        assert list(h.hash_many(EDGE_VALUES)) == expected

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_matches_scalar_on_random_values(self, seed):
        h = CarterWegmanHash(range_size=128, seed=seed)
        values = random_values(seed, 2000)
        assert list(h.hash_many(values)) == [h(v) for v in values]

    def test_values_beyond_uint64_take_exact_fallback(self):
        h = CarterWegmanHash(range_size=128, seed=5)
        values = [1 << 64, (1 << 64) + 12345, 1 << 100, 7]
        result = h.hash_many(values)
        assert isinstance(result, np.ndarray)
        assert result.dtype == np.int64
        assert result.tolist() == [h(v) for v in values]

    def test_empty_input(self):
        h = CarterWegmanHash(range_size=128, seed=5)
        assert list(h.hash_many([])) == []

    def test_vectorized_path_used_for_uint64_inputs(self):
        h = CarterWegmanHash(range_size=128, seed=5)
        result = h.hash_many([1, 2, 3])
        assert isinstance(result, np.ndarray)
        assert result.dtype == np.int64


class TestCarterWegmanBank:
    @pytest.mark.parametrize("range_size", [1, 2, 128, 1009])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_rows_match_scalar(self, rows, range_size):
        hashes = [
            CarterWegmanHash(range_size=range_size, seed=40 + j)
            for j in range(rows)
        ]
        values = EDGE_VALUES + random_values(rows, 500)
        result = CarterWegmanBank(hashes).hash_many(values)
        assert result.dtype == np.int64
        assert result.shape == (rows, len(values))
        for row, h in zip(result, hashes):
            assert row.tolist() == [h(v) for v in values]

    def test_rows_may_differ_in_range(self):
        hashes = [
            CarterWegmanHash(range_size=size, seed=size)
            for size in (1, 2, 1009)
        ]
        values = EDGE_VALUES + random_values(8, 300)
        result = CarterWegmanBank(hashes).hash_many(values)
        assert result.tolist() == [[h(v) for v in values] for h in hashes]

    def test_values_beyond_uint64_take_exact_fallback(self):
        hashes = [CarterWegmanHash(range_size=128, seed=j) for j in range(3)]
        values = [1 << 64, (1 << 64) + 12345, 1 << 100, 7]
        result = CarterWegmanBank(hashes).hash_many(values)
        assert isinstance(result, np.ndarray)
        assert result.dtype == np.int64
        assert result.tolist() == [[h(v) for v in values] for h in hashes]

    def test_empty_input(self):
        hashes = [CarterWegmanHash(range_size=128, seed=j) for j in range(3)]
        assert CarterWegmanBank(hashes).hash_many([]).shape == (3, 0)

    def test_needs_a_hash(self):
        with pytest.raises(ParameterError):
            CarterWegmanBank([])


class TestTabulationHashMany:
    @pytest.mark.parametrize("key_bytes", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12])
    def test_words_match_scalar(self, key_bytes):
        h = TabulationHash(range_size=64, seed=3, key_bytes=key_bytes)
        values = random_values(key_bytes, 500) + EDGE_VALUES
        assert list(h.words_many(values)) == [h.word(v) for v in values]

    def test_hash_many_matches_scalar(self):
        h = TabulationHash(range_size=37, seed=11)
        values = random_values(4, 1000)
        assert list(h.hash_many(values)) == [h(v) for v in values]

    def test_oversized_keys_fall_back_and_match(self):
        h = TabulationHash(range_size=64, seed=3, key_bytes=4)
        values = [1 << 40, (1 << 64) + 3, 12]
        result = h.hash_many(values)
        assert isinstance(result, np.ndarray)
        assert result.dtype == np.int64
        assert result.tolist() == [h(v) for v in values]

    def test_empty_input(self):
        h = TabulationHash(range_size=64, seed=3)
        assert list(h.hash_many([])) == []
        assert list(h.words_many([])) == []


class TestGeometricLevelsMany:
    @pytest.mark.parametrize("max_level", [0, 1, 17, 33])
    def test_matches_scalar(self, max_level):
        h = GeometricLevelHash(max_level=max_level, seed=9)
        values = random_values(max_level, 2000) + EDGE_VALUES
        assert list(h.levels_many(values)) == [h(v) for v in values]

    def test_distribution_is_geometric_ish(self):
        h = GeometricLevelHash(max_level=20, seed=1)
        levels = list(h.levels_many(random_values(2, 20000)))
        zero_fraction = levels.count(0) / len(levels)
        assert 0.45 < zero_fraction < 0.55

    def test_beyond_uint64_fallback(self):
        h = GeometricLevelHash(max_level=10, seed=9)
        values = [1 << 70, 5]
        assert list(h.levels_many(values)) == [h(v) for v in values]

    def test_empty_input(self):
        h = GeometricLevelHash(max_level=10, seed=9)
        assert list(h.levels_many([])) == []
