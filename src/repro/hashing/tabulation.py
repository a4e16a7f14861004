"""Tabulation hashing: an alternative uniform hash for wide domains.

Simple tabulation hashing splits the key into bytes and XORs together
per-byte lookup tables of random words.  It is 3-wise independent and
behaves like a fully random function for many hashing applications
(Patrascu & Thorup), making it a good drop-in alternative to the
polynomial hashes where the ``2^61 - 1`` field would be too narrow.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional

from .._accel import np as _np
from .._accel import to_uint64_array as _to_uint64_array
from ..exceptions import ParameterError
from .seeds import derive_seed

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


class TabulationHash:
    """Simple tabulation hash ``[2^(8*key_bytes)] -> [range_size]``.

    Args:
        range_size: number of output buckets.
        seed: integer seed for the lookup tables.
        key_bytes: how many bytes of the key to tabulate (keys larger
            than ``2^(8*key_bytes)`` are folded down by XOR first).
    """

    __slots__ = ("range_size", "seed", "key_bytes", "_tables", "_np_tables")

    def __init__(self, range_size: int, seed: int, key_bytes: int = 8) -> None:
        if range_size < 1:
            raise ParameterError(
                f"hash range must be >= 1, got {range_size}"
            )
        if key_bytes < 1:
            raise ParameterError(
                f"key_bytes must be >= 1, got {key_bytes}"
            )
        self.range_size = range_size
        self.seed = seed
        self.key_bytes = key_bytes
        rng = random.Random(derive_seed(seed, "tabulation", key_bytes))
        self._tables: List[List[int]] = [
            [rng.getrandbits(_WORD_BITS) for _ in range(256)]
            for _ in range(key_bytes)
        ]
        # Lazily-built uint64 copy of the tables for the vectorized path.
        self._np_tables: Optional[Any] = None

    def word(self, value: int) -> int:
        """Return the full 64-bit tabulated word for ``value``."""
        if value < 0:
            raise ParameterError("tabulation keys must be non-negative")
        # Fold oversized keys into the tabulated width.
        width = 8 * self.key_bytes
        folded = value
        while folded >> width:
            folded = (folded & ((1 << width) - 1)) ^ (folded >> width)
        acc = 0
        for table in self._tables:
            acc ^= table[folded & 0xFF]
            folded >>= 8
        return acc & _WORD_MASK

    def words_many(self, values: Any) -> Any:  # hot-path
        """Tabulated 64-bit words for a batch of values.

        Bit-identical to :meth:`word` per value.  The per-byte table
        lookups become eight fancy-index gathers; values at or above
        ``2^64`` take the scalar path instead (they need the XOR fold)
        and come back as a plain list of ints.
        """
        codes = _to_uint64_array(values)
        if codes is None:
            word = self.word
            return [word(value) for value in values]
        folded = codes
        width = 8 * self.key_bytes
        if width < 64:
            # Same XOR fold as the scalar path, vectorized.
            mask = _np.uint64((1 << width) - 1)
            shift = _np.uint64(width)
            while bool((folded >> shift).any()):
                folded = (folded & mask) ^ (folded >> shift)
        if self._np_tables is None:
            self._np_tables = _np.array(self._tables, dtype=_np.uint64)
        tables = self._np_tables
        acc = _np.zeros(len(codes), dtype=_np.uint64)
        byte_mask = _np.uint64(0xFF)
        eight = _np.uint64(8)
        for index in range(self.key_bytes):
            acc ^= tables[index][(folded & byte_mask).astype(_np.int64)]
            folded = folded >> eight
        return acc

    def hash_many(self, values: Any) -> Any:  # hot-path
        """Hash a batch of values into ``[0, range_size)``.

        Bit-identical to calling the hash once per value; numpy array
        out when vectorized, list of ints otherwise.
        """
        words = self.words_many(values)
        if isinstance(words, list):
            s = self.range_size
            return [word % s for word in words]
        return (words % _np.uint64(self.range_size)).astype(_np.int64)

    def __call__(self, value: int) -> int:
        """Hash ``value`` into ``[0, range_size)``."""
        return self.word(value) % self.range_size

    def __repr__(self) -> str:
        return (
            f"TabulationHash(range_size={self.range_size}, "
            f"seed={self.seed}, key_bytes={self.key_bytes})"
        )
