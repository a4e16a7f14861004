"""Tabulation hashing: an alternative uniform hash for wide domains.

Simple tabulation hashing splits the key into bytes and XORs together
per-byte lookup tables of random words.  It is 3-wise independent and
behaves like a fully random function for many hashing applications
(Patrascu & Thorup), making it a good drop-in alternative to the
polynomial hashes where the ``2^61 - 1`` field would be too narrow.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

from .._accel import np as _np
from .._accel import to_uint64_array as _to_uint64_array
from ..exceptions import ParameterError
from .seeds import derive_seed

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1

#: Most values :meth:`TabulationHash.words_many` gathers in one step.
#: Its index and gathered words take 16 bytes per table per value, so
#: a block's 128 KiB stay in cache (on a 2-vCPU Xeon VM, blocks of
#: 4096 ran about 2x slower per value) and a large batch allocates no
#: more than that.
_GATHER_BLOCK = 1024


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
        # Lazily-built flat uint64 tables for the vectorized path.
        self._np_tables: Optional[Tuple[Any, Any, Any]] = None

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

        Bit-identical to :meth:`word` per value.  After the same XOR
        fold, the codes' little-endian octets index the flattened
        ``(key_bytes * 256,)`` table (byte ``i`` at offset ``256 i``),
        so every lookup of a block of up to :data:`_GATHER_BLOCK`
        values is one gather and their words one ``bitwise_xor``
        reduction over it.  Values at or above ``2^64`` take the
        scalar path instead.  Returns a uint64 ndarray either way.
        """
        codes = _to_uint64_array(values)
        if codes is None:
            word = self.word
            return _np.array([word(value) for value in values], _np.uint64)
        folded = codes
        width = 8 * self.key_bytes
        if width < 64:
            # Same XOR fold as the scalar path, vectorized.
            mask = _np.uint64((1 << width) - 1)
            shift = _np.uint64(width)
            while bool((folded >> shift).any()):
                folded = (folded & mask) ^ (folded >> shift)
        if self._np_tables is None:
            self._np_tables = self._flat_tables()
        flat, offsets, high = self._np_tables
        count = len(folded)
        octets = _np.ascontiguousarray(folded, dtype="<u8").view(_np.uint8)
        octets = octets.reshape(count, 8).T[:len(offsets)]
        words = _np.empty(count, dtype=_np.uint64)
        for lo in range(0, count, _GATHER_BLOCK):
            hi = lo + _GATHER_BLOCK
            _np.bitwise_xor.reduce(
                flat.take(octets[:, lo:hi] + offsets), axis=0, out=words[lo:hi]
            )
        # Bytes past the eighth are zero in every code below 2^64.
        return words ^ high if high else words

    def _flat_tables(self) -> Tuple[Any, Any, int]:
        """The vectorized path's tables: ``(flat, offsets, high)``.

        ``flat`` concatenates the first ``min(key_bytes, 8)`` tables as
        uint64, ``offsets`` is the ``(bytes, 1)`` column of their
        starts, and ``high`` is the XOR of the remaining tables' zero
        entries (as a uint64 scalar, or ``0`` when there are none).
        """
        low = min(self.key_bytes, 8)
        flat = _np.array(self._tables[:low], dtype=_np.uint64).reshape(-1)
        offsets = (_np.arange(low, dtype=_np.intp) * 256).reshape(-1, 1)
        high = 0
        for table in self._tables[low:]:
            high ^= table[0]
        return flat, offsets, _np.uint64(high) if high else 0

    def hash_many(self, values: Any) -> Any:  # hot-path
        """Hash a batch of values into ``[0, range_size)``.

        Bit-identical to calling the hash once per value; returns an
        int64 ndarray.
        """
        words = self.words_many(values)
        return (words % _np.uint64(self.range_size)).astype(_np.int64)

    def __call__(self, value: int) -> int:
        """Hash ``value`` into ``[0, range_size)``."""
        return self.word(value) % self.range_size

    def __repr__(self) -> str:
        return (
            f"TabulationHash(range_size={self.range_size}, "
            f"seed={self.seed}, key_bytes={self.key_bytes})"
        )
