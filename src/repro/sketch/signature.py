"""Count signatures: the per-bucket state of a Distinct-Count Sketch.

Each second-level hash bucket keeps a *count signature* (Section 3):

* one **total element count** — the net number of source-destination
  pairs hashed into the bucket, and
* ``pair_bits`` **bit-location counts** — for each bit position ``j`` of
  the pair encoding, the net number of pairs in the bucket whose ``j``-th
  bit is 1.

Because every counter is updated by ``+delta``/``-delta`` symmetrically,
a matched insert/delete pair leaves the signature exactly as if the pair
had never been seen — this is what makes the whole sketch
delete-resistant.  A bucket holding exactly one *distinct* pair (with any
positive multiplicity) can be recognized and decoded: every bit count is
either 0 (bit is 0) or equal to the total (bit is 1); any intermediate
value witnesses a collision.
"""

from __future__ import annotations

from typing import List, Optional

from ..exceptions import MergeError, ParameterError


class CountSignature:
    """The counter array for one second-level hash bucket.

    Args:
        pair_bits: number of bits in the pair encoding (``2 log2 m``).

    The signature is conceptually the slice ``X[i, j, k, *]`` of the
    paper's four-dimensional sketch array: index 0 is the total count,
    indices ``1..pair_bits`` are the bit-location counts (we store the
    total separately for clarity).
    """

    __slots__ = ("pair_bits", "total", "bit_counts")

    def __init__(self, pair_bits: int) -> None:
        if pair_bits < 1:
            raise ParameterError(f"pair_bits must be >= 1, got {pair_bits}")
        self.pair_bits = pair_bits
        self.total = 0
        self.bit_counts: List[int] = [0] * pair_bits

    def update(self, pair_code: int, delta: int) -> None:
        """Apply one stream update for ``pair_code`` with weight ``delta``.

        Adds ``delta`` to the total and to the counter of every set bit
        of ``pair_code``.  Cost: O(popcount) <= O(pair_bits).
        """
        # Bits above pair_bits would silently corrupt recovery; catch the
        # programming error instead (the domain layer normally prevents it).
        if pair_code >> self.pair_bits:
            raise ParameterError(
                f"pair code {pair_code} needs more than {self.pair_bits} bits"
            )
        self.total += delta
        bits = self.bit_counts
        code = pair_code
        while code:
            low = code & -code
            bits[low.bit_length() - 1] += delta
            code ^= low

    @property
    def is_zero(self) -> bool:
        """True when every counter is zero (bucket holds nothing)."""
        if self.total != 0:
            return False
        return not any(self.bit_counts)

    def recover_singleton(self) -> Optional[int]:
        """Decode the unique pair in this bucket, if it is a singleton.

        Implements the paper's ``ReturnSingleton`` test: the bucket is a
        singleton iff the total is positive and each bit count is either
        0 or equal to the total.  Returns the decoded pair code, or
        ``None`` for an empty bucket or a collision.
        """
        total = self.total
        if total <= 0:
            # Empty (or, in an ill-formed stream, negative) bucket.
            return None
        code = 0
        for index, count in enumerate(self.bit_counts):
            if count == total:
                code |= 1 << index
            elif count != 0:
                return None  # collision: >= 2 distinct pairs
        return code

    # linear: merge must stay an exact integer addition (RL013)
    def merge(self, other: "CountSignature") -> None:
        """Add ``other``'s counters into this signature in place.

        Valid because the sketch is linear: the merged signature equals
        the signature of the concatenated streams.
        """
        if other.pair_bits != self.pair_bits:
            raise MergeError(
                f"cannot merge signatures of widths {self.pair_bits} "
                f"and {other.pair_bits}"
            )
        self.total += other.total
        mine = self.bit_counts
        for index, count in enumerate(other.bit_counts):
            mine[index] += count

    # linear: subtract must stay an exact integer subtraction (RL013)
    def subtract(self, other: "CountSignature") -> None:
        """Subtract ``other``'s counters from this signature in place.

        Valid because the sketch is linear: subtracting the signature of
        a sub-stream yields exactly the signature of the remaining
        stream, as if the subtracted updates had never been seen.
        """
        if other.pair_bits != self.pair_bits:
            raise MergeError(
                f"cannot subtract signatures of widths {self.pair_bits} "
                f"and {other.pair_bits}"
            )
        self.total -= other.total
        mine = self.bit_counts
        for index, count in enumerate(other.bit_counts):
            mine[index] -= count

    # linear: adding a counter row is exact integer addition (RL013)
    def add_counters(self, values: List[int]) -> None:
        """Add a ``[total, bit_0, ..., bit_{pair_bits-1}]`` row in place.

        The row layout of :meth:`counter_values`; how a folded delta row
        (a whole sub-stream's contribution to this bucket) lands.
        """
        if len(values) != self.pair_bits + 1:
            raise MergeError(
                f"cannot add {len(values)} counters to a signature of "
                f"width {self.pair_bits}"
            )
        self.total += values[0]
        mine = self.bit_counts
        for index in range(self.pair_bits):
            mine[index] += values[index + 1]

    def copy(self) -> "CountSignature":
        """Return an independent copy of this signature."""
        clone = CountSignature(self.pair_bits)
        clone.total = self.total
        clone.bit_counts = list(self.bit_counts)
        return clone

    def counter_values(self) -> List[int]:
        """Return ``[total, bit_0, ..., bit_{pair_bits-1}]`` (a copy)."""
        return [self.total] + list(self.bit_counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountSignature):
            return NotImplemented
        return (
            self.pair_bits == other.pair_bits
            and self.total == other.total
            and self.bit_counts == other.bit_counts
        )

    def __repr__(self) -> str:
        return (
            f"CountSignature(pair_bits={self.pair_bits}, total={self.total})"
        )
