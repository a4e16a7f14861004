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

:class:`SignatureTable` is the paper-faithful store of a whole sketch's
signatures (``backend="reference"``, the test oracle): one sparse
``bucket -> CountSignature`` dict per second-level table, behind the
same flat-key surface as the packed
:class:`~repro.sketch.arena.SignatureArena`.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .._accel import np as _np
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


class SignatureTable:
    """Reference counter store: a sparse signature dict per table.

    Args:
        pair_bits: width of the pair encoding (``2 log2 m``).
        tables: number of second-level tables (``num_levels * r`` for
            a sketch).
        width: buckets per table (the sketch's ``s``).

    Figure 2's ``X[level, table, bucket, ·]`` as the paper draws it:
    each second-level table keeps one :class:`CountSignature` object
    per occupied bucket, with unbounded integer counters.  The surface
    is the packed :class:`~repro.sketch.arena.SignatureArena`'s: a
    bucket is addressed by its flat key ``table * width + bucket``
    (``(level * r + j) * s + bucket`` in a sketch), so the sketch runs
    one body against either store.  Absent always means empty: a
    signature that nets to zero is pruned.
    """

    __slots__ = ("pair_bits", "stride", "width", "_tables", "_delta_base")

    def __init__(self, pair_bits: int, tables: int, width: int) -> None:
        if pair_bits < 1:
            raise ParameterError(f"pair_bits must be >= 1, got {pair_bits}")
        if tables < 1 or width < 1:
            raise ParameterError(
                f"a store needs >= 1 table of >= 1 bucket, got "
                f"{tables} x {width}"
            )
        self.pair_bits = pair_bits
        #: Counters per signature: the total plus one per pair bit.
        self.stride = pair_bits + 1
        self.width = width
        #: Per table, flat key -> signature of every occupied bucket.
        self._tables: List[Dict[int, CountSignature]] = [
            {} for _ in range(tables)
        ]
        #: Counter rows as of the last delta drain (None = tracking off).
        self._delta_base: Optional[Tuple[Any, Any]] = None

    def update(self, key: int, pair_code: int, delta: int) -> None:
        """Apply one stream update to ``key``'s signature.

        Creates the signature on a miss and prunes it when it nets to
        zero, which also keeps the store identical to one that never
        saw a deleted pair.
        """
        table = self._tables[key // self.width]
        signature = table.get(key)
        if signature is None:
            signature = table[key] = CountSignature(self.pair_bits)
        signature.update(pair_code, delta)
        if signature.is_zero:
            del table[key]

    def get(self, key: int) -> Optional[CountSignature]:
        """The key's stored signature (not a copy), or ``None``."""
        return self._tables[key // self.width].get(key)

    def singleton_at(self, key: int) -> Optional[int]:
        """Decode the key's unique pair code, or ``None``."""
        signature = self._tables[key // self.width].get(key)
        return None if signature is None else signature.recover_singleton()

    def decode_levels(
        self, levels: Sequence[int], width: int, narrow: bool = False
    ) -> Iterator[Tuple[List[int], int]]:
        """Decode each level of ``levels``, in order: ``GetdSample``'s scan.

        A level is ``width`` consecutive keys, whole tables (a sketch's
        ``r`` tables of ``s``).  Yields ``(codes, collisions)`` per
        level, as the packed
        :meth:`~repro.sketch.arena.SignatureArena.decode_levels` does,
        decoding a level's tables signature by signature only when the
        walk reaches it.  ``narrow`` is accepted for that surface and
        ignored: these counters are unbounded integers.

        Raises:
            ParameterError: when ``width`` is not a whole number of
                tables.
        """
        if width % self.width:
            raise ParameterError(
                f"levels of {width} keys split tables of {self.width}"
            )
        per_level = width // self.width
        for level in levels:
            codes: List[int] = []
            collisions = 0
            first = level * per_level
            for table in self._tables[first:first + per_level]:
                for signature in table.values():
                    pair = signature.recover_singleton()
                    if pair is None:
                        collisions += 1
                    else:
                        codes.append(pair)
            yield codes, collisions

    # linear: signature folding is exact integer addition (RL013)
    def fold(self, keys: Any, rows: Any) -> None:
        """Add ``rows[i]`` into the signature of ``keys[i]``.

        ``keys`` are distinct and ``rows`` holds one ``[total, bit_0,
        ...]`` row per key (int64, or Python ints for counters beyond
        64 bits).  Creates signatures on a miss and prunes those that
        net to zero.
        """
        for key, row in zip(keys.tolist(), rows.tolist()):
            self._add_row(key, row)

    def fold_changes(
        self, keys: Any, rows: Any
    ) -> List[Tuple[int, Optional[int], Optional[int]]]:
        """:meth:`fold`, reporting the keys whose singleton occupant changed.

        Returns ``(key, before, after)`` per such key, in block order,
        as the packed
        :meth:`~repro.sketch.arena.SignatureArena.fold_changes` does:
        each key's ``recover_singleton`` before and after its add, exact
        at any pair width.
        """
        changes: List[Tuple[int, Optional[int], Optional[int]]] = []
        singleton_at = self.singleton_at
        for key, row in zip(keys.tolist(), rows.tolist()):
            before = singleton_at(key)
            self._add_row(key, row)
            after = singleton_at(key)
            if before != after:
                changes.append((key, before, after))
        return changes

    # linear: a counter row lands by exact integer addition (RL013)
    def _add_row(self, key: int, row: List[int]) -> None:
        """Add one counter row to ``key``'s signature, creating on a
        miss and pruning at zero."""
        table = self._tables[divmod(key, self.width)[0]]
        signature = table.get(key)
        if signature is None:
            signature = table[key] = CountSignature(self.pair_bits)
        signature.add_counters(row)
        if signature.is_zero:
            del table[key]

    def occupied_keys(self) -> Any:
        """Every occupied key, ascending (int64 ndarray)."""
        keys = _np.fromiter(chain.from_iterable(self._tables), _np.int64)
        keys.sort()
        return keys

    def occupied_per_table(self, width: int) -> Any:
        """Occupied keys in each table (int64 ndarray): each table's
        dict size.

        Raises:
            ParameterError: when ``width`` is not the store's table
                width.
        """
        if width != self.width:
            raise ParameterError(
                f"tables are {self.width} keys wide, not {width}"
            )
        tables = self._tables
        return _np.fromiter(map(len, tables), _np.int64, len(tables))

    def export_rows(self) -> Tuple[Any, Any]:
        """Every occupied key's counter row, as flat int64 ndarrays.

        Keys ascend; ``rows`` holds ``stride`` counters per key.
        """
        keys: List[int] = []
        rows: List[int] = []
        for table in self._tables:
            for key in sorted(table):
                signature = table[key]
                keys.append(key)
                rows.append(signature.total)
                rows += signature.bit_counts
        return _np.array(keys, dtype=_np.int64), _np.array(rows, _np.int64)

    # -- delta propagation ---------------------------------------------------

    def track_deltas(self, enabled: bool = True) -> None:
        """Switch delta recording on (from the current state) or off."""
        if not enabled:
            self._delta_base = None
        elif self._delta_base is None:
            self._delta_base = self.export_rows()

    def reset_deltas(self) -> None:
        """Restart the record from the current state (if tracking)."""
        if self._delta_base is not None:
            self._delta_base = self.export_rows()

    # linear: deltas are exact counter differences (RL013)
    def drain_deltas(self) -> Tuple[Any, Any]:
        """The signed counter deltas since the last drain, then restart.

        Returns ``(keys, rows)`` as flat int64 ndarrays, keys ascending
        and keys whose deltas net to zero left out: the current rows
        diffed against a copy taken at the last drain.

        Raises:
            ParameterError: before :meth:`track_deltas`.
        """
        base = self._delta_base
        if base is None:
            raise ParameterError("drain_deltas needs track_deltas() first")
        keys, rows = self._delta_base = self.export_rows()
        stride = self.stride
        union = _np.union1d(keys, base[0])
        deltas = _np.zeros((len(union), stride), dtype=_np.int64)
        deltas[_np.searchsorted(union, keys)] += rows.reshape(-1, stride)
        deltas[_np.searchsorted(union, base[0])] -= base[1].reshape(
            -1, stride
        )
        moved = deltas.any(axis=1)
        return union[moved], deltas[moved].reshape(-1)

    def copy(self) -> "SignatureTable":
        """Deep, independent copy (delta tracking off)."""
        clone = SignatureTable(self.pair_bits, len(self._tables), self.width)
        clone._tables = [
            {key: signature.copy() for key, signature in table.items()}
            for table in self._tables
        ]
        return clone

    def __len__(self) -> int:
        return sum(map(len, self._tables))

    def __bool__(self) -> bool:
        return any(self._tables)

    def __repr__(self) -> str:
        return (
            f"SignatureTable(pair_bits={self.pair_bits}, "
            f"tables={len(self._tables)}, width={self.width}, "
            f"occupied={len(self)})"
        )
