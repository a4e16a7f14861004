"""The packed counter slab: flat storage for the sketch hot path.

Figure 2 of the paper is one 4-d counter array ``X[level, table,
bucket, counter]``.  The reference store keeps one
:class:`~repro.sketch.signature.CountSignature` heap object (plus a
boxed-int list) per occupied bucket; at line rate that object overhead
dominates the ``O(r log m)`` counter cost the paper promises
(Section 3).  A :class:`SignatureArena` packs the whole array into a
single flat ``array('q')`` of stride ``pair_bits + 1``:

``[total, bit_0, ..., bit_{pair_bits-1}] [total, bit_0, ...] ...``

one row per occupied *key*.  The sketch owns the key arithmetic — a
bucket's key is its flat id ``(level * r + j) * s + bucket`` — so the
arena only sees keys in ``[0, range_size)``.  A ``key -> slot`` map
(a dense int64 index up to :data:`MAX_DENSE_RANGE` keys, a dict
beyond) sits on top, with the inverse ``slot -> key`` map kept as an
int64 array, and free-slot recycling when a row nets back to zero
(pruned rows are already all-zero, so recycled slots need no
clearing).

The layout is fold-friendly: :meth:`fold` adds a block of rows for
distinct keys with one gather, one add and one write-back, and
returns the before and after images of the block, which
:meth:`fold_changes` diffs for the tracking sketch without re-reading
the buffer.  Query decode views the buffer as one ``(slots, stride)``
int64 matrix (:meth:`decode_slab`, split by level in
:meth:`decode_levels`).

The arena's surface is the one the sketch runs against either store
(the reference store is
:class:`~repro.sketch.signature.SignatureTable`): per-key ``update`` /
``get`` / ``singleton_at``, per-level ``decode_levels``, ``fold`` and
``fold_changes``, ``export_rows``, ``occupied_keys``,
``occupied_per_table``, ``copy`` and the delta record.
:class:`CountSignature` remains the interchange type: :meth:`get`
returns an independent copy, never a view into the buffer.

Counters are 64-bit here versus unbounded ints in the reference store;
they saturate only beyond ``2^63 - 1`` net occurrences of one bucket,
far past any feasible stream.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .._accel import np as _np
from ..exceptions import MergeError, ParameterError
from ..obs.trace import span as trace_span
from .signature import CountSignature

#: Largest key range for which a dense key -> slot index is kept
#: (8 bytes per key; beyond this the sparse dict is used).
MAX_DENSE_RANGE = 65536


def singleton_mask(matrix: Any) -> Tuple[Any, Any]:  # hot-path
    """The slab-decode kernel: ``ReturnSingleton`` over whole matrices.

    ``matrix`` is a ``(rows, stride)`` counter matrix of any integer
    dtype with the totals in column 0.  Evaluates the paper's singleton
    predicate for every row at once — a row is a singleton iff its
    total is positive and each bit counter is either 0 or equal to the
    total — and returns ``(ok, ne)``: the bool singleton mask and the
    full ``counter != total`` comparison, whose negated columns ``1:``
    are the decoded pair bits of each row (callers negate only the rows
    they decode).  All-zero (freed) rows come out not-ok, so full arena
    buffers can be decoded without masking out recycled slots first.
    """
    ne = matrix != matrix[:, :1]
    bad = matrix != 0
    # Column 0 of bad self-cancels (total != total is never true), so
    # the row-wise any() needs no column slicing.
    _np.logical_and(bad, ne, out=bad)
    ok = ~bad.any(axis=1)
    _np.logical_and(ok, matrix[:, 0] > 0, out=ok)
    return ok, ne


def pack_codes(eq_bits: Any) -> Any:  # hot-path
    """Reassemble uint64 pair codes from a ``(rows, pair_bits)`` bit mask.

    Bit ``i`` of row ``r``'s code is set iff ``eq_bits[r, i]`` — the
    vectorized form of the scalar decoder's ``code |= 1 << i``, for
    ``pair_bits <= 64`` (the arena's limit).
    """
    width = eq_bits.shape[1]
    if width % 64:
        pad = _np.zeros((eq_bits.shape[0], 64 - width % 64), dtype=bool)
        eq_bits = _np.concatenate([eq_bits, pad], axis=1)
    packed = _np.packbits(eq_bits, axis=1, bitorder="little")
    return packed.view(_np.dtype("<u8")).reshape(-1)


class SignatureArena:
    """Packed :class:`CountSignature` storage keyed by flat bucket id.

    Args:
        pair_bits: width of the pair encoding (``2 log2 m``), at most
            64 (one uint64 pair code); each slot holds ``pair_bits + 1``
            counters (total first).
        range_size: the key range; a sketch's slab has
            ``num_levels * r * s`` keys.  Keys are validated against it
            only through the dense index size.
    """

    __slots__ = (
        "pair_bits", "stride", "range_size",
        "_buf", "_slots", "_key_of", "_free", "_zeros", "_dense",
        "_view", "_marked", "_blocks",
    )

    def __init__(self, pair_bits: int, range_size: int) -> None:
        if not 1 <= pair_bits <= 64:
            raise ParameterError(
                f"pair_bits must lie in [1, 64], got {pair_bits}"
            )
        if range_size < 1:
            raise ParameterError(
                f"range_size must be >= 1, got {range_size}"
            )
        self.pair_bits = pair_bits
        #: Counters per slot: the total plus one per pair bit.
        self.stride = pair_bits + 1
        self.range_size = range_size
        self._buf = array("q")
        #: key -> slot for every occupied key.
        self._slots: Dict[int, int] = {}
        #: slot -> key (-1 for free slots), with spare capacity past
        #: the last slot; an array so decode sweeps index it directly.
        self._key_of: Any = _np.full(64, -1, dtype=_np.int64)
        #: Recycled slot indices (their rows are all-zero by invariant).
        self._free: List[int] = []
        # Reused zero row so growth never allocates a fresh list.
        self._zeros = array("q", bytes(8 * self.stride))
        self._dense: Any = None
        if range_size <= MAX_DENSE_RANGE:
            self._dense = _np.full(range_size, -1, dtype=_np.int64)
        # Cached buffer view (see view2d); dropped before any growth.
        self._view: Any = None
        # Dirty-key index for delta propagation (None = tracking off):
        # one bool per key, set on the key's first touch since the last
        # drain, when its counter row before that touch (its baseline)
        # is appended to ``_blocks`` as part of a ``(keys, baseline
        # rows)`` block.
        self._marked: Any = None
        self._blocks: List[Tuple[Any, Any]] = []

    # -- slot management -----------------------------------------------------

    def _slot_count(self) -> int:
        """Slots in the buffer, free ones included."""
        return len(self._buf) // self.stride

    def _allocate(self, key: int) -> int:  # hot-path
        """Bind ``key`` to a zeroed slot (recycled or fresh)."""
        free = self._free
        if free:
            slot = free.pop()
        else:
            slot = self._slot_count()
            # Release the cached view's buffer export first: ``array``
            # refuses to resize while a view holds its memory.
            self._view = None
            self._buf.extend(self._zeros)
            if slot == len(self._key_of):
                grown = _np.full(2 * slot, -1, dtype=_np.int64)
                grown[:slot] = self._key_of
                self._key_of = grown
        self._key_of[slot] = key
        self._slots[key] = slot
        if self._dense is not None:
            self._dense[key] = slot
        return slot

    def _release(self, key: int, slot: int) -> None:  # hot-path
        """Unbind an all-zero slot and queue it for reuse."""
        del self._slots[key]
        self._key_of[slot] = -1
        if self._dense is not None:
            self._dense[key] = -1
        self._free.append(slot)

    def slot_keys(self) -> Any:
        """The key of every slot (int64 ndarray, -1 for free slots).

        Row ``i`` of :meth:`view2d` holds the counters of key
        ``slot_keys()[i]``.  A view: valid until the next allocation.
        """
        return self._key_of[:self._slot_count()]

    def occupied_keys(self) -> Any:
        """Every occupied key, ascending (int64 ndarray)."""
        keys = self.slot_keys()
        return _np.sort(keys[keys >= 0])

    def occupied_per_table(self, width: int) -> Any:
        """Occupied keys in each table of ``width`` consecutive keys.

        An int64 ndarray with one count per table of the key range
        (``range_size // width`` tables; ``width`` must divide the
        range), counted by one ``bincount`` of the slot keys, free
        slots left out: no sort.
        """
        keys = self.slot_keys()
        return _np.bincount(
            keys[keys >= 0] // width, minlength=self.range_size // width
        )

    # -- delta propagation (dirty-key tracking) -------------------------------

    def track_deltas(self, enabled: bool = True) -> None:
        """Switch dirty-key tracking on or off.

        While enabled, every mutation records the touched key's
        *baseline* (its counter row before the first touch since the
        last drain), so :meth:`drain_deltas` can ship exact signed
        counter deltas instead of full state.  Off by default: only
        shard workers pay the bookkeeping (one bool per key plus the
        baseline rows of the keys touched since the last drain).
        """
        if not enabled:
            self._marked = None
            self._blocks = []
        elif self._marked is None:
            self._marked = _np.zeros(self.range_size, dtype=bool)

    def reset_deltas(self) -> None:
        """Forget all recorded baselines (a full sync just shipped)."""
        if self._marked is not None:
            self._marked.fill(False)
        self._blocks = []

    def _mark_dirty(self, keys: Any, before: Any) -> None:  # hot-path
        """Record baselines for the first-touched of ``keys``.

        ``keys`` is an int64 ndarray of distinct keys and ``before``
        their ``(len(keys), stride)`` counter rows as they stand before
        this touch; the rows of keys not yet marked since the last
        drain are copied into a new block.
        """
        marked = self._marked
        fresh = ~marked[keys]
        if bool(fresh.all()):
            self._blocks.append((keys.copy(), before.copy()))
        elif bool(fresh.any()):
            self._blocks.append((keys[fresh], before[fresh]))
        else:
            return
        marked[keys] = True

    def _note_key(self, key: int) -> None:
        """Record ``key``'s baseline row on first touch since drain
        (tracking must be on)."""
        if self._marked[key]:
            return
        slot = self._slots.get(key)
        row = self._zeros if slot is None else self._buf[
            slot * self.stride:(slot + 1) * self.stride
        ]
        self._mark_dirty(
            _np.array([key], dtype=_np.int64),
            _np.frombuffer(row, dtype=_np.int64).reshape(1, self.stride),
        )

    def _slots_of(self, keys: Any) -> Any:
        """Slot index per key (int64 ndarray, -1 where unoccupied)."""
        if self._dense is not None:
            return self._dense[keys]
        owners = self.slot_keys()
        if not len(owners):
            return _np.full(len(keys), -1, dtype=_np.int64)
        order = _np.argsort(owners)
        ranked = owners[order]
        where = _np.minimum(_np.searchsorted(ranked, keys), len(ranked) - 1)
        return _np.where(ranked[where] == keys, order[where], -1)

    # linear: delta extraction is exact counter subtraction (RL013)
    def drain_deltas(self) -> Tuple[Any, Any]:  # hot-path
        """Extract and clear the signed counter deltas since last drain.

        Returns ``(keys, rows)`` as flat int64 ndarrays: ``rows`` holds
        one ``stride``-wide delta row per key, where each delta is the
        key's current counter minus its recorded baseline (zeros for
        keys that were empty, or that have been freed, at either end).
        Keys come in first-touch order.  Keys whose deltas net to zero
        are skipped entirely — a touched-then-reverted key costs no
        wire bytes.  Linearity makes folding these rows into another
        sketch by addition exact (Section 3).

        One gather of the dirty keys' current rows, one subtract of
        their baselines, one drop of the all-zero rows.
        """
        blocks = self._blocks
        if not blocks:
            return (
                _np.empty(0, dtype=_np.int64),
                _np.empty(0, dtype=_np.int64),
            )
        self._blocks = []
        keys = _np.concatenate([block[0] for block in blocks])
        deltas = _np.concatenate([block[1] for block in blocks])
        _np.negative(deltas, out=deltas)
        self._marked[keys] = False
        slots = self._slots_of(keys)
        held = _np.flatnonzero(slots >= 0)
        if len(held):
            deltas[held] += self.view2d()[slots[held]]
        moved = deltas.any(axis=1)
        return keys[moved], deltas[moved].reshape(-1)

    def export_rows(self) -> Tuple[Any, Any]:
        """Every occupied key's full counter row, as flat int64 ndarrays.

        The full-resync form of :meth:`drain_deltas`, in ascending key
        order: relative to an empty sketch the absolute rows *are* the
        deltas, so a parent can rebuild its running sum from scratch by
        folding these in.  Does not touch the dirty index (callers pair
        this with :meth:`reset_deltas` when it marks a sync point).
        """
        keys = self.slot_keys()
        slots = _np.flatnonzero(keys >= 0)
        slots = slots[_np.argsort(keys[slots])]
        return keys[slots], self.view2d()[slots].reshape(-1)

    # -- per-update fast path ------------------------------------------------

    def update(self, key: int, pair_code: int, delta: int) -> None:  # hot-path
        """Apply one stream update to ``key``, pruning zeroed rows.

        Mirrors ``CountSignature.update`` plus the store-level
        create-on-miss / delete-on-zero bookkeeping of the reference
        update loop, without materializing any signature object.
        """
        if pair_code >> self.pair_bits:
            raise ParameterError(
                f"pair code {pair_code} needs more than "
                f"{self.pair_bits} bits"
            )
        if self._marked is not None:
            self._note_key(key)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._allocate(key)
        buf = self._buf
        base = slot * self.stride
        buf[base] += delta
        code = pair_code
        while code:
            low = code & -code
            buf[base + low.bit_length()] += delta
            code ^= low
        if buf[base] == 0:
            for offset in range(base + 1, base + self.stride):
                if buf[offset]:
                    return
            self._release(key, slot)

    def singleton_at(self, key: int) -> Optional[int]:  # hot-path
        """Decode the key's unique pair code, or ``None``.

        The paper's ``ReturnSingleton`` test evaluated in place: the
        row is a singleton iff the total is positive and each bit
        count is either 0 or equal to the total.
        """
        slot = self._slots.get(key)
        if slot is None:
            return None
        buf = self._buf
        base = slot * self.stride
        total = buf[base]
        if total <= 0:
            return None
        code = 0
        for index in range(1, self.stride):
            count = buf[base + index]
            if count == total:
                code |= 1 << (index - 1)
            elif count != 0:
                return None
        return code

    # -- batch engine surface -------------------------------------------------

    def resolve_slots(self, keys: Any) -> Any:  # hot-path
        """Slot index per key (int64 ndarray), allocating on miss.

        Allocation may grow (and therefore reallocate) the underlying
        buffer, so callers must create :meth:`view2d` only *after* this
        call.
        """
        if self._dense is not None:
            slots = self._dense[keys]
            if bool((slots < 0).any()):
                dense = self._dense
                key_list = keys.tolist()
                for position in _np.nonzero(slots < 0)[0].tolist():
                    key = key_list[position]
                    slot = int(dense[key])
                    if slot < 0:
                        slot = self._allocate(key)
                    slots[position] = slot
            return slots
        table = self._slots
        out = _np.empty(len(keys), dtype=_np.int64)
        for position, key in enumerate(keys.tolist()):
            slot = table.get(key)
            if slot is None:
                slot = self._allocate(key)
            out[position] = slot
        return out

    def view2d(self) -> Any:
        """Writable ``(slots, stride)`` int64 view of the raw buffer.

        The view is cached between calls and re-created after buffer
        growth.  Invalidated by any later allocation (growth may move
        the buffer): create after :meth:`resolve_slots`, use, drop.
        """
        view = self._view
        if view is not None:
            return view
        if not self._buf:
            return _np.empty((0, self.stride), dtype=_np.int64)
        view = _np.frombuffer(self._buf, dtype=_np.int64).reshape(
            -1, self.stride
        )
        self._view = view
        return view

    # linear: the fold is exact integer addition (RL013)
    def fold(self, keys: Any, rows: Any) -> Any:  # hot-path
        """Add ``rows[i]`` into the row of ``keys[i]``; keys are distinct.

        One gather of the touched rows, one add, one write-back:
        ``keys`` is an int64 ndarray of distinct keys and ``rows`` the
        matching ``(len(keys), stride)`` integer matrix.  Missing keys
        get fresh slots, rows that net to zero are released (so absent
        always means empty), and dirty-key baselines are recorded from
        the gathered block.  Returns the ``(2, len(keys), stride)``
        int64 images of the block before and after the add.

        Raises:
            MergeError: when ``rows`` is not ``stride`` counters wide.
        """
        count = len(keys)
        stride = self.stride
        if rows.shape != (count, stride):
            raise MergeError(
                f"cannot fold rows of shape {rows.shape} into an arena "
                f"of stride {stride}"
            )
        images = _np.empty((2, count, stride), dtype=_np.int64)
        if not count:
            return images
        slots = self.resolve_slots(keys)
        view = self.view2d()
        before = images[0]
        after = images[1]
        _np.take(view, slots, axis=0, out=before)
        _np.add(before, rows, out=after)
        view[slots] = after
        if self._marked is not None:
            self._mark_dirty(keys, before)
        zero = ~after.any(axis=1)
        if bool(zero.any()):
            release = self._release
            key_list = keys.tolist()
            slot_list = slots.tolist()
            for position in _np.flatnonzero(zero).tolist():
                release(key_list[position], slot_list[position])
        return images

    def decode_slab(self, narrow: bool = False) -> Tuple[Any, Any]:  # hot-path
        """Decode every occupied row of the arena in one pass.

        The whole-slab form of the paper's ``GetdSample`` inner loop:
        one application of :func:`singleton_mask` over the full buffer
        (free rows are all-zero and fail the predicate, so no slot
        gather is needed).  Returns ``(keys, codes)``: the int64 key
        and uint64 pair code of every singleton row, in slot order.
        ``narrow`` runs the predicate over a 32-bit copy of the
        counters — half the bytes through every pass — which is exact
        only while every counter fits 32 bits (the caller's proof).
        """
        with trace_span("arena.decode_slab"):
            view = self.view2d()
            if narrow:
                view = view.astype(_np.int32)
            ok, ne = singleton_mask(view)
            index = _np.flatnonzero(ok)
            return self.slot_keys()[index], pack_codes(~ne[index, 1:])

    def decode_levels(
        self, levels: Sequence[int], width: int, narrow: bool = False
    ) -> Iterator[Tuple[List[int], int]]:  # hot-path
        """Decode each level of ``levels``, in order: ``GetdSample``'s scan.

        A level is ``width`` consecutive keys (a sketch's ``r * s``
        buckets).  Yields ``(codes, collisions)`` per level: the pair
        code of each singleton row (a pair that is a singleton in
        several tables comes once per table) and the number of the
        level's other occupied rows.  One :meth:`decode_slab` pass
        (``narrow`` as there) runs before the first level and is split
        by level ``key // width``, so a walk that stops early has still
        decoded the whole arena.
        """
        keys, codes = self.decode_slab(narrow)
        code_levels = keys // width
        order = _np.argsort(code_levels, kind="stable")
        code_list = codes[order].tolist()
        occupied = self.occupied_per_table(width).tolist()
        cuts = _np.searchsorted(
            code_levels[order], _np.arange(len(occupied) + 1)
        ).tolist()
        for level in levels:
            lo = cuts[level]
            hi = cuts[level + 1]
            yield code_list[lo:hi], occupied[level] - (hi - lo)

    def fold_changes(
        self, keys: Any, rows: Any, first: int
    ) -> List[Tuple[int, Optional[int], Optional[int]]]:  # hot-path
        """:meth:`fold`, reporting the keys from ``first`` on whose
        singleton occupant changed.

        ``keys`` ascend, as every sketch fold's do.  Every key is
        folded; returns ``(key, before, after)`` per key ``>= first``
        whose occupant changed, in block order: its singleton pair code
        before and after the fold, ``None`` where it held none.  The
        block is cut at ``first`` by one ``searchsorted`` (none when
        the block lies wholly on one side), one :func:`singleton_mask`
        pass decodes both of the kept images, only the rows that are a
        singleton on either side are packed into codes, and Python
        touches only the rows whose occupant changed.
        """
        images = self.fold(keys, rows)
        count = len(keys)
        if not count or keys[-1] < first:
            return []
        if keys[0] < first:
            cut = int(keys.searchsorted(first))
            keys = keys[cut:]
            images = images[:, cut:]
            count -= cut
        ok, ne = singleton_mask(images.reshape(2 * count, self.stride))
        either = (ok[:count] | ok[count:]).nonzero()[0]
        if not len(either):
            return []
        was = ok[either]
        now = ok[either + count]
        before = pack_codes(~ne[either, 1:])
        after = pack_codes(~ne[either + count, 1:])
        changed = ((was != now) | (before != after)).nonzero()[0]
        if not len(changed):
            return []
        return [
            (key, old if was_one else None, new if now_one else None)
            for key, was_one, old, now_one, new in zip(
                keys[either[changed]].tolist(),
                was[changed].tolist(),
                before[changed].tolist(),
                now[changed].tolist(),
                after[changed].tolist(),
            )
        ]

    def copy(self) -> "SignatureArena":
        """Deep, independent copy of this arena (same slot layout)."""
        clone = SignatureArena(self.pair_bits, self.range_size)
        clone._buf = array("q", self._buf)
        clone._slots = dict(self._slots)
        clone._key_of = self._key_of.copy()
        clone._free = list(self._free)
        if self._dense is not None and clone._dense is not None:
            clone._dense = self._dense.copy()
        return clone

    # -- container surface ----------------------------------------------------

    def get(self, key: int) -> Optional[CountSignature]:
        """The key's signature (a copy), or ``None`` if empty."""
        slot = self._slots.get(key)
        if slot is None:
            return None
        base = slot * self.stride
        row = self._buf[base:base + self.stride].tolist()
        signature = CountSignature(self.pair_bits)
        signature.total = row[0]
        signature.bit_counts = row[1:]
        return signature

    def __contains__(self, key: object) -> bool:
        return key in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def __bool__(self) -> bool:
        return bool(self._slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignatureArena):
            return NotImplemented
        if self.pair_bits != other.pair_bits or len(self) != len(other):
            return False
        mine_keys, mine_rows = self.export_rows()
        their_keys, their_rows = other.export_rows()
        return bool(
            _np.array_equal(mine_keys, their_keys)
            and _np.array_equal(mine_rows, their_rows)
        )

    # Mutable container: never hashable.
    __hash__ = None  # type: ignore[assignment]

    # -- state interchange ----------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Slot state minus the cached buffer view.

        A pickled ``frombuffer`` view would come back as an independent
        copy — silently divergent from ``_buf`` — so the cache never
        crosses a serialization boundary.  The dirty-key index stays
        behind too: it describes a live transport session (baselines
        since one parent's last drain), meaningless to a restored copy.
        """
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_view", "_marked", "_blocks")
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._marked = None
        self._blocks = []
        for name, value in state.items():
            setattr(self, name, value)
        self._view = None

    def __repr__(self) -> str:
        return (
            f"SignatureArena(pair_bits={self.pair_bits}, "
            f"occupied={len(self._slots)}, "
            f"slots={self._slot_count()})"
        )
