"""Packed signature arenas: flat counter storage for the sketch hot path.

The reference store keeps one :class:`~repro.sketch.signature.CountSignature`
heap object (plus a boxed-int list) per occupied second-level bucket.
At line rate that object overhead dominates the ``O(r log m)`` counter
cost the paper promises (Section 3).  A :class:`SignatureArena` packs
every signature of one ``(level, table)`` pair into a single flat
``array('q')`` of stride ``pair_bits + 1``:

``[total, bit_0, ..., bit_{pair_bits-1}] [total, bit_0, ...] ...``

with a sparse ``bucket -> slot`` map on top and free-slot recycling when
a row nets back to zero (pruned rows are already all-zero, so recycled
slots need no clearing).  The layout is scatter-friendly: the batch
engine views the buffer as a ``(slots, stride)`` int64 matrix and
applies a whole batch with one ``np.add.at`` per touched arena.

The arena also quacks like the reference ``Dict[int, CountSignature]``
store — ``get``/``items``/``values``/``len``/``in``/``==`` and friends —
so ``structurally_equal``, ``serialize``, and ``debug`` work unchanged
across backends.  :class:`CountSignature` remains the interchange type:
every accessor returns an independent copy, never a view into the
buffer.

Counters are 64-bit here versus unbounded ints in the reference store;
they saturate only beyond ``2^63 - 1`` net occurrences of one bucket,
far past any feasible stream (``array('q')`` raises ``OverflowError``
rather than wrapping, so even that cannot corrupt state silently).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .._accel import np as _np
from ..exceptions import MergeError, ParameterError
from ..obs.trace import span as trace_span
from .signature import CountSignature

#: Largest second-level range for which a dense bucket -> slot index is
#: kept (8 bytes per bucket; beyond this the sparse dict is used).
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
    vectorized form of the scalar decoder's ``code |= 1 << i``.  Only
    valid for ``pair_bits <= 64`` (callers gate wider domains to the
    scalar path).
    """
    width = eq_bits.shape[1]
    if width % 64:
        pad = _np.zeros((eq_bits.shape[0], 64 - width % 64), dtype=bool)
        eq_bits = _np.concatenate([eq_bits, pad], axis=1)
    packed = _np.packbits(eq_bits, axis=1, bitorder="little")
    return packed.view(_np.dtype("<u8")).reshape(-1)


class SignatureArena:
    """Packed :class:`CountSignature` storage for one ``(level, table)``.

    Args:
        pair_bits: width of the pair encoding (``2 log2 m``); each slot
            holds ``pair_bits + 1`` counters (total first).
        range_size: the second-level hash range ``s`` (bucket indices
            are validated against it only through the dense index size).
    """

    __slots__ = (
        "pair_bits", "stride", "range_size",
        "_buf", "_slots", "_bucket_of", "_free", "_zeros", "_dense",
        "_view", "_dirty",
    )

    def __init__(self, pair_bits: int, range_size: int) -> None:
        if pair_bits < 1:
            raise ParameterError(f"pair_bits must be >= 1, got {pair_bits}")
        if range_size < 1:
            raise ParameterError(
                f"range_size must be >= 1, got {range_size}"
            )
        self.pair_bits = pair_bits
        #: Counters per slot: the total plus one per pair bit.
        self.stride = pair_bits + 1
        self.range_size = range_size
        self._buf = array("q")
        #: bucket -> slot for every occupied bucket.
        self._slots: Dict[int, int] = {}
        #: slot -> bucket (-1 for free slots); kept for O(1) pruning.
        self._bucket_of: List[int] = []
        #: Recycled slot indices (their rows are all-zero by invariant).
        self._free: List[int] = []
        # Reused zero row so growth never allocates a fresh list.
        self._zeros = array("q", bytes(8 * self.stride))
        self._dense: Any = None
        if range_size <= MAX_DENSE_RANGE:
            self._dense = _np.full(range_size, -1, dtype=_np.int64)
        # Cached buffer view (see view2d); dropped before any growth.
        self._view: Any = None
        # Dirty-bucket index for delta propagation (None = tracking
        # off): bucket -> the row's counter values at the moment the
        # bucket was first touched after the last drain (its baseline).
        self._dirty: Optional[Dict[int, List[int]]] = None

    # -- slot management -----------------------------------------------------

    def _allocate(self, bucket: int) -> int:  # hot-path
        """Bind ``bucket`` to a zeroed slot (recycled or fresh)."""
        free = self._free
        if free:
            slot = free.pop()
            self._bucket_of[slot] = bucket
        else:
            slot = len(self._buf) // self.stride
            # Release the cached view's buffer export first: ``array``
            # refuses to resize while a view holds its memory.
            self._view = None
            self._buf.extend(self._zeros)
            self._bucket_of.append(bucket)
        self._slots[bucket] = slot
        if self._dense is not None:
            self._dense[bucket] = slot
        return slot

    def _release(self, bucket: int, slot: int) -> None:  # hot-path
        """Unbind an all-zero slot and queue it for reuse."""
        del self._slots[bucket]
        self._bucket_of[slot] = -1
        if self._dense is not None:
            self._dense[bucket] = -1
        self._free.append(slot)

    # -- delta propagation (dirty-bucket tracking) ----------------------------

    def track_deltas(self, enabled: bool = True) -> None:
        """Switch dirty-bucket tracking on or off.

        While enabled, every mutation records the touched bucket's
        *baseline* (its counter row before the first touch since the
        last drain), so :meth:`drain_deltas` can ship exact signed
        counter deltas instead of full state.  Off by default: only
        delta-transport shard workers pay the bookkeeping.
        """
        if enabled:
            if self._dirty is None:
                self._dirty = {}
        else:
            self._dirty = None

    def reset_deltas(self) -> None:
        """Forget all recorded baselines (a full sync just shipped)."""
        if self._dirty is not None:
            self._dirty.clear()

    def _note_bucket(self, dirty: Dict[int, List[int]], bucket: int) -> None:
        """Record ``bucket``'s baseline row on first touch since drain."""
        if bucket in dirty:
            return
        slot = self._slots.get(bucket)
        if slot is None:
            dirty[bucket] = self._zeros.tolist()
        else:
            base = slot * self.stride
            dirty[bucket] = self._buf[base:base + self.stride].tolist()

    def note_touched(self, touched: Any) -> None:
        """Record baselines for a batch scatter's touched slots.

        Called by the batch engine *after* slot resolution and *before*
        the ``np.add.at`` scatter, so every baseline is the
        pre-mutation image.  ``touched`` holds distinct occupied slot
        indices (``np.unique`` output).  No-op unless tracking is on.
        """
        dirty = self._dirty
        if dirty is None:
            return
        bucket_of = self._bucket_of
        buf = self._buf
        stride = self.stride
        for slot in touched.tolist():
            bucket = bucket_of[slot]
            if bucket not in dirty:
                base = slot * stride
                dirty[bucket] = buf[base:base + stride].tolist()

    # linear: delta extraction is exact counter subtraction (RL013)
    def drain_deltas(self) -> Tuple[Any, Any]:
        """Extract and clear the signed counter deltas since last drain.

        Returns ``(buckets, rows)`` as flat ``array('q')`` runs:
        ``rows`` holds one ``stride``-wide delta row per bucket, where
        each delta is the bucket's current counter minus its recorded
        baseline (zeros for buckets that were empty, or that have been
        freed, at either end).  Buckets whose deltas net to zero are
        skipped entirely — a touched-then-reverted bucket costs no
        wire bytes.  Linearity makes folding these rows into another
        sketch by addition exact (Section 3).
        """
        buckets_out = array("q")
        rows_out = array("q")
        dirty = self._dirty
        if not dirty:
            return buckets_out, rows_out
        buf = self._buf
        stride = self.stride
        slots = self._slots
        zeros = self._zeros
        for bucket, baseline in dirty.items():
            slot = slots.get(bucket)
            if slot is None:
                current = zeros
            else:
                base = slot * stride
                current = buf[base:base + stride]
            row = [now - then for now, then in zip(current, baseline)]
            if any(row):
                buckets_out.append(bucket)
                rows_out.extend(row)
        dirty.clear()
        return buckets_out, rows_out

    def export_rows(self) -> Tuple[Any, Any]:
        """Every occupied bucket's full counter row, as flat arrays.

        The full-resync form of :meth:`drain_deltas`: relative to an
        empty sketch the absolute rows *are* the deltas, so a parent
        can rebuild its running sum from scratch by folding these in.
        Does not touch the dirty index (callers pair this with
        :meth:`reset_deltas` when it marks a sync point).
        """
        buckets_out = array("q")
        rows_out = array("q")
        buf = self._buf
        stride = self.stride
        for bucket, slot in self._slots.items():
            base = slot * stride
            buckets_out.append(bucket)
            rows_out.extend(buf[base:base + stride])
        return buckets_out, rows_out

    # -- per-update fast path ------------------------------------------------

    def update(self, bucket: int, pair_code: int, delta: int) -> None:  # hot-path
        """Apply one stream update to ``bucket``, pruning zeroed rows.

        Mirrors ``CountSignature.update`` plus the store-level
        create-on-miss / delete-on-zero bookkeeping of the reference
        update loop, without materializing any signature object.
        """
        if pair_code >> self.pair_bits:
            raise ParameterError(
                f"pair code {pair_code} needs more than "
                f"{self.pair_bits} bits"
            )
        dirty = self._dirty
        if dirty is not None:
            self._note_bucket(dirty, bucket)
        slot = self._slots.get(bucket)
        if slot is None:
            slot = self._allocate(bucket)
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
            self._release(bucket, slot)

    def singleton_at(self, bucket: int) -> Optional[int]:  # hot-path
        """Decode the bucket's unique pair code, or ``None``.

        The paper's ``ReturnSingleton`` test evaluated in place: the
        bucket is a singleton iff the total is positive and each bit
        count is either 0 or equal to the total.
        """
        slot = self._slots.get(bucket)
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

    def decode_occupied(self) -> Iterator[Optional[int]]:
        """Singleton decode (or ``None``) per occupied bucket, in place.

        One entry per occupied bucket, in slot-map order — the arena
        analogue of decoding every ``table.values()`` signature, without
        materializing any :class:`CountSignature`.
        """
        buf = self._buf
        stride = self.stride
        for slot in self._slots.values():
            base = slot * stride
            total = buf[base]
            if total <= 0:
                yield None
                continue
            code = 0
            singleton = True
            for index in range(1, stride):
                count = buf[base + index]
                if count == total:
                    code |= 1 << (index - 1)
                elif count != 0:
                    singleton = False
                    break
            yield code if singleton else None

    # -- batch engine surface -------------------------------------------------

    def resolve_slots(self, buckets: Any) -> Any:  # hot-path
        """Slot index per bucket (int64 ndarray), allocating on miss.

        Allocation may grow (and therefore reallocate) the underlying
        buffer, so callers must create :meth:`view2d` only *after* this
        call.
        """
        if self._dense is not None:
            slots = self._dense[buckets]
            if bool((slots < 0).any()):
                dense = self._dense
                bucket_list = buckets.tolist()
                for position in _np.nonzero(slots < 0)[0].tolist():
                    bucket = bucket_list[position]
                    slot = int(dense[bucket])
                    if slot < 0:
                        slot = self._allocate(bucket)
                    slots[position] = slot
            return slots
        table = self._slots
        out = _np.empty(len(buckets), dtype=_np.int64)
        for position, bucket in enumerate(buckets.tolist()):
            slot = table.get(bucket)
            if slot is None:
                slot = self._allocate(bucket)
            out[position] = slot
        return out

    def view2d(self) -> Any:
        """Writable ``(slots, stride)`` int64 view of the raw buffer.

        The view is cached between calls (decode sweeps request many
        slab views back to back) and re-created after buffer growth.
        Invalidated by any later allocation (growth may move the
        buffer): create after :meth:`resolve_slots`, use, drop.
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

    def _decode_rows(self, slots: Any) -> Tuple[Any, Any]:  # hot-path
        """Singleton test over the given slot rows via the slab kernel.

        Returns ``(ok, codes)`` ndarrays: a bool singleton mask and the
        decoded uint64 pair code per row (meaningful only where
        ``ok``).
        """
        rows = self.view2d()[slots]
        ok, ne = singleton_mask(rows)
        return ok, pack_codes(~ne[:, 1:])

    def decode_slots_raw(self, slots: Any) -> Tuple[Any, Any]:  # hot-path
        """Vectorized singleton decode returning raw ``(ok, codes)``.

        The allocation-free variant of :meth:`decode_slots` for callers
        that diff decode states with numpy (the tracking batch engine):
        ``ok`` is a bool mask, ``codes`` the uint64 pair code per row.
        Zeroed (freed) rows decode to not-ok, so the same call serves
        as the before- and after-image of a batch scatter.
        """
        if len(slots) == 0:
            empty = _np.empty(0, dtype=_np.uint64)
            return empty.astype(bool), empty
        return self._decode_rows(slots)

    def decode_slots(self, slots: Any) -> List[Optional[int]]:  # hot-path
        """Vectorized singleton decode of the given slot rows.

        Zeroed (freed) rows decode to ``None``, so the same call serves
        as the before- and after-image of a batch scatter.
        """
        count = len(slots)
        if count == 0:
            return []
        ok, codes = self._decode_rows(slots)
        ok_list = ok.tolist()
        code_list = codes.tolist()
        out: List[Optional[int]] = []
        append = out.append
        for index in range(count):
            append(code_list[index] if ok_list[index] else None)
        return out

    def decode_slab(self) -> Tuple[List[int], int]:  # hot-path
        """Decode every occupied bucket of the arena in one pass.

        The whole-slab form of the paper's ``GetdSample`` inner loop:
        returns ``(singleton pair codes, collision count)`` over all
        occupied buckets.  When the pair encoding fits 64 bits the
        entire slab is evaluated by a single application of the
        vectorized singleton predicate; wider encodings fall back to
        the scalar per-bucket decode with identical results.
        """
        occupied = len(self._slots)
        if occupied == 0:
            return [], 0
        with trace_span("arena.decode_slab"):
            if self.pair_bits > 64:
                codes_out: List[int] = []
                append = codes_out.append
                for code in self.decode_occupied():
                    if code is not None:
                        append(code)
                return codes_out, occupied - len(codes_out)
            # Decode the full buffer, free rows included: all-zero rows
            # fail the singleton predicate, so no slot gather is needed.
            ok, ne = singleton_mask(self.view2d())
            index = _np.nonzero(ok)[0]
            recovered: List[int] = pack_codes(~ne[index, 1:]).tolist()
            return recovered, occupied - len(recovered)

    def free_zero_slots(self, touched: Any) -> None:  # hot-path
        """Release every touched slot whose row netted to all zeros.

        ``touched`` must hold distinct occupied slot indices (the batch
        engine passes ``np.unique`` output).
        """
        if len(touched) == 0:
            return
        rows = self.view2d()[touched]
        zero = ~rows.any(axis=1)
        if not bool(zero.any()):
            return
        bucket_of = self._bucket_of
        for slot in touched[zero].tolist():
            self._release(bucket_of[slot], slot)

    # -- merge / interchange -------------------------------------------------

    # linear: merge must stay an exact integer addition (RL013)
    def merge_signature(self, bucket: int, signature: CountSignature) -> None:
        """Fold a signature's counters into ``bucket`` (pruning on zero)."""
        if signature.pair_bits != self.pair_bits:
            raise MergeError(
                f"cannot merge signatures of widths {self.pair_bits} "
                f"and {signature.pair_bits}"
            )
        dirty = self._dirty
        if dirty is not None:
            self._note_bucket(dirty, bucket)
        slot = self._slots.get(bucket)
        if slot is None:
            slot = self._allocate(bucket)
        buf = self._buf
        base = slot * self.stride
        buf[base] += signature.total
        counts = signature.bit_counts
        for index in range(self.pair_bits):
            buf[base + 1 + index] += counts[index]
        if buf[base] == 0:
            for offset in range(base + 1, base + self.stride):
                if buf[offset]:
                    return
            self._release(bucket, slot)

    # linear: subtract must stay an exact integer subtraction (RL013)
    def subtract_signature(self, bucket: int, signature: CountSignature) -> None:
        """Subtract a signature's counters from ``bucket`` (pruning on zero)."""
        if signature.pair_bits != self.pair_bits:
            raise MergeError(
                f"cannot subtract signatures of widths {self.pair_bits} "
                f"and {signature.pair_bits}"
            )
        dirty = self._dirty
        if dirty is not None:
            self._note_bucket(dirty, bucket)
        slot = self._slots.get(bucket)
        if slot is None:
            slot = self._allocate(bucket)
        buf = self._buf
        base = slot * self.stride
        buf[base] -= signature.total
        counts = signature.bit_counts
        for index in range(self.pair_bits):
            buf[base + 1 + index] -= counts[index]
        if buf[base] == 0:
            for offset in range(base + 1, base + self.stride):
                if buf[offset]:
                    return
            self._release(bucket, slot)

    def _row(self, slot: int) -> List[int]:
        """The raw counter row of ``slot`` as a list of ints."""
        base = slot * self.stride
        return self._buf[base:base + self.stride].tolist()

    def _signature_for(self, slot: int) -> CountSignature:
        """An independent :class:`CountSignature` copy of ``slot``."""
        row = self._row(slot)
        signature = CountSignature(self.pair_bits)
        signature.total = row[0]
        signature.bit_counts = row[1:]
        return signature

    def copy(self) -> "SignatureArena":
        """Deep, independent copy of this arena (same slot layout)."""
        clone = SignatureArena(self.pair_bits, self.range_size)
        clone._buf = array("q", self._buf)
        clone._slots = dict(self._slots)
        clone._bucket_of = list(self._bucket_of)
        clone._free = list(self._free)
        if self._dense is not None and clone._dense is not None:
            clone._dense = self._dense.copy()
        return clone

    # -- dict-compatible mapping surface -------------------------------------

    def get(
        self, bucket: int, default: Optional[CountSignature] = None
    ) -> Optional[CountSignature]:
        """The bucket's signature (a copy), or ``default`` if empty."""
        slot = self._slots.get(bucket)
        if slot is None:
            return default
        return self._signature_for(slot)

    def __getitem__(self, bucket: int) -> CountSignature:
        slot = self._slots.get(bucket)
        if slot is None:
            raise KeyError(bucket)
        return self._signature_for(slot)

    def __setitem__(self, bucket: int, signature: CountSignature) -> None:
        if signature.pair_bits != self.pair_bits:
            raise ParameterError(
                f"signature width {signature.pair_bits} does not match "
                f"arena width {self.pair_bits}"
            )
        dirty = self._dirty
        if dirty is not None:
            self._note_bucket(dirty, bucket)
        if signature.is_zero:
            # Keep the store invariant: absent always means empty.
            if bucket in self._slots:
                del self[bucket]
            return
        slot = self._slots.get(bucket)
        if slot is None:
            slot = self._allocate(bucket)
        buf = self._buf
        base = slot * self.stride
        buf[base] = signature.total
        counts = signature.bit_counts
        for index in range(self.pair_bits):
            buf[base + 1 + index] = counts[index]

    def __delitem__(self, bucket: int) -> None:
        slot = self._slots.get(bucket)
        if slot is None:
            raise KeyError(bucket)
        dirty = self._dirty
        if dirty is not None:
            self._note_bucket(dirty, bucket)
        buf = self._buf
        base = slot * self.stride
        for offset in range(base, base + self.stride):
            buf[offset] = 0
        self._release(bucket, slot)

    def __contains__(self, bucket: object) -> bool:
        return bucket in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def __bool__(self) -> bool:
        return bool(self._slots)

    def __iter__(self) -> Iterator[int]:
        return iter(self._slots)

    def keys(self) -> Iterator[int]:
        """Occupied bucket indices."""
        return iter(self._slots)

    def values(self) -> Iterator[CountSignature]:
        """Signature copies of every occupied bucket."""
        for slot in self._slots.values():
            yield self._signature_for(slot)

    def items(self) -> Iterator[Tuple[int, CountSignature]]:
        """``(bucket, signature copy)`` pairs for every occupied bucket."""
        for bucket, slot in self._slots.items():
            yield bucket, self._signature_for(slot)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SignatureArena):
            if (
                self.pair_bits != other.pair_bits
                or len(self._slots) != len(other._slots)
            ):
                return False
            theirs = other._slots
            for bucket, slot in self._slots.items():
                other_slot = theirs.get(bucket)
                if other_slot is None:
                    return False
                if self._row(slot) != other._row(other_slot):
                    return False
            return True
        if isinstance(other, dict):
            # Reflected comparison against the reference dict store:
            # dict.__eq__(arena) returns NotImplemented, so Python
            # retries here and structural equality spans backends.
            if len(self._slots) != len(other):
                return False
            for bucket, slot in self._slots.items():
                signature = other.get(bucket)
                if not isinstance(signature, CountSignature):
                    return False
                if signature.pair_bits != self.pair_bits:
                    return False
                row = self._row(slot)
                if signature.total != row[0] or signature.bit_counts != row[1:]:
                    return False
            return True
        return NotImplemented

    # Mutable container: never hashable.
    __hash__ = None  # type: ignore[assignment]

    # -- state interchange ----------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Slot state minus the cached buffer view.

        A pickled ``frombuffer`` view would come back as an independent
        copy — silently divergent from ``_buf`` — so the cache never
        crosses a serialization boundary.  The dirty-bucket index stays
        behind too: it describes a live transport session (baselines
        since one parent's last drain), meaningless to a restored copy.
        """
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_view", "_dirty")
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._dirty = None
        for name, value in state.items():
            setattr(self, name, value)
        self._view = None

    def __repr__(self) -> str:
        return (
            f"SignatureArena(pair_bits={self.pair_bits}, "
            f"occupied={len(self._slots)}, "
            f"slots={len(self._bucket_of)})"
        )
