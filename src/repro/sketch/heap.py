"""An indexed binary max-heap with in-place priority updates.

The tracking sketch's ``topDestHeap(b)`` structures (Section 5) must
support, besides ``deleteMax``, the operation "find the entry for
destination v and adjust its frequency by +/-1" (Figure 6, steps 11 and
21).  The standard-library ``heapq`` cannot do that in ``O(log n)``, so
we implement a classic binary heap with a key -> position index.

Keys must be hashable (for the position index) and totally ordered
(ties are broken by key order so the heap's pop order — and therefore
every top-k answer built on it — is deterministic for a given state);
priorities are integers (sample frequencies).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from typing import Any, Dict, Generic, Iterator, List, Protocol, Tuple, TypeVar

from ..exceptions import ReproError


class OrderedHashable(Protocol):
    """A key usable in the heap: hashable and totally ordered."""

    def __hash__(self) -> int:
        """Hash support (keys index the position table)."""
        ...

    def __lt__(self, other: Any) -> bool:
        """Strict less-than ordering (used for deterministic tiebreaks)."""
        ...


K = TypeVar("K", bound=OrderedHashable)


class HeapKeyError(ReproError, KeyError):
    """Raised when an operation references a key absent from the heap."""


class _Entry(Generic[K]):
    """One heap slot: a mutable priority attached to a fixed key."""

    __slots__ = ("priority", "key")

    def __init__(self, priority: int, key: K) -> None:
        self.priority = priority
        self.key = key


class IndexedMaxHeap(Generic[K]):
    """Binary max-heap over ``(priority, key)`` with an index on keys."""

    __slots__ = ("_entries", "_positions")

    def __init__(self) -> None:
        self._entries: List[_Entry[K]] = []
        self._positions: Dict[K, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._positions

    def __bool__(self) -> bool:
        return bool(self._entries)

    def priority(self, key: K) -> int:
        """Return the current priority of ``key``."""
        try:
            position = self._positions[key]
        except KeyError:
            raise HeapKeyError(f"key {key!r} not in heap") from None
        return self._entries[position].priority

    def insert(self, key: K, priority: int) -> None:
        """Insert a new key; raises if the key is already present."""
        if key in self._positions:
            raise HeapKeyError(f"key {key!r} already in heap")
        self._entries.append(_Entry(priority, key))
        position = len(self._entries) - 1
        self._positions[key] = position
        self._sift_up(position)

    def update(self, key: K, priority: int) -> None:
        """Set the priority of an existing key and restore heap order."""
        try:
            position = self._positions[key]
        except KeyError:
            raise HeapKeyError(f"key {key!r} not in heap") from None
        old_priority = self._entries[position].priority
        self._entries[position].priority = priority
        if priority > old_priority:
            self._sift_up(position)
        elif priority < old_priority:
            self._sift_down(position)

    def add_to(self, key: K, delta: int, *, remove_at_zero: bool = False) -> int:
        """Adjust ``key``'s priority by ``delta`` (inserting at ``delta``
        if absent) and return the new priority.

        This is exactly the Figure 6 heap operation: "find entry for
        destination v (or create one with f=0 if not already there),
        update frequency, and adjust the heap".  With
        ``remove_at_zero=True`` an entry whose priority reaches zero is
        dropped, keeping the heap tight.
        """
        if key in self._positions:
            new_priority = self.priority(key) + delta
            if remove_at_zero and new_priority == 0:
                self.remove(key)
            else:
                self.update(key, new_priority)
            return new_priority
        self.insert(key, delta)
        return delta

    def remove(self, key: K) -> int:
        """Remove ``key``, returning its priority."""
        try:
            position = self._positions[key]
        except KeyError:
            raise HeapKeyError(f"key {key!r} not in heap") from None
        priority = self._entries[position].priority
        self._swap_with_last_and_pop(position)
        return priority

    def peek(self) -> Tuple[K, int]:
        """Return ``(key, priority)`` of the maximum without removing it."""
        if not self._entries:
            raise HeapKeyError("peek on empty heap")
        top = self._entries[0]
        return top.key, top.priority

    def pop(self) -> Tuple[K, int]:
        """Remove and return the maximum ``(key, priority)`` (deleteMax)."""
        if not self._entries:
            raise HeapKeyError("pop on empty heap")
        top = self._entries[0]
        key, priority = top.key, top.priority
        self._swap_with_last_and_pop(0)
        return key, priority

    def top_k(self, k: int) -> List[Tuple[K, int]]:
        """Return the ``k`` largest entries without mutating the heap.

        The first ``k`` entries of :meth:`ranked`: the order ``k``
        ``deleteMax`` operations would pop them in (the paper's
        TrackTopk usage), in ``O(k log k)``, with the heap array left
        as it was.
        """
        return list(islice(self.ranked(), max(k, 0)))

    def ranked(self) -> Iterator[Tuple[K, int]]:
        """Yield every ``(key, priority)`` in pop order, lazily.

        Priority descending, then key ascending — the order repeated
        :meth:`pop` calls would produce — by a best-first walk of the
        heap array: a frontier of ``(-priority, key, position)`` starts
        at the root, and each entry taken adds its two children.
        Taking ``j`` entries costs ``O(j log j)`` and never touches the
        heap, so the heap must not change while the walk runs.
        """
        entries = self._entries
        size = len(entries)
        if not size:
            return
        root = entries[0]
        frontier: List[Tuple[int, K, int]] = [(-root.priority, root.key, 0)]
        while frontier:
            negated, key, position = heappop(frontier)
            yield key, -negated
            child = 2 * position + 1
            for index in (child, child + 1):
                if index < size:
                    entry = entries[index]
                    heappush(frontier, (-entry.priority, entry.key, index))

    def items(self) -> List[Tuple[K, int]]:
        """All ``(key, priority)`` pairs in arbitrary (heap) order."""
        return [(entry.key, entry.priority) for entry in self._entries]

    def check_invariants(self) -> None:
        """Assert heap order and index consistency (used by tests)."""
        for position, entry in enumerate(self._entries):
            if self._positions[entry.key] != position:
                raise AssertionError(
                    f"position index stale for key {entry.key!r}"
                )
            parent = (position - 1) // 2
            if position > 0 and self._less(
                self._entries[parent], self._entries[position]
            ):
                raise AssertionError(
                    f"heap order violated at position {position}"
                )
        if len(self._positions) != len(self._entries):
            raise AssertionError("position index size mismatch")

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _less(a: "_Entry[K]", b: "_Entry[K]") -> bool:
        """Max-heap ordering: priority first, key as deterministic tiebreak."""
        if a.priority != b.priority:
            return a.priority < b.priority
        # Invert key order so smaller keys win ties at the top.
        return b.key < a.key

    def _swap(self, i: int, j: int) -> None:
        entries = self._entries
        entries[i], entries[j] = entries[j], entries[i]
        self._positions[entries[i].key] = i
        self._positions[entries[j].key] = j

    def _swap_with_last_and_pop(self, position: int) -> None:
        last = len(self._entries) - 1
        if position != last:
            self._swap(position, last)
        removed = self._entries.pop()
        del self._positions[removed.key]
        if position <= last - 1 and self._entries:
            position = min(position, len(self._entries) - 1)
            self._sift_down(position)
            self._sift_up(position)

    def _sift_up(self, position: int) -> None:
        entries = self._entries
        while position > 0:
            parent = (position - 1) // 2
            if self._less(entries[parent], entries[position]):
                self._swap(parent, position)
                position = parent
            else:
                break

    def _sift_down(self, position: int) -> None:
        entries = self._entries
        size = len(entries)
        while True:
            left = 2 * position + 1
            right = left + 1
            largest = position
            if left < size and self._less(entries[largest], entries[left]):
                largest = left
            if right < size and self._less(entries[largest], entries[right]):
                largest = right
            if largest == position:
                break
            self._swap(position, largest)
            position = largest

    def __repr__(self) -> str:
        return f"IndexedMaxHeap(size={len(self._entries)})"
