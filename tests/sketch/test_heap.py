"""Tests for the indexed max-heap."""

from __future__ import annotations

import random

import pytest

from repro.sketch import IndexedMaxHeap
from repro.sketch.heap import HeapKeyError


class TestBasicOperations:
    def test_empty(self):
        heap = IndexedMaxHeap()
        assert len(heap) == 0
        assert not heap

    def test_insert_and_peek(self):
        heap = IndexedMaxHeap()
        heap.insert("a", 3)
        heap.insert("b", 7)
        heap.insert("c", 5)
        assert heap.peek() == ("b", 7)
        assert len(heap) == 3

    def test_pop_order(self):
        heap = IndexedMaxHeap()
        for key, priority in [("a", 3), ("b", 7), ("c", 5), ("d", 1)]:
            heap.insert(key, priority)
        popped = [heap.pop() for _ in range(4)]
        assert popped == [("b", 7), ("c", 5), ("a", 3), ("d", 1)]

    def test_contains(self):
        heap = IndexedMaxHeap()
        heap.insert(42, 1)
        assert 42 in heap
        assert 43 not in heap

    def test_priority_lookup(self):
        heap = IndexedMaxHeap()
        heap.insert("x", 9)
        assert heap.priority("x") == 9

    def test_duplicate_insert_rejected(self):
        heap = IndexedMaxHeap()
        heap.insert("x", 1)
        with pytest.raises(HeapKeyError):
            heap.insert("x", 2)

    def test_missing_key_errors(self):
        heap = IndexedMaxHeap()
        with pytest.raises(HeapKeyError):
            heap.priority("nope")
        with pytest.raises(HeapKeyError):
            heap.update("nope", 1)
        with pytest.raises(HeapKeyError):
            heap.remove("nope")

    def test_empty_peek_pop_error(self):
        heap = IndexedMaxHeap()
        with pytest.raises(HeapKeyError):
            heap.peek()
        with pytest.raises(HeapKeyError):
            heap.pop()


class TestUpdateOperations:
    def test_increase_key_bubbles_up(self):
        heap = IndexedMaxHeap()
        heap.insert("low", 1)
        heap.insert("high", 10)
        heap.update("low", 20)
        assert heap.peek() == ("low", 20)

    def test_decrease_key_sinks(self):
        heap = IndexedMaxHeap()
        heap.insert("a", 10)
        heap.insert("b", 8)
        heap.update("a", 1)
        assert heap.peek() == ("b", 8)

    def test_add_to_inserts_when_absent(self):
        heap = IndexedMaxHeap()
        assert heap.add_to("v", 1) == 1
        assert heap.priority("v") == 1

    def test_add_to_accumulates(self):
        heap = IndexedMaxHeap()
        heap.add_to("v", 1)
        heap.add_to("v", 1)
        heap.add_to("v", -1)
        assert heap.priority("v") == 1

    def test_add_to_remove_at_zero(self):
        heap = IndexedMaxHeap()
        heap.add_to("v", 1)
        heap.add_to("v", -1, remove_at_zero=True)
        assert "v" not in heap
        assert len(heap) == 0

    def test_remove_middle_element(self):
        heap = IndexedMaxHeap()
        for key, priority in [("a", 5), ("b", 9), ("c", 3), ("d", 7)]:
            heap.insert(key, priority)
        assert heap.remove("a") == 5
        heap.check_invariants()
        popped = [heap.pop() for _ in range(3)]
        assert popped == [("b", 9), ("d", 7), ("c", 3)]


class TestTopK:
    def test_top_k_returns_largest(self):
        heap = IndexedMaxHeap()
        for i in range(20):
            heap.insert(i, i)
        assert heap.top_k(3) == [(19, 19), (18, 18), (17, 17)]

    def test_top_k_does_not_mutate(self):
        heap = IndexedMaxHeap()
        for i in range(10):
            heap.insert(i, i * 2)
        before = sorted(heap.items())
        heap.top_k(5)
        assert sorted(heap.items()) == before
        heap.check_invariants()

    def test_top_k_larger_than_size(self):
        heap = IndexedMaxHeap()
        heap.insert("only", 1)
        assert heap.top_k(10) == [("only", 1)]

    def test_deterministic_tiebreak_by_key(self):
        heap = IndexedMaxHeap()
        for key in (5, 3, 9, 1):
            heap.insert(key, 7)
        # Equal priorities pop in ascending key order.
        assert [key for key, _ in heap.top_k(4)] == [1, 3, 5, 9]

    def test_top_k_leaves_heap_layout(self):
        heap = IndexedMaxHeap()
        for i in range(10):
            heap.insert(i, i * 2)
        layout = heap.items()
        assert heap.top_k(5) == [(9, 18), (8, 16), (7, 14), (6, 12), (5, 10)]
        # items() lists the heap array in order: not one slot moved.
        assert heap.items() == layout

    def test_ranked_is_pop_order(self):
        rng = random.Random(3)
        heap = IndexedMaxHeap()
        for key in range(300):
            heap.insert(key, rng.randrange(-5, 40))
        ranked = list(heap.ranked())
        assert ranked == [heap.pop() for _ in range(len(heap))]
        assert list(IndexedMaxHeap().ranked()) == []


class TestInvariantsUnderChurn:
    def test_random_operations_maintain_invariants(self):
        rng = random.Random(7)
        heap = IndexedMaxHeap()
        shadow = {}
        for step in range(2000):
            action = rng.random()
            if action < 0.5 or not shadow:
                key = rng.randrange(100)
                if key in shadow:
                    delta = rng.choice([-1, 1])
                    shadow[key] += delta
                    heap.add_to(key, delta)
                else:
                    shadow[key] = 1
                    heap.insert(key, 1)
            elif action < 0.8:
                key = rng.choice(list(shadow))
                new_priority = rng.randrange(-50, 50)
                shadow[key] = new_priority
                heap.update(key, new_priority)
            else:
                key = rng.choice(list(shadow))
                del shadow[key]
                heap.remove(key)
            if step % 100 == 0:
                heap.check_invariants()
        heap.check_invariants()
        assert dict(heap.items()) == shadow
        # Drain and verify global order.
        drained = [heap.pop() for _ in range(len(heap))]
        priorities = [priority for _, priority in drained]
        assert priorities == sorted(priorities, reverse=True)
