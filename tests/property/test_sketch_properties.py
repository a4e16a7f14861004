"""Property-based tests for the sketch invariants (hypothesis).

The central claims under test:

1. **Delete-resilience** (Section 3): a sketch that processed matched
   insert/delete pairs is bit-identical to one that never saw them.
2. **Linearity / order-invariance**: any permutation of the update
   stream yields the same sketch; merged partial sketches equal the
   sketch of the whole stream.
3. **Tracking consistency** (Section 5): the incrementally maintained
   singleton sets, counters, and heaps always match a from-scratch
   recomputation, and TrackTopk always equals BaseTopk.
4. **Exactness in the small**: when the whole stream fits in the
   distinct sample, estimates equal the exact frequencies.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactDistinctTracker
from repro.sketch import (
    DistinctCountSketch,
    SketchParams,
    TrackingDistinctCountSketch,
)
from repro.types import AddressDomain

DOMAIN = AddressDomain(2 ** 8)
PARAMS = SketchParams(DOMAIN, r=2, s=16)

addresses = st.integers(min_value=0, max_value=DOMAIN.m - 1)
pairs = st.tuples(addresses, addresses)
pair_lists = st.lists(pairs, max_size=50)


def build_sketch(seed=0, tracking=False):
    cls = TrackingDistinctCountSketch if tracking else DistinctCountSketch
    sketch = cls(PARAMS, seed=seed)
    if tracking:
        sketch.track_topk(1)  # empty: every level tracked
    return sketch


@given(pair_lists, pair_lists)
@settings(max_examples=150, deadline=None)
def test_delete_resilience(persistent, transient):
    churned = build_sketch(seed=1)
    clean = build_sketch(seed=1)
    for source, dest in persistent:
        churned.insert(source, dest)
        clean.insert(source, dest)
    for source, dest in transient:
        churned.insert(source, dest)
    for source, dest in transient:
        churned.delete(source, dest)
    assert churned.structurally_equal(clean)


@given(pair_lists, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_order_invariance(pair_list, rng):
    shuffled_pairs = list(pair_list)
    rng.shuffle(shuffled_pairs)
    in_order = build_sketch(seed=2)
    shuffled = build_sketch(seed=2)
    for source, dest in pair_list:
        in_order.insert(source, dest)
    for source, dest in shuffled_pairs:
        shuffled.insert(source, dest)
    assert in_order.structurally_equal(shuffled)


@given(pair_lists, pair_lists)
@settings(max_examples=100, deadline=None)
def test_merge_equals_whole_stream(left_pairs, right_pairs):
    left = build_sketch(seed=3)
    right = build_sketch(seed=3)
    whole = build_sketch(seed=3)
    for source, dest in left_pairs:
        left.insert(source, dest)
        whole.insert(source, dest)
    for source, dest in right_pairs:
        right.insert(source, dest)
        whole.insert(source, dest)
    left.merge(right)
    assert left.structurally_equal(whole)


@given(
    st.lists(st.tuples(addresses, addresses, st.sampled_from([1, 1, 1, -1])),
             max_size=80)
)
@settings(max_examples=100, deadline=None)
def test_tracking_invariants_under_any_stream(updates):
    """Tracked state always matches a from-scratch recomputation.

    The stream here is arbitrary (may even drive net counts negative);
    the invariant must survive regardless.
    """
    sketch = build_sketch(seed=4, tracking=True)
    for source, dest, delta in updates:
        sketch.update(source, dest, delta)
    sketch.check_invariants()


@given(
    st.lists(st.tuples(addresses, addresses, st.sampled_from([1, 1, -1])),
             max_size=80),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_track_topk_equals_base_topk(updates, k):
    sketch = build_sketch(seed=5, tracking=True)
    for source, dest, delta in updates:
        sketch.update(source, dest, delta)
    assert sketch.track_topk(k).as_dict() == sketch.base_topk(k).as_dict()


@given(st.sets(pairs, max_size=12), st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_small_streams_are_exact(pair_set, k):
    """When everything fits in the sample, top-k is the exact answer."""
    sketch = build_sketch(seed=6, tracking=True)
    exact = ExactDistinctTracker()
    for source, dest in pair_set:
        sketch.insert(source, dest)
        exact.insert(source, dest)
    result = sketch.track_topk(k)
    if result.stop_level == 0 and result.sample_size == len(pair_set):
        expected = dict(exact.top_k(k))
        assert result.as_dict() == expected


@given(pair_lists)
@settings(max_examples=100, deadline=None)
def test_estimates_are_positive_and_bounded(pair_list):
    """Reported estimates are positive and at most U * scale."""
    sketch = build_sketch(seed=7)
    for source, dest in pair_list:
        sketch.insert(source, dest)
    result = sketch.base_topk(5)
    for entry in result:
        assert entry.estimate > 0
        assert entry.sample_frequency > 0
        assert entry.estimate <= len(pair_list) * result.scale


@given(pair_lists)
@settings(max_examples=75, deadline=None)
def test_copy_is_faithful_and_independent(pair_list):
    sketch = build_sketch(seed=8, tracking=True)
    for source, dest in pair_list:
        sketch.insert(source, dest)
    clone = sketch.copy()
    assert clone.structurally_equal(sketch)
    clone.check_invariants()
    clone.insert(0, 0)
    assert clone.updates_processed == sketch.updates_processed + 1
