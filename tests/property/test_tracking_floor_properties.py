"""Property test for the tracking floor (hypothesis), on both stores.

A tracking sketch keeps Figure 5's structures only for the levels at
or above its floor, the stop level of its last tracked query; folds
below the floor touch only counters, a query that needs lower levels
decodes them, and copies and loads track nothing.  The claim under
test: for any interleaving of insert and delete batches (of any size,
per update or batched), merges, subtracts, delta folds, copies,
serialize round trips and queries at several epsilons (different
targets, so the floor moves down as well as up), every tracked answer
equals the decoded one and the tracked levels match a from-scratch
scan while the levels below the floor hold nothing.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import SketchParams, TrackingDistinctCountSketch, serialize
from repro.types import AddressDomain, FlowUpdate

#: A small domain and sample targets of 13-16 pairs (one per epsilon),
#: so a stream of a few hundred pairs stops a few levels up, and the
#: stop level moves with the stream and with epsilon.
PARAMS = SketchParams(
    AddressDomain(2 ** 8), r=2, s=32, sample_target_factor=0.375
)
EPSILONS = [0.01, 0.1, 0.2, 0.33]
THRESHOLDS = [1, 2, 5, 12]

#: A batch as ``(size, seed)``: ``size`` random pairs (or live pairs to
#: delete), so a few steps reach a few hundred pairs.
batches = st.tuples(
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=0, max_value=2 ** 16),
)
steps = st.tuples(
    st.one_of(
        st.tuples(st.just("insert"), batches, st.booleans()),
        st.tuples(st.just("delete"), batches, st.booleans()),
        st.tuples(st.just("merge"), batches),
        st.tuples(st.just("deltas"), batches),
        st.tuples(st.just("subtract")),
        st.tuples(st.just("copy")),
        st.tuples(st.just("serialize")),
        st.tuples(st.just("query"), st.sampled_from(EPSILONS)),
    ),
    st.sampled_from(EPSILONS),
    st.sampled_from(THRESHOLDS),
)


def random_pairs(batch):
    size, seed = batch
    rng = random.Random(seed)
    return [(rng.randrange(256), rng.randrange(6)) for _ in range(size)]


def feed(sketch, updates, per_update):
    if per_update:
        for update in updates:
            sketch.process(update)
    else:
        sketch.update_batch(updates)


def part(backend, batch):
    """An untracked sketch of ``batch``'s inserts, for merges."""
    other = TrackingDistinctCountSketch(PARAMS, seed=3, backend=backend)
    other.update_batch([FlowUpdate(s, d, 1) for s, d in random_pairs(batch)])
    return other


@pytest.mark.parametrize("backend", ["reference", "packed"])
@settings(max_examples=100, deadline=None)
@given(ops=st.lists(steps, min_size=1, max_size=25))
def test_tracked_answers_match_the_decode_as_the_floor_moves(backend, ops):
    sketch = TrackingDistinctCountSketch(PARAMS, seed=3, backend=backend)
    live = []
    parts = []
    for op, epsilon, tau in ops:
        kind = op[0]
        if kind == "insert":
            added = random_pairs(op[1])
            feed(sketch, [FlowUpdate(s, d, 1) for s, d in added], op[2])
            live.extend(added)
        elif kind == "delete" and live:
            rng = random.Random(op[1][1])
            gone = [
                live.pop(rng.randrange(len(live)))
                for _ in range(min(op[1][0], len(live)))
            ]
            feed(sketch, [FlowUpdate(s, d, -1) for s, d in gone], op[2])
        elif kind == "merge":
            parts.append(part(backend, op[1]))
            sketch.merge(parts[-1])
        elif kind == "deltas":
            parts.append(part(backend, op[1]))
            sketch.apply_bucket_deltas(*parts[-1]._export_rows())
            sketch.updates_processed += parts[-1].updates_processed
        elif kind == "subtract" and parts:
            sketch.subtract(parts.pop())
        elif kind == "copy":
            sketch = sketch.copy()
        elif kind == "serialize":
            sketch = serialize.loads(serialize.dumps(sketch), backend=backend)
        elif kind == "query":
            sketch.track_topk(3, op[1])
        # The fold (or floor move) kept the tracked levels right ...
        sketch.check_invariants()
        assert sketch.track_topk(3, epsilon) == sketch.base_topk(3, epsilon)
        assert sketch.track_threshold(tau, epsilon) == (
            sketch.threshold_query(tau, epsilon)
        )
        # ... and so did the queries' own floor moves.
        sketch.check_invariants()
