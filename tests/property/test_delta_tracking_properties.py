"""Property tests for the arena's block dirty tracking (hypothesis).

A shard worker's slab records, per key, the counter row it held before
its first touch since the last drain; ``drain_deltas`` ships current
minus baseline for every key that moved.  The claims under test, for
any interleaving of block folds, per-update writes, signature
assignment and deletion, drains and resets:

1. **Exact replay**: folding each drained run into a copy of the arena
   taken at the previous drain (or reset) reproduces the arena.
2. **Net-zero keys ship nothing**: the drained keys are exactly the
   keys whose rows differ from that copy — a key touched and reverted
   since the last drain never ships, and no shipped row is all zero.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._accel import np
from repro.sketch.arena import MAX_DENSE_RANGE, SignatureArena
from repro.sketch.signature import CountSignature

PAIR_BITS = 5
STRIDE = PAIR_BITS + 1
#: A small key range, so operations keep landing on the same keys.
KEYS = 12

keys = st.integers(min_value=0, max_value=KEYS - 1)
rows = st.lists(
    st.integers(min_value=-2, max_value=2), min_size=STRIDE, max_size=STRIDE
)
operations = st.one_of(
    st.tuples(
        st.just("fold"),
        st.lists(st.tuples(keys, rows), max_size=5, unique_by=lambda kv: kv[0]),
    ),
    st.tuples(
        st.just("update"),
        keys,
        st.integers(min_value=0, max_value=2 ** PAIR_BITS - 1),
        st.sampled_from([1, -1]),
    ),
    st.tuples(st.just("set"), keys, rows),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("drain")),
    st.tuples(st.just("reset")),
)


def row_map(arena):
    """``{key: counter row}`` of every occupied key."""
    found, flat = arena.export_rows()
    return dict(zip(found.tolist(), flat.reshape(-1, STRIDE).tolist()))


def check_drain(arena, synced):
    """Drain ``arena``, check the run, fold it into ``synced``."""
    now = row_map(arena)
    then = row_map(synced)
    moved = {
        key for key in now.keys() | then.keys()
        if now.get(key) != then.get(key)
    }
    drained, flat = arena.drain_deltas()
    deltas = flat.reshape(-1, STRIDE)
    assert len(set(drained.tolist())) == len(drained)
    assert bool(deltas.any(axis=1).all())
    assert set(drained.tolist()) == moved
    synced.fold(drained, deltas)
    assert synced == arena


# A dense key -> slot index, and the sparse dict past MAX_DENSE_RANGE.
@pytest.mark.parametrize("range_size", [KEYS, MAX_DENSE_RANGE + 1])
@settings(max_examples=200, deadline=None)
@given(ops=st.lists(operations, max_size=40))
def test_drained_runs_replay_the_arena(range_size, ops):
    arena = SignatureArena(PAIR_BITS, range_size)
    arena.track_deltas(True)
    synced = SignatureArena(PAIR_BITS, range_size)
    for op in ops:
        kind = op[0]
        if kind == "fold":
            if op[1]:
                arena.fold(
                    np.array([key for key, _ in op[1]], dtype=np.int64),
                    np.array([row for _, row in op[1]], dtype=np.int64),
                )
        elif kind == "update":
            arena.update(op[1], op[2], op[3])
        elif kind == "set":
            signature = CountSignature(PAIR_BITS)
            signature.total = op[2][0]
            signature.bit_counts = list(op[2][1:])
            arena[op[1]] = signature
        elif kind == "delete":
            if op[1] in arena:
                del arena[op[1]]
        elif kind == "drain":
            check_drain(arena, synced)
        else:
            arena.reset_deltas()
            synced = arena.copy()
    check_drain(arena, synced)
    # Nothing moved since that drain: the next run is empty.
    drained, flat = arena.drain_deltas()
    assert len(drained) == 0 and len(flat) == 0
