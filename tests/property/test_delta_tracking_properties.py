"""Property tests for the two counter stores' delta tracking (hypothesis).

A shard worker's slab records, per key, the counter row it held before
its first touch since the last drain; ``drain_deltas`` ships current
minus baseline for every key that moved.  The reference store
(:class:`~repro.sketch.signature.SignatureTable`) answers the same
surface by diffing against a row copy.  The claims under test, for any
interleaving of block folds, per-update writes, drains and resets:

1. **Exact replay**: folding each drained run into a copy of the arena
   taken at the previous drain (or reset) reproduces the arena.
2. **Net-zero keys ship nothing**: the drained keys are exactly the
   keys whose rows differ from that copy — a key touched and reverted
   since the last drain never ships, and no shipped row is all zero.
3. **One surface, two stores**: a ``SignatureTable`` fed the same
   operations over the same keys holds the same rows, the same number
   of keys, the same per-key singleton decode, the same level decodes
   (one table per level, and all tables as one level), the same
   per-table occupancy, reports the same singleton changes from each
   fold, and drains the same runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._accel import np
from repro.sketch.arena import MAX_DENSE_RANGE, SignatureArena
from repro.sketch.signature import SignatureTable

PAIR_BITS = 5
STRIDE = PAIR_BITS + 1
#: A small key range, so operations keep landing on the same keys:
#: TABLES second-level tables of WIDTH buckets each.
TABLES = 3
WIDTH = 4
KEYS = TABLES * WIDTH

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
    st.tuples(st.just("drain")),
    st.tuples(st.just("reset")),
)


def row_map(found, flat):
    """``{key: counter row}`` of exported or drained ``(keys, rows)``."""
    return dict(zip(found.tolist(), flat.reshape(-1, STRIDE).tolist()))


def check_same(arena, table):
    """Both stores answer every read of the surface alike."""
    arena_keys, arena_rows = arena.export_rows()
    table_keys, table_rows = table.export_rows()
    assert arena_keys.tolist() == table_keys.tolist()
    assert arena_rows.tolist() == table_rows.tolist()
    assert len(arena) == len(table)
    for key in range(KEYS):
        assert arena.singleton_at(key) == table.singleton_at(key)
    for levels, width in ((range(TABLES), WIDTH), ([0], KEYS)):
        decoded = [
            [(sorted(codes), collisions)
             for codes, collisions in store.decode_levels(levels, width)]
            for store in (arena, table)
        ]
        assert len(decoded[0]) == len(levels)
        assert decoded[0] == decoded[1]
    # The sparse arena's key range runs past the table store's tables.
    occupancy = arena.occupied_per_table(WIDTH).tolist()
    assert occupancy[:TABLES] == table.occupied_per_table(WIDTH).tolist()
    assert not any(occupancy[TABLES:])


def check_drain(arena, table, synced):
    """Drain both stores, check the runs, fold the arena's into
    ``synced``."""
    now = row_map(*arena.export_rows())
    then = row_map(*synced.export_rows())
    moved = {
        key for key in now.keys() | then.keys()
        if now.get(key) != then.get(key)
    }
    drained, flat = arena.drain_deltas()
    deltas = flat.reshape(-1, STRIDE)
    assert len(set(drained.tolist())) == len(drained)
    assert bool(deltas.any(axis=1).all())
    assert set(drained.tolist()) == moved
    assert row_map(drained, flat) == row_map(*table.drain_deltas())
    synced.fold(drained, deltas)
    assert synced == arena


# A dense key -> slot index, and the sparse dict past MAX_DENSE_RANGE.
@pytest.mark.parametrize("range_size", [KEYS, MAX_DENSE_RANGE + 1])
@settings(max_examples=200, deadline=None)
@given(ops=st.lists(operations, max_size=40))
def test_drained_runs_replay_the_arena(range_size, ops):
    arena = SignatureArena(PAIR_BITS, range_size)
    arena.track_deltas(True)
    table = SignatureTable(PAIR_BITS, TABLES, WIDTH)
    table.track_deltas(True)
    synced = SignatureArena(PAIR_BITS, range_size)
    for op in ops:
        kind = op[0]
        if kind == "fold":
            if op[1]:
                block = (
                    np.array([key for key, _ in op[1]], dtype=np.int64),
                    np.array([row for _, row in op[1]], dtype=np.int64),
                )
                changes = arena.fold_changes(*block)
                assert changes == table.fold_changes(*block)
                assert all(before != after for _, before, after in changes)
        elif kind == "update":
            arena.update(op[1], op[2], op[3])
            table.update(op[1], op[2], op[3])
        elif kind == "drain":
            check_drain(arena, table, synced)
        else:
            arena.reset_deltas()
            table.reset_deltas()
            synced = arena.copy()
        check_same(arena, table)
    check_drain(arena, table, synced)
    # Nothing moved since that drain: the next run is empty.
    drained, flat = arena.drain_deltas()
    assert len(drained) == 0 and len(flat) == 0
    drained, flat = table.drain_deltas()
    assert len(drained) == 0 and len(flat) == 0
