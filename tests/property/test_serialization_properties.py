"""Property-based tests: serialization and trace round-trips."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import (
    DistinctCountSketch,
    SketchParams,
    TrackingDistinctCountSketch,
    serialize,
)
from repro.streams.trace import format_update, parse_line
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 8)
PARAMS = SketchParams(DOMAIN, r=2, s=8)

addresses = st.integers(min_value=0, max_value=255)
updates = st.lists(
    st.tuples(addresses, addresses, st.sampled_from([1, 1, -1])),
    max_size=40,
)


@given(updates, st.booleans())
@settings(max_examples=100, deadline=None)
def test_sketch_serialization_roundtrip(update_list, tracking):
    """Any sketch state survives dumps/loads bit-exactly."""
    cls = TrackingDistinctCountSketch if tracking else DistinctCountSketch
    original = cls(PARAMS, seed=5)
    for source, dest, delta in update_list:
        original.update(source, dest, delta)
    restored = serialize.loads(serialize.dumps(original))
    assert type(restored) is type(original)
    assert restored.structurally_equal(original)
    assert restored.updates_processed == original.updates_processed
    if tracking:
        restored.check_invariants()  # a loaded sketch tracks no level
        assert restored.track_topk(3).as_dict() == (
            original.track_topk(3).as_dict()
        )
        restored.check_invariants()


@given(updates)
@settings(max_examples=100, deadline=None)
def test_restored_sketch_continues_identically(update_list):
    """Processing after restore matches processing without the trip."""
    original = TrackingDistinctCountSketch(PARAMS, seed=6)
    half = len(update_list) // 2
    for source, dest, delta in update_list[:half]:
        original.update(source, dest, delta)
    restored = serialize.loads(serialize.dumps(original))
    for source, dest, delta in update_list[half:]:
        original.update(source, dest, delta)
        restored.update(source, dest, delta)
    assert restored.structurally_equal(original)


ipv4_addresses = st.integers(min_value=0, max_value=2 ** 32 - 1)


@given(ipv4_addresses, ipv4_addresses, st.sampled_from([1, -1]),
       st.booleans())
@settings(max_examples=300)
def test_trace_line_roundtrip(source, dest, delta, dotted):
    """Any update survives format/parse in either address notation."""
    update = FlowUpdate(source, dest, delta)
    line = format_update(update, dotted=dotted)
    assert parse_line(line) == update
