"""Experiment E11 — deployment machinery: serialization.

Not a paper figure; measures the engineering layer the Figure 1
architecture needs in practice:

* wire size and encode/decode cost of a loaded sketch (per-router
  sketches shipped to the central monitor);
* merged-after-transport equivalence (the linearity property across
  serialization).

How the sliding window forgets old traffic is covered by the
``repro.monitor.window`` doctest and ``tests/monitor/test_window.py``.
"""

from __future__ import annotations

import pytest

from repro.sketch import TrackingDistinctCountSketch, serialize

from conftest import make_workload, print_table, scaled_pairs


@pytest.fixture(scope="module")
def loaded(ipv4_domain):
    updates, truth = make_workload(ipv4_domain, skew=1.5, seed=61,
                                   pairs=max(10_000, scaled_pairs() // 6))
    sketch = TrackingDistinctCountSketch(ipv4_domain, seed=8)
    sketch.process_stream(updates)
    return sketch, updates, truth


def test_wire_size(benchmark, ipv4_domain, loaded):
    """Serialized size vs model space (sparse encoding pays off)."""
    sketch, updates, _ = loaded
    payload = serialize.dumps(sketch)
    benchmark.pedantic(lambda: serialize.dumps(sketch), rounds=3,
                       iterations=1)
    print_table(
        "E11: sketch wire format",
        ["distinct pairs", "model space", "wire bytes", "buckets"],
        [[len(updates), f"{sketch.space_bytes() / 1024:.0f} KiB",
          f"{len(payload) / 1024:.0f} KiB",
          sketch.occupied_buckets()]],
    )
    assert len(payload) > 0


def test_decode_restores_equal_sketch(benchmark, ipv4_domain, loaded):
    """Decode cost, and transported == original."""
    sketch, _, _ = loaded
    payload = serialize.dumps(sketch)
    restored = benchmark.pedantic(
        lambda: serialize.loads(payload), rounds=3, iterations=1
    )
    assert restored.structurally_equal(sketch)
    assert restored.track_topk(5).as_dict() == (
        sketch.track_topk(5).as_dict()
    )


def test_merge_across_transport(benchmark, ipv4_domain, loaded):
    """Router sketches survive ship-and-merge without drift."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _, updates, _ = loaded
    half = len(updates) // 2
    direct = TrackingDistinctCountSketch(ipv4_domain, seed=9)
    direct.process_stream(updates)
    router_a = TrackingDistinctCountSketch(ipv4_domain, seed=9)
    router_a.process_stream(updates[:half])
    router_b = TrackingDistinctCountSketch(ipv4_domain, seed=9)
    router_b.process_stream(updates[half:])
    shipped_a = serialize.loads(serialize.dumps(router_a))
    shipped_b = serialize.loads(serialize.dumps(router_b))
    shipped_a.merge(shipped_b)
    assert shipped_a.structurally_equal(direct)
