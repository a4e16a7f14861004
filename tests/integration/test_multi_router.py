"""Integration: multi-router streams, sketch merging, interleavings."""

from __future__ import annotations

import pytest

from repro.sketch import TrackingDistinctCountSketch
from repro.netsim import (
    BackgroundTraffic,
    IspNetwork,
    Scenario,
    SynFloodAttack,
    parse_ip,
)
from repro.streams import ListSource, RoundRobinMerge, interleave
from repro.types import AddressDomain

VICTIM = parse_ip("203.0.113.77")
SERVERS = [parse_ip(f"203.0.113.{i}") for i in range(1, 100)]


@pytest.fixture(scope="module")
def network():
    scenario = Scenario(
        SynFloodAttack(VICTIM, flood_size=2500, seed=1),
        BackgroundTraffic(SERVERS, sessions=2500, seed=2),
    )
    net = IspNetwork(["a", "b", "c", "d"], seed=3)
    net.carry(scenario.packets())
    return net


class TestSketchMerging:
    def test_merged_router_sketches_equal_central(self, network):
        domain = AddressDomain(2 ** 32)
        central = TrackingDistinctCountSketch(domain, seed=9)
        central.process_stream(network.merged_updates())
        merged = TrackingDistinctCountSketch(domain, seed=9)
        merged.track_topk(1)  # empty: every level tracked
        for updates in network.update_streams().values():
            partial = TrackingDistinctCountSketch(domain, seed=9)
            partial.process_stream(updates)
            merged.merge(partial)
        assert merged.structurally_equal(central)
        assert merged.track_topk(3).as_dict() == (
            central.track_topk(3).as_dict()
        )
        merged.check_invariants()

    def test_victim_found_from_merged_view(self, network):
        domain = AddressDomain(2 ** 32)
        merged = TrackingDistinctCountSketch(domain, seed=10)
        for updates in network.update_streams().values():
            partial = TrackingDistinctCountSketch(domain, seed=10)
            partial.process_stream(updates)
            merged.merge(partial)
        assert merged.track_topk(1).destinations == [VICTIM]


class TestInterleavingInvariance:
    def test_any_interleaving_same_sketch(self, network):
        domain = AddressDomain(2 ** 32)
        streams = list(network.update_streams().values())
        round_robin = RoundRobinMerge(*[ListSource(s) for s in streams])
        random_merge = interleave(*streams, seed=4)
        a = TrackingDistinctCountSketch(domain, seed=11)
        a.track_topk(1)  # empty: every level tracked
        a.process_stream(round_robin)
        b = TrackingDistinctCountSketch(domain, seed=11)
        b.track_topk(1)  # empty: every level tracked
        b.process_stream(random_merge)
        assert a.structurally_equal(b)
        a.check_invariants()
        b.check_invariants()
