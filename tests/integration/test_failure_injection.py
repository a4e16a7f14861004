"""Failure injection: the system under hostile or degraded conditions."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import StreamError
from repro.monitor import DDoSMonitor, MonitorConfig
from repro.netsim import FlowExporter, Packet, PacketKind, SynFloodAttack
from repro.sketch import (
    DistinctCountSketch,
    SketchParams,
    TrackingDistinctCountSketch,
)
from repro.types import AddressDomain, FlowUpdate


class TestIllFormedStreams:
    """Deletions without matching insertions (broken exporters)."""

    def test_sketch_survives_delete_before_insert(self):
        domain = AddressDomain(2 ** 16)
        sketch = TrackingDistinctCountSketch(domain, seed=1)
        sketch.track_topk(1)  # empty: every level tracked
        sketch.delete(1, 2)          # net -1
        sketch.check_invariants()
        sketch.insert(1, 2)          # back to zero
        assert sketch.is_empty
        sketch.check_invariants()

    def test_negative_net_pairs_never_reported(self):
        domain = AddressDomain(2 ** 16)
        sketch = TrackingDistinctCountSketch(domain, seed=2)
        sketch.track_topk(1)  # empty: every level tracked
        for source in range(30):
            sketch.delete(source, 7)  # all negative
        for source in range(10):
            sketch.insert(source + 100, 8)
        result = sketch.track_topk(5)
        assert 7 not in result.destinations
        sketch.check_invariants()

    def test_random_hostile_stream_keeps_invariants(self):
        domain = AddressDomain(2 ** 8)
        sketch = TrackingDistinctCountSketch(
            SketchParams(domain, r=2, s=8), seed=3
        )
        sketch.track_topk(1)  # empty: every level tracked
        rng = random.Random(4)
        for _ in range(2000):
            sketch.update(rng.randrange(256), rng.randrange(256),
                          rng.choice([1, -1]))
        sketch.check_invariants()


class TestExporterOverload:
    """Bounded connection tables under attack (real exporter limits)."""

    def test_overloaded_exporter_drops_but_does_not_crash(self):
        exporter = FlowExporter(max_connections=500)
        attack = SynFloodAttack(victim=7, flood_size=5000, seed=5)
        updates = exporter.export_all(attack.packets())
        assert exporter.dropped_connections >= 4000
        # What it did emit is still well-formed and tracks correctly.
        domain = AddressDomain(2 ** 32)
        sketch = TrackingDistinctCountSketch(domain, seed=6)
        sketch.track_topk(1)  # empty: every level tracked
        sketch.process_stream(updates)
        sketch.check_invariants()
        top = sketch.track_topk(1)
        assert top.destinations == [7]

    def test_detection_survives_exporter_saturation(self):
        # Even a saturated exporter passes enough of the flood for the
        # monitor to alarm: the attack degrades observation, not
        # detection.
        exporter = FlowExporter(max_connections=800)
        attack = SynFloodAttack(victim=7, flood_size=6000, seed=7)
        updates = exporter.export_all(attack.packets())
        monitor = DDoSMonitor(
            AddressDomain(2 ** 32),
            MonitorConfig(check_interval=200, absolute_floor=100),
            seed=8,
        )
        alarms = monitor.observe_stream(updates)
        assert any(alarm.dest == 7 for alarm in alarms)


class TestDegenerateConfigurations:
    """Tiny domains and minimal sketch shapes."""

    def test_smallest_domain_works(self):
        domain = AddressDomain(2)
        sketch = TrackingDistinctCountSketch(
            SketchParams(domain, r=1, s=2), seed=9
        )
        sketch.track_topk(1)  # empty: every level tracked
        sketch.insert(0, 1)
        sketch.insert(1, 1)
        sketch.check_invariants()
        result = sketch.track_topk(1)
        assert result.destinations == [1]

    def test_exhaustive_tiny_domain(self):
        # Every pair of a 4-address domain, inserted and then deleted.
        domain = AddressDomain(4)
        sketch = TrackingDistinctCountSketch(
            SketchParams(domain, r=2, s=4), seed=10
        )
        sketch.track_topk(1)  # empty: every level tracked
        for source in range(4):
            for dest in range(4):
                sketch.insert(source, dest)
        sketch.check_invariants()
        for source in range(4):
            for dest in range(4):
                sketch.delete(source, dest)
        assert sketch.is_empty
        sketch.check_invariants()

    def test_single_level_sketch(self):
        domain = AddressDomain(2 ** 8)
        sketch = DistinctCountSketch(
            SketchParams(domain, r=2, s=16, num_levels=1), seed=11
        )
        for source in range(5):
            sketch.insert(source, 1)
        result = sketch.base_topk(1)
        assert result.destinations == [1]
        assert result.stop_level == 0

    def test_minimal_inner_tables(self):
        domain = AddressDomain(2 ** 8)
        sketch = TrackingDistinctCountSketch(
            SketchParams(domain, r=1, s=2), seed=12
        )
        sketch.track_topk(1)  # empty: every level tracked
        for source in range(100):
            sketch.insert(source, source % 3)
        sketch.check_invariants()
        # Heavy collisions: answers may be poor, but never crash and
        # never report phantom destinations.
        for entry in sketch.track_topk(3):
            assert entry.dest in (0, 1, 2)


class TestMonitorResilience:
    def test_monitor_on_empty_stream(self):
        monitor = DDoSMonitor(AddressDomain(2 ** 16), seed=13)
        assert monitor.observe_stream([]) == []
        assert monitor.check_now() == []

    def test_monitor_on_pure_deletion_stream(self):
        monitor = DDoSMonitor(AddressDomain(2 ** 16), seed=14)
        alarms = monitor.observe_stream(
            FlowUpdate(source, 7, -1) for source in range(2000)
        )
        assert alarms == []

    def test_exporter_rejects_nothing_it_should_accept(self):
        # Out-of-order packet kinds for unknown connections are benign.
        exporter = FlowExporter()
        for kind in (PacketKind.ACK, PacketKind.FIN, PacketKind.RST,
                     PacketKind.SYN_ACK, PacketKind.DATA):
            assert exporter.observe(
                Packet(time=0.0, source=1, dest=2, kind=kind)
            ) is None
