"""Tests for the port-scan detector (footnote-1 application)."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.monitor import PortScanDetector
from repro.types import AddressDomain, FlowUpdate


@pytest.fixture
def domain() -> AddressDomain:
    return AddressDomain(2 ** 16)


class TestScannerDetection:
    def test_scanner_tops_the_list(self, domain):
        detector = PortScanDetector(domain, seed=1)
        # A worm-infected host probing 500 distinct destinations.
        for dest in range(500):
            detector.record_contact(source=9, dest=dest)
        # Normal hosts talk to a handful of destinations.
        for source in range(100, 120):
            for dest in range(5):
                detector.record_contact(source=source, dest=dest)
        assert detector.top_scanners(1).destinations == [9]

    def test_estimate_tracks_fan_out(self, domain):
        detector = PortScanDetector(domain, seed=2)
        for dest in range(800):
            detector.record_contact(source=9, dest=dest)
        estimate = detector.top_scanners(1).entries[0].estimate
        assert 400 <= estimate <= 1600

    def test_discounted_contacts_do_not_count(self, domain):
        detector = PortScanDetector(domain, seed=3)
        # A busy but legitimate client: contacts are later discounted.
        for dest in range(300):
            detector.record_contact(source=5, dest=dest)
        for dest in range(300):
            detector.discount_contact(source=5, dest=dest)
        # A genuine scanner remains.
        for dest in range(100):
            detector.record_contact(source=6, dest=1000 + dest)
        result = detector.top_scanners(2)
        assert result.destinations[0] == 6
        assert 5 not in result.destinations

    def test_scanners_above_threshold(self, domain):
        detector = PortScanDetector(domain, seed=4)
        for dest in range(600):
            detector.record_contact(source=9, dest=dest)
        for dest in range(10):
            detector.record_contact(source=8, dest=dest)
        reported = dict(detector.scanners_above(100))
        assert 9 in reported
        assert 8 not in reported

    def test_observe_stream_swaps_roles(self, domain):
        detector = PortScanDetector(domain, seed=5)
        updates = [FlowUpdate(9, dest, +1) for dest in range(200)]
        assert detector.observe_stream(updates) == 200
        assert detector.top_scanners(1).destinations == [9]

    def test_observe_stream_equals_per_update(self, domain):
        looped = PortScanDetector(domain, seed=6)
        streamed = PortScanDetector(domain, seed=6)
        updates = [
            FlowUpdate(source % 7, dest, +1)
            for source, dest in enumerate(range(3000))
        ]
        updates += [update.inverted() for update in updates[::3]]
        for update in updates:
            looped.observe(update)
        assert streamed.observe_stream(iter(updates)) == len(updates)
        assert streamed.sketch.structurally_equal(looped.sketch)
        assert streamed.top_scanners(3) == looped.top_scanners(3)

    def test_distinct_semantics_resist_repeats(self, domain):
        detector = PortScanDetector(domain, seed=6)
        # One host hammering a single destination is NOT a scanner.
        for _ in range(1000):
            detector.record_contact(source=3, dest=42)
        for dest in range(50):
            detector.record_contact(source=4, dest=dest)
        assert detector.top_scanners(1).destinations == [4]


class TestValidation:
    def test_rejects_bad_k(self, domain):
        with pytest.raises(ParameterError):
            PortScanDetector(domain).top_scanners(0)

    def test_rejects_bad_tau(self, domain):
        with pytest.raises(ParameterError):
            PortScanDetector(domain).scanners_above(0)

    def test_space_accounting(self, domain):
        detector = PortScanDetector(domain, seed=7)
        detector.record_contact(1, 2)
        assert detector.space_bytes() > 0
