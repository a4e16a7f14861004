"""Tests for the flow-record (NetFlow-style) export pipeline."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.netsim import (
    FlashCrowd,
    FlowExporter,
    FlowRecord,
    Packet,
    PacketKind,
    RecordExporter,
    SynFloodAttack,
    TcpFlag,
    records_to_updates,
)
from repro.streams import true_frequencies


def syn(source, dest, time):
    return Packet(time=time, source=source, dest=dest,
                  kind=PacketKind.SYN)


def ack(source, dest, time):
    return Packet(time=time, source=source, dest=dest,
                  kind=PacketKind.ACK)


class TestFlowRecord:
    def test_half_open_classification(self):
        record = FlowRecord(1, 2, packets=1, flags=TcpFlag.SYN,
                            first=0.0, last=0.0)
        assert record.is_half_open
        assert not record.completes_handshake

    def test_completed_classification(self):
        record = FlowRecord(1, 2, packets=2,
                            flags=TcpFlag.SYN | TcpFlag.ACK,
                            first=0.0, last=1.0)
        assert not record.is_half_open
        assert record.completes_handshake

    def test_reset_counts_as_completion(self):
        record = FlowRecord(1, 2, packets=2,
                            flags=TcpFlag.SYN | TcpFlag.RST,
                            first=0.0, last=1.0)
        assert not record.is_half_open
        assert record.completes_handshake


class TestRecordExporter:
    def test_aggregates_packets_into_one_record(self):
        exporter = RecordExporter(inactive_timeout=10, active_timeout=60)
        exporter.observe(syn(1, 2, 0.0))
        exporter.observe(ack(1, 2, 0.5))
        records = exporter.flush()
        assert len(records) == 1
        assert records[0].packets == 2
        assert records[0].flags & TcpFlag.SYN
        assert records[0].flags & TcpFlag.ACK

    def test_inactive_timeout_exports(self):
        exporter = RecordExporter(inactive_timeout=5, active_timeout=60)
        exporter.observe(syn(1, 2, 0.0))
        exported = exporter.observe(syn(3, 4, 100.0))
        assert len(exported) == 1
        assert exported[0].source == 1

    def test_active_timeout_splits_long_flows(self):
        exporter = RecordExporter(inactive_timeout=5, active_timeout=10)
        exporter.observe(syn(1, 2, 0.0))
        for step in range(1, 4):
            exporter.observe(
                Packet(time=4.0 * step, source=1, dest=2,
                       kind=PacketKind.DATA)
            )
        # The flow is split once the active timeout passes.
        assert exporter.records_exported >= 1

    def test_flush_drains_cache(self):
        exporter = RecordExporter()
        exporter.observe(syn(1, 2, 0.0))
        exporter.observe(syn(3, 4, 0.1))
        records = exporter.flush()
        assert len(records) == 2
        assert exporter.cached_flows == 0

    def test_timestamps_recorded(self):
        exporter = RecordExporter()
        exporter.observe(syn(1, 2, 3.5))
        exporter.observe(ack(1, 2, 4.5))
        record = exporter.flush()[0]
        assert record.first == 3.5
        assert record.last == 4.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(inactive_timeout=0),
            dict(active_timeout=0),
            dict(inactive_timeout=10, active_timeout=5),
        ],
    )
    def test_rejects_bad_timeouts(self, kwargs):
        with pytest.raises(ParameterError):
            RecordExporter(**kwargs)


class TestRecordsToUpdates:
    def test_half_open_record_inserts(self):
        records = [FlowRecord(1, 2, 1, TcpFlag.SYN, 0.0, 0.0)]
        updates = list(records_to_updates(records))
        assert len(updates) == 1
        assert updates[0].delta == +1

    def test_self_contained_completion_emits_nothing(self):
        records = [FlowRecord(1, 2, 2, TcpFlag.SYN | TcpFlag.ACK,
                              0.0, 1.0)]
        assert list(records_to_updates(records)) == []

    def test_split_flow_emits_insert_then_delete(self):
        records = [
            FlowRecord(1, 2, 1, TcpFlag.SYN, 0.0, 0.0),
            FlowRecord(1, 2, 1, TcpFlag.ACK, 20.0, 20.0),
        ]
        updates = list(records_to_updates(records))
        assert [u.delta for u in updates] == [+1, -1]

    def test_duplicate_half_open_records_insert_once(self):
        records = [
            FlowRecord(1, 2, 1, TcpFlag.SYN, 0.0, 0.0),
            FlowRecord(1, 2, 1, TcpFlag.SYN, 30.0, 30.0),
        ]
        updates = list(records_to_updates(records))
        assert len(updates) == 1

    def test_orphan_ack_record_emits_nothing(self):
        records = [FlowRecord(1, 2, 1, TcpFlag.ACK, 0.0, 0.0)]
        assert list(records_to_updates(records)) == []

    @pytest.mark.parametrize("pair_open", [False, True])
    @pytest.mark.parametrize("bits", range(16))
    def test_every_flag_combination_follows_the_rule(self, bits, pair_open):
        # The documented rule, restated on plain bits: SYN=1, ACK=2,
        # FIN=4, RST=8.
        syn, ack, rst = bits & 1, bits & 2, bits & 8
        half_open = bool(syn and not ack and not rst)
        completes = bool(ack or rst)
        if half_open:
            expected = [] if pair_open else [+1]
        elif completes and pair_open:
            expected = [-1]
        else:
            expected = []
        record = FlowRecord(1, 2, 1, TcpFlag(bits), 5.0, 5.0)
        assert record.is_half_open is half_open
        assert record.completes_handshake is completes
        opener = [FlowRecord(1, 2, 1, TcpFlag.SYN, 0.0, 0.0)]
        updates = list(
            records_to_updates((opener if pair_open else []) + [record])
        )
        if pair_open:
            assert updates[0].delta == +1
            updates = updates[1:]
        assert [(u.source, u.dest, u.delta) for u in updates] == [
            (1, 2, delta) for delta in expected
        ]


class TestEndToEndAgreement:
    def test_record_path_agrees_with_packet_path_on_attack(self):
        attack = SynFloodAttack(victim=7, flood_size=800, duration=5,
                                seed=1)
        packets = attack.packets()
        packet_updates = FlowExporter().export_all(packets)
        records = RecordExporter(
            inactive_timeout=30, active_timeout=120
        ).export_all(packets)
        record_updates = list(records_to_updates(records))
        assert (true_frequencies(packet_updates)
                == true_frequencies(record_updates))

    def test_record_path_agrees_on_flash_crowd(self):
        crowd = FlashCrowd(destination=9, crowd_size=500, duration=5,
                           seed=2)
        packets = crowd.packets()
        packet_updates = FlowExporter().export_all(packets)
        records = RecordExporter(
            inactive_timeout=30, active_timeout=120
        ).export_all(packets)
        record_updates = list(records_to_updates(records))
        assert true_frequencies(packet_updates) == {}
        assert true_frequencies(record_updates) == {}

    def test_split_handshake_still_nets_zero(self):
        # SYN and ACK separated by more than the inactive timeout: the
        # flow is exported half-open, then completed by a later record.
        exporter = RecordExporter(inactive_timeout=5, active_timeout=60)
        records = exporter.export_all([
            syn(1, 2, 0.0),
            ack(1, 2, 50.0),
        ])
        updates = list(records_to_updates(records))
        assert true_frequencies(updates) == {}
        assert [u.delta for u in updates] == [+1, -1]
