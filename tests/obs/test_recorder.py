"""Tests for the crash flight recorder (repro.obs.recorder)."""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.exceptions import ParameterError
from repro.obs import (
    NULL_RECORDER,
    FlightRecorder,
    Tracer,
    current_recorder,
    install_recorder,
    install_tracer,
    load_blackbox,
    uninstall_recorder,
    uninstall_tracer,
)


def framed(payload: bytes) -> bytes:
    """One CRC-valid dump record holding ``payload``."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"FR" + struct.pack("<II", len(payload), crc) + payload


#: A well-formed header record.
GOOD_HEADER = framed(b'{"record":"header","reason":"test","version":1}')

#: Dumps whose every frame is intact but one record is not a JSON
#: object, by case: ``(bytes, index of the bad record)``.
MALFORMED_DUMPS = {
    "not-json": (framed(b"not json"), 0),
    "non-ascii": (framed(b'{"record":"header","x":"\xc3\xa9"}'), 0),
    "list-header": (framed(b'["header"]'), 0),
    "list-record": (GOOD_HEADER + framed(b'["event"]'), 1),
}


@pytest.fixture(autouse=True)
def restore_globals():
    yield
    uninstall_recorder()
    uninstall_tracer()


class TestEventRing:
    def test_record_assigns_sequence_numbers(self):
        recorder = FlightRecorder()
        recorder.record("worker_died", shard=1)
        recorder.record("worker_respawn", shard=1, attempt=1)
        first, second = recorder.events()
        assert first == {"seq": 1, "kind": "worker_died", "shard": 1}
        assert second["seq"] == 2

    def test_capacity_bounds_the_ring(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(10):
            recorder.record("threshold_crossing", dest=index)
        events = recorder.events()
        assert len(events) == 3
        assert [event["dest"] for event in events] == [7, 8, 9]

    def test_clear_keeps_the_sequence_counter(self):
        recorder = FlightRecorder()
        recorder.record("wal_repair")
        recorder.clear()
        recorder.record("wal_repair")
        assert recorder.events()[0]["seq"] == 2

    def test_validation(self):
        with pytest.raises(ParameterError):
            FlightRecorder(capacity=0)


class TestDumpRoundTrip:
    def test_dump_and_load(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("worker_died", shard=2, detail="SIGKILL")
        tracer = Tracer()
        with tracer.span("sharded.pipe_send"):
            pass
        path = recorder.dump(
            tmp_path / "bb.bin", reason="worker-died", spans=tracer.spans()
        )
        dump = load_blackbox(path)
        assert dump.reason == "worker-died"
        assert not dump.torn
        assert dump.header["version"] == 1
        assert dump.header["events"] == 1
        assert dump.header["spans"] == 1
        assert dump.events[0]["kind"] == "worker_died"
        assert dump.spans[0]["name"] == "sharded.pipe_send"

    def test_spans_default_to_the_installed_tracer(self, tmp_path):
        tracer = Tracer()
        install_tracer(tracer)
        with tracer.span("wal.append"):
            pass
        recorder = FlightRecorder()
        dump = load_blackbox(
            recorder.dump(tmp_path / "bb.bin", reason="unclean-exit")
        )
        assert [entry["name"] for entry in dump.spans] == ["wal.append"]

    def test_dump_creates_parent_directories(self, tmp_path):
        recorder = FlightRecorder()
        path = recorder.dump(
            tmp_path / "deep" / "bb.bin", reason="test", spans=[]
        )
        assert path.exists()

    def test_next_dump_path_advances_per_dump(self, tmp_path):
        recorder = FlightRecorder()
        first = recorder.next_dump_path(tmp_path)
        recorder.dump(first, reason="one", spans=[])
        second = recorder.next_dump_path(tmp_path)
        assert first != second
        assert first.name.startswith("blackbox-")


class TestTornDumps:
    def test_torn_tail_truncates_but_parses(self, tmp_path):
        recorder = FlightRecorder()
        for index in range(4):
            recorder.record("threshold_crossing", dest=index)
        path = recorder.dump(tmp_path / "bb.bin", reason="test", spans=[])
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # tear the last record mid-payload
        dump = load_blackbox(path)
        assert dump.torn
        assert len(dump.events) == 3  # the torn fourth record is dropped
        assert dump.reason == "test"

    def test_corrupted_payload_fails_crc(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("wal_repair", segment="wal-0.bin")
        path = recorder.dump(tmp_path / "bb.bin", reason="test", spans=[])
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # flip a byte inside the last payload
        path.write_bytes(bytes(data))
        dump = load_blackbox(path)
        assert dump.torn
        assert dump.events == []

    def test_not_a_dump_raises(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"this is not a dump")
        with pytest.raises(ParameterError):
            load_blackbox(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_blackbox(tmp_path / "absent.bin")

    @pytest.mark.parametrize("case", sorted(MALFORMED_DUMPS))
    def test_intact_record_that_is_not_an_object_raises(
        self, tmp_path, case
    ):
        data, index = MALFORMED_DUMPS[case]
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        with pytest.raises(ParameterError, match=f"record {index}"):
            load_blackbox(path)


class TestProcessWideInstall:
    def test_default_is_the_null_recorder(self):
        assert current_recorder() is NULL_RECORDER
        assert not current_recorder().enabled

    def test_null_recorder_drops_events_and_dumps(self, tmp_path):
        NULL_RECORDER.record("worker_died", shard=0)
        assert len(NULL_RECORDER) == 0
        path = NULL_RECORDER.dump(tmp_path / "bb.bin", reason="x")
        assert not path.exists()

    def test_install_and_uninstall(self):
        recorder = FlightRecorder()
        previous = install_recorder(recorder)
        assert previous is NULL_RECORDER
        current_recorder().record("degrade_to_sync", shards=3)
        assert len(recorder) == 1
        assert uninstall_recorder() is recorder
        assert current_recorder() is NULL_RECORDER
