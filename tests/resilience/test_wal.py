"""Tests for the segmented write-ahead log."""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.exceptions import ParameterError, ReproError
from repro.obs import Registry
from repro.resilience import WalCorruption, WriteAheadLog
from repro.resilience.faults import truncate_wal_tail
from repro.resilience.wal import replay_wal
from repro.types import FlowUpdate


def framed(payload: bytes) -> bytes:
    """One CRC-valid WAL record holding ``payload``."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"RW" + struct.pack("<II", len(payload), crc) + payload


#: CRC-valid payloads whose first sequence number is malformed.
BAD_SEQUENCE_PAYLOADS = [
    b'["x",[]]',
    b"[null,[]]",
    b"[1.5,[[1,2,1]]]",
    b"[true,[[1,2,1]]]",
    b"[-1,[[1,2,1]]]",
]

#: CRC-valid payloads with a well-formed sequence number whose update
#: triple is malformed: a non-int or negative address, a delta other
#: than the integer +1 or -1.
BAD_UPDATE_PAYLOADS = [
    b'[1,[["a",2,1]]]',
    b"[1,[[1,null,1]]]",
    b"[1,[[1.0,2,1]]]",
    b"[1,[[true,2,1]]]",
    b"[1,[[-1,2,1]]]",
    b"[1,[[1,-2,1]]]",
    b"[1,[[1,2,2]]]",
    b"[1,[[1,2,0]]]",
    b"[1,[[1,2,1.0]]]",
    b"[1,[[1,2,true]]]",
    b'[1,[[1,2,1],[3,4,"-1"]]]',
]


def random_stream(count, seed=0, dests=20):
    rng = random.Random(seed)
    return [
        FlowUpdate(rng.randrange(2 ** 16), rng.randrange(dests),
                   rng.choice([1, 1, 1, -1]))
        for _ in range(count)
    ]


class TestAppendReplay:
    def test_roundtrip_preserves_updates_and_seqs(self, tmp_path):
        stream = random_stream(300, seed=1)
        with WriteAheadLog(tmp_path) as wal:
            for update in stream:
                wal.append(update)
        got = list(replay_wal(tmp_path))
        assert [seq for seq, _ in got] == list(range(300))
        assert [update for _, update in got] == stream

    def test_append_batch_assigns_contiguous_seqs(self, tmp_path):
        stream = random_stream(100, seed=2)
        with WriteAheadLog(tmp_path) as wal:
            first = wal.append_batch(stream[:60])
            second = wal.append_batch(stream[60:])
            assert first == 0
            assert second == 60
        assert [u for _, u in replay_wal(tmp_path)] == stream

    def test_replay_from_offset(self, tmp_path):
        stream = random_stream(120, seed=3)
        with WriteAheadLog(tmp_path) as wal:
            wal.append_batch(stream)
            tail = list(wal.replay(100))
        assert [seq for seq, _ in tail] == list(range(100, 120))
        assert [u for _, u in tail] == stream[100:]

    def test_reopen_continues_sequence(self, tmp_path):
        stream = random_stream(80, seed=4)
        with WriteAheadLog(tmp_path) as wal:
            wal.append_batch(stream[:50])
        with WriteAheadLog(tmp_path) as wal:
            assert wal.next_seq == 50
            wal.append_batch(stream[50:])
        assert [u for _, u in replay_wal(tmp_path)] == stream

    def test_segment_rotation(self, tmp_path):
        stream = random_stream(400, seed=5)
        with WriteAheadLog(
            tmp_path, segment_bytes=512, flush_every=10
        ) as wal:
            for update in stream:
                wal.append(update)
            assert wal.segment_count() > 1
        assert [u for _, u in replay_wal(tmp_path)] == stream

    def test_obs_counts_appended_records(self, tmp_path):
        registry = Registry()
        with WriteAheadLog(tmp_path, obs=registry) as wal:
            wal.append_batch(random_stream(40, seed=6))
        assert registry.get("repro_wal_records_total").value == 40


class TestCrashBehaviour:
    def test_torn_tail_is_tolerated_and_repaired(self, tmp_path):
        stream = random_stream(100, seed=7)
        with WriteAheadLog(tmp_path, flush_every=1) as wal:
            for update in stream:
                wal.append(update)
        truncate_wal_tail(tmp_path, drop_bytes=3)
        survivors = [u for _, u in replay_wal(tmp_path)]
        assert survivors == stream[: len(survivors)]
        assert len(survivors) == 99
        # The next writer truncates the torn record and appends after it.
        with WriteAheadLog(tmp_path) as wal:
            assert wal.next_seq == 99
            wal.append(stream[-1])
        assert [u for _, u in replay_wal(tmp_path)] == stream

    def test_corruption_before_tail_raises(self, tmp_path):
        with WriteAheadLog(
            tmp_path, segment_bytes=256, flush_every=1
        ) as wal:
            for update in random_stream(200, seed=8):
                wal.append(update)
            assert wal.segment_count() > 1
        first = sorted(tmp_path.glob("wal-*.seg"))[0]
        data = bytearray(first.read_bytes())
        data[12] ^= 0xFF
        first.write_bytes(bytes(data))
        with pytest.raises(WalCorruption):
            list(replay_wal(tmp_path))

    @pytest.mark.parametrize("payload", BAD_SEQUENCE_PAYLOADS)
    def test_malformed_sequence_number_raises(self, tmp_path, payload):
        with WriteAheadLog(tmp_path) as wal:
            wal.append_batch(random_stream(10, seed=3))
        segment = sorted(tmp_path.glob("wal-*.seg"))[-1]
        with segment.open("ab") as handle:
            handle.write(framed(payload))
        with pytest.raises(WalCorruption, match="sequence number"):
            WriteAheadLog(tmp_path)
        with pytest.raises(WalCorruption):
            list(replay_wal(tmp_path))

    @pytest.mark.parametrize("payload", BAD_UPDATE_PAYLOADS)
    def test_malformed_update_raises(self, tmp_path, payload):
        with WriteAheadLog(tmp_path) as wal:
            wal.append_batch(random_stream(10, seed=3))
        segment = sorted(tmp_path.glob("wal-*.seg"))[-1]
        with segment.open("ab") as handle:
            handle.write(framed(payload))
        with pytest.raises(WalCorruption, match="malformed update"):
            WriteAheadLog(tmp_path)
        with pytest.raises(WalCorruption, match="malformed update"):
            list(replay_wal(tmp_path))

    def test_corruption_is_a_repro_error(self):
        assert issubclass(WalCorruption, ReproError)
        assert issubclass(WalCorruption, RuntimeError)

    def test_prune_drops_only_covered_segments(self, tmp_path):
        stream = random_stream(300, seed=9)
        with WriteAheadLog(
            tmp_path, segment_bytes=512, flush_every=10
        ) as wal:
            for update in stream:
                wal.append(update)
            before = wal.segment_count()
            wal.prune(150)
            assert wal.segment_count() < before
            tail = [u for _, u in wal.replay(150)]
        assert tail == stream[150:]


class TestValidation:
    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            WriteAheadLog(tmp_path, fsync_policy="sometimes")

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(FlowUpdate(1, 2, 1))
        wal.close()
        wal.close()
        assert [u for _, u in replay_wal(tmp_path)] == [FlowUpdate(1, 2, 1)]

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_fsync_policies_all_roundtrip(self, tmp_path, policy):
        stream = random_stream(50, seed=10)
        with WriteAheadLog(
            tmp_path / policy, fsync_policy=policy
        ) as wal:
            wal.append_batch(stream)
        assert [u for _, u in replay_wal(tmp_path / policy)] == stream
