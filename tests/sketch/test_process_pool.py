"""Tests for ProcessShardPool edge paths and the recovery surface."""

from __future__ import annotations

import random

import pytest

from repro.sketch import ShardedSketch, TrackingDistinctCountSketch
from repro.sketch import serialize
from repro.sketch.dcs import encode_batch
from repro.sketch.params import SketchParams
from repro.sketch.process_pool import (
    PoolUnavailable,
    ProcessShardPool,
    WorkerDied,
    frame_bytes,
    read_frame,
)
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)


def frame(updates):
    """The ``(codes, deltas)`` frame a router would send for ``updates``."""
    return encode_batch(DOMAIN, list(updates))


ONE = frame([FlowUpdate(1, 2, 1)])


def random_stream(count, seed=0, dests=9):
    rng = random.Random(seed)
    return [
        FlowUpdate(rng.randrange(2 ** 16), rng.randrange(dests), 1)
        for _ in range(count)
    ]


def make_pool(shards=2):
    params = SketchParams(DOMAIN)
    try:
        return ProcessShardPool(params, 7, shards)
    except PoolUnavailable:
        pytest.skip("multiprocessing unavailable on this platform")


class TestLifecycle:
    def test_close_is_idempotent_and_final(self):
        pool = make_pool()
        pool.close()
        pool.close()
        assert not pool.is_alive(0)
        assert pool.pid(0) is None
        with pytest.raises(PoolUnavailable):
            pool.ingest(0, *ONE)
        with pytest.raises(PoolUnavailable):
            pool.snapshot(0)
        with pytest.raises(PoolUnavailable):
            pool.respawn(0)

    def test_ingest_after_worker_death_raises_workerdied(self):
        import os
        import signal

        pool = make_pool()
        try:
            os.kill(pool.pid(0), signal.SIGKILL)
            with pytest.raises(WorkerDied) as excinfo:
                for _ in range(2048):  # fill the pipe until it breaks
                    pool.ingest(0, *ONE)
                pool.snapshot(0)
            assert excinfo.value.shard == 0
        finally:
            pool.close()

    def test_respawn_replaces_dead_worker_with_state(self):
        import os
        import signal

        pool = make_pool()
        try:
            stream = random_stream(100, seed=1)
            pool.ingest(0, *frame(stream))
            payload = pool.snapshot(0)
            os.kill(pool.pid(0), signal.SIGKILL)
            old_pid = pool.pid(0)
            pool.respawn(0, payload)
            assert pool.is_alive(0)
            assert pool.pid(0) != old_pid
            restored = serialize.loads(pool.snapshot(0))
            reference = TrackingDistinctCountSketch(
                AddressDomain(2 ** 16), seed=7, backend="reference"
            )
            reference.update_batch(stream)
            assert restored.structurally_equal(reference)
        finally:
            pool.close()

    def test_respawn_without_payload_starts_empty(self):
        pool = make_pool()
        try:
            pool.ingest(1, *ONE)
            pool.snapshot(1)  # drain so the ingest definitely applied
            pool.respawn(1)
            fresh = serialize.loads(pool.snapshot(1))
            assert fresh.updates_processed == 0
        finally:
            pool.close()


class TestFrames:
    def test_frame_bytes_round_trip(self):
        codes, deltas = frame(random_stream(50, seed=3) + [
            FlowUpdate(7, 8, -1)
        ])
        payload = frame_bytes(codes, deltas)
        assert isinstance(payload, bytes)
        assert len(payload) == 16 * len(codes)
        got_codes, got_deltas = read_frame(payload)
        assert got_codes.dtype.name == "uint64"
        assert got_deltas.dtype.name == "int64"
        assert got_codes.tolist() == codes.tolist()
        assert got_deltas.tolist() == deltas.tolist()

    def test_partial_frame_is_rejected(self):
        payload = frame_bytes(*ONE)
        with pytest.raises(ValueError):
            read_frame(payload[:-8])

    def test_ingested_frames_match_one_sketch(self):
        pool = make_pool()
        try:
            stream = random_stream(300, seed=8)
            pool.ingest(0, *frame(stream[:120]))
            pool.ingest(0, *frame(stream[120:]))
            merged = serialize.loads(pool.snapshot(0))
            reference = TrackingDistinctCountSketch(
                DOMAIN, seed=7, backend="reference"
            )
            reference.update_batch(stream)
            assert merged.structurally_equal(reference)
            assert merged.updates_processed == 300
        finally:
            pool.close()


class TestShardedFallbacks:
    def test_sync_fallback_when_pool_unavailable(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise PoolUnavailable("injected: no start method")

        import repro.sketch.sharded as sharded_module

        monkeypatch.setattr(
            sharded_module, "ProcessShardPool", refuse
        )
        bank = ShardedSketch(
            AddressDomain(2 ** 16), shards=2, backend="process", seed=3
        )
        assert bank.backend == "sync"
        stream = random_stream(200, seed=2)
        bank.process_stream(stream)
        reference = TrackingDistinctCountSketch(
            AddressDomain(2 ** 16), seed=3, backend="reference"
        )
        reference.update_batch(stream)
        assert bank.combined().structurally_equal(reference)

    def test_sharded_close_is_idempotent(self):
        bank = ShardedSketch(
            AddressDomain(2 ** 16), shards=2, backend="process", seed=3
        )
        bank.close()
        bank.close()


class TestCombinedMemoInvalidation:
    """Regression: the combined() memo must not survive a worker
    respawn or restore — a restored shard holds different state even
    though no update was routed."""

    @pytest.mark.parametrize("backend", ["sync", "process"])
    def test_restore_shard_invalidates_memo(self, backend):
        bank = ShardedSketch(
            AddressDomain(2 ** 16),
            shards=2,
            policy="round-robin",
            seed=3,
            backend=backend,
        )
        if backend == "process" and bank.backend != "process":
            pytest.skip("multiprocessing unavailable on this platform")
        try:
            stream = random_stream(100, seed=4)
            bank.process_stream(stream, batch_size=25)
            before = bank.combined()
            assert bank.combined() is before  # memo holds
            # Snapshot shard 0, then restore it *emptied*: combined()
            # must recompute and see the smaller state.
            bank.restore_shard(0, None, processed_count=0)
            after = bank.combined()
            assert after is not before
            assert after.updates_processed < before.updates_processed
        finally:
            bank.close()

    def test_degrade_to_sync_invalidates_memo(self):
        bank = ShardedSketch(
            AddressDomain(2 ** 16),
            shards=2,
            policy="round-robin",
            seed=3,
            backend="process",
        )
        if bank.backend != "process":
            pytest.skip("multiprocessing unavailable on this platform")
        stream = random_stream(80, seed=5)
        bank.process_stream(stream, batch_size=20)
        before = bank.combined()
        bank.degrade_to_sync([None, None], [0, 0])
        assert bank.backend == "sync"
        after = bank.combined()
        assert after is not before
        assert after.updates_processed == 0
        assert bank.shard_update_counts() == [0, 0]


class TestSerializeBackendMismatch:
    """loads(backend=...) intentionally re-homes the synopsis: loading
    a reference-backend dump as packed (and vice versa) must produce a
    structurally identical sketch, not an error."""

    @pytest.mark.parametrize(
        "dump_backend,load_backend",
        [("reference", "packed"), ("packed", "reference")],
    )
    def test_cross_backend_load_is_lossless(
        self, dump_backend, load_backend
    ):
        sketch = TrackingDistinctCountSketch(
            AddressDomain(2 ** 16), seed=9, backend=dump_backend
        )
        sketch.update_batch(random_stream(150, seed=6))
        restored = serialize.loads(
            serialize.dumps(sketch), backend=load_backend
        )
        assert restored.backend == load_backend
        assert restored.structurally_equal(sketch)

    def test_unknown_backend_rejected(self):
        sketch = TrackingDistinctCountSketch(
            AddressDomain(2 ** 16), seed=9
        )
        payload = serialize.dumps(sketch)
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError):
            serialize.loads(payload, backend="mmap")


class _StubConn:
    """Pipe end whose first send fails — a worker that dies at birth."""

    def __init__(self):
        self.closed = False

    def send(self, message):
        raise BrokenPipeError("worker died during handshake")

    def close(self):
        self.closed = True


class _StubProcess:
    def __init__(self):
        self.terminated = False
        self.join_calls = 0
        self.pid = None

    def terminate(self):
        self.terminated = True

    def join(self, timeout=None):
        self.join_calls += 1

    def is_alive(self):
        return False


class TestRespawnFailureCleanup:
    """Regression: a respawn whose state-load send fails must release
    the fresh pipe end and reap the fresh process before raising, or
    every failed respawn leaks a pipe pair and a zombie."""

    def test_failed_state_load_closes_conn_and_reaps_process(self):
        pool = make_pool()
        conn, process = _StubConn(), _StubProcess()
        try:
            pool._spawn = lambda shard: (conn, process)
            with pytest.raises(PoolUnavailable):
                pool.respawn(0, payload=b"snapshot")
            assert conn.closed
            assert process.terminated
            assert process.join_calls >= 1
            # The dead stub must not have been installed as the shard.
            assert pool._connections[0] is not conn
        finally:
            pool.close()

    def test_failed_respawn_without_payload_installs_worker(self):
        # Without a payload nothing is sent, so the same stub pair is
        # accepted — the cleanup path only runs when the handshake runs.
        pool = make_pool()
        conn, process = _StubConn(), _StubProcess()
        try:
            pool._spawn = lambda shard: (conn, process)
            pool.respawn(0)
            assert not conn.closed
            assert pool._connections[0] is conn
        finally:
            pool._connections[0] = _StubConn()  # detach stub before close
            pool._processes[0] = _StubProcess()
            pool.close()
