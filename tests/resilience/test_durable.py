"""Tests for DurableSketch: open / crash / reopen identity."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ParameterError
from repro.obs import Registry
from repro.resilience import DurableSketch, recover_sketch
from repro.resilience.durable import WAL_SUBDIR
from repro.resilience.faults import truncate_wal_tail
from repro.sketch import TrackingDistinctCountSketch
from repro.types import AddressDomain, FlowUpdate


def random_stream(count, seed=0, dests=15):
    rng = random.Random(seed)
    return [
        FlowUpdate(rng.randrange(2 ** 16), rng.randrange(dests),
                   rng.choice([1, 1, 1, -1]))
        for _ in range(count)
    ]


def reference_for(stream, seed=0, backend="reference"):
    sketch = TrackingDistinctCountSketch(
        AddressDomain(2 ** 16), seed=seed, backend=backend
    )
    sketch.update_batch(stream)
    return sketch


class TestReopenIdentity:
    def test_unclean_close_recovers_from_wal_alone(self, tmp_path):
        stream = random_stream(250, seed=1)
        durable = DurableSketch(tmp_path, AddressDomain(2 ** 16))
        durable.update_batch(stream)
        durable.wal.flush()
        # No close(), no checkpoint beyond the initial one: simulate a
        # crash after the last flush.
        reopened = DurableSketch(tmp_path)
        assert reopened.recovered
        assert reopened.records_replayed == 250
        assert reopened.sketch.structurally_equal(reference_for(stream))
        reopened.close()

    def test_checkpoint_bounds_the_replay_tail(self, tmp_path):
        stream = random_stream(300, seed=2)
        with DurableSketch(tmp_path, AddressDomain(2 ** 16)) as durable:
            durable.update_batch(stream[:200])
            durable.checkpoint()
            durable.update_batch(stream[200:])
        reopened = DurableSketch(tmp_path)
        assert reopened.recovered_from.wal_count == 200
        assert reopened.records_replayed == 100
        assert reopened.sketch.structurally_equal(reference_for(stream))
        reopened.close()

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_backend_preserved_across_recovery(self, tmp_path, backend):
        stream = random_stream(200, seed=3)
        with DurableSketch(
            tmp_path, AddressDomain(2 ** 16), backend=backend
        ) as durable:
            durable.update_batch(stream)
            durable.checkpoint()
        reopened = DurableSketch(tmp_path, backend=backend)
        assert reopened.sketch.backend == backend
        assert reopened.sketch.structurally_equal(
            reference_for(stream, backend=backend)
        )
        reopened.close()

    def test_checkpoint_every_autocheckpoints(self, tmp_path):
        with DurableSketch(
            tmp_path, AddressDomain(2 ** 16), checkpoint_every=100
        ) as durable:
            durable.update_batch(random_stream(350, seed=4))
            manifests = durable.checkpoints.manifests()
        assert manifests[-1].wal_count >= 300

    def test_process_stream_chunked_roundtrip(self, tmp_path):
        stream = random_stream(500, seed=5)
        with DurableSketch(tmp_path, AddressDomain(2 ** 16)) as durable:
            assert durable.process_stream(stream, batch_size=64) == 500
        reopened = DurableSketch(tmp_path)
        assert reopened.sketch.structurally_equal(reference_for(stream))
        reopened.close()


class TestTornTail:
    def test_torn_tail_loses_only_the_torn_record(self, tmp_path):
        stream = random_stream(120, seed=6)
        with DurableSketch(
            tmp_path, AddressDomain(2 ** 16), wal_flush_every=1
        ) as durable:
            for update in stream:
                durable.process(update)
        truncate_wal_tail(tmp_path / WAL_SUBDIR, drop_bytes=3)
        reopened = DurableSketch(tmp_path)
        assert reopened.records_replayed == 119
        assert reopened.sketch.structurally_equal(
            reference_for(stream[:119])
        )
        reopened.close()


class TestRecoverSketchAPI:
    def test_recover_without_checkpoint_raises(self, tmp_path):
        with pytest.raises(ParameterError):
            recover_sketch(tmp_path)

    def test_recover_from_a_missing_path_creates_nothing(self, tmp_path):
        missing = tmp_path / "absent" / "durable"
        with pytest.raises(ParameterError, match="not a directory"):
            recover_sketch(missing)
        assert not (tmp_path / "absent").exists()

    def test_first_open_requires_params(self, tmp_path):
        with pytest.raises(ParameterError):
            DurableSketch(tmp_path)

    def test_recover_sketch_matches_durable_reopen(self, tmp_path):
        stream = random_stream(150, seed=7)
        with DurableSketch(tmp_path, AddressDomain(2 ** 16)) as durable:
            durable.update_batch(stream)
            durable.checkpoint()
        result = recover_sketch(tmp_path)
        assert result.records_replayed == 0
        assert result.wal_count == 150
        assert result.sketch.structurally_equal(reference_for(stream))

    def test_replay_metric_counts(self, tmp_path):
        registry = Registry()
        with DurableSketch(tmp_path, AddressDomain(2 ** 16)) as durable:
            durable.update_batch(random_stream(90, seed=8))
            durable.wal.flush()
        reopened = DurableSketch(tmp_path, obs=registry)
        counter = registry.get("repro_wal_records_replayed_total")
        assert counter.value == 90
        reopened.close()
