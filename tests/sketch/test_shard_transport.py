"""Process-backend delta sync: units, fuzz, lifecycle.

Three layers of coverage for ``ShardedSketch(backend="process")``:

* arena-level units for the dirty-bucket delta index
  (``track_deltas``/``drain_deltas``/``export_rows``);
* a differential fuzz suite proving the delta-propagated merge is
  **bit-identical** to a merge of whole shard snapshots and to a
  single-process sketch (``structurally_equal`` + identical
  ``track_topk``/``base_topk``) across policies, delete-heavy streams,
  mid-stream syncs, and a DurableSketch crash-recovery round;
* lifecycle regressions: the construction contract (packed storage,
  pair domains of at most 64 bits), running-sum invalidation on
  restore/degrade, and the stale-epoch full resync.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ParameterError
from repro.obs import Registry
from repro.resilience import DurableSketch, drop_delta_sync
from repro.sketch import ShardedSketch, TrackingDistinctCountSketch
from repro.sketch.arena import SignatureArena
from repro.sketch.serialize import dumps, loads
from repro.types import AddressDomain, FlowUpdate


def delete_heavy_stream(count, seed=0, dests=24):
    """A stream where ~40% of inserts are later deleted."""
    rng = random.Random(seed)
    updates = []
    for _ in range(count):
        source = rng.randrange(2 ** 16)
        dest = rng.randrange(dests)
        updates.append(FlowUpdate(source, dest, +1))
        if rng.random() < 0.4:
            updates.append(FlowUpdate(source, dest, -1))
    return updates


def single_for(stream, seed=5):
    sketch = TrackingDistinctCountSketch(
        AddressDomain(2 ** 16), seed=seed, backend="packed"
    )
    sketch.update_batch(stream)
    return sketch


def bank(shards=3, seed=5, policy="round-robin", obs=None):
    sharded = ShardedSketch(
        AddressDomain(2 ** 16),
        shards=shards,
        policy=policy,
        seed=seed,
        obs=obs,
        backend="process",
    )
    if sharded.backend != "process":
        pytest.skip("multiprocessing unavailable on this platform")
    assert sharded.transport == "delta"
    return sharded


class TestArenaDeltaTracking:
    def make(self):
        arena = SignatureArena(8, 16)
        arena.track_deltas(True)
        return arena

    def test_drain_reports_touched_buckets_only(self):
        arena = self.make()
        arena.update(3, 0b101, +1)
        arena.update(7, 0b11, +1)
        buckets, rows = arena.drain_deltas()
        assert sorted(buckets) == [3, 7]
        assert len(rows) == 2 * arena.stride
        # Nothing touched since the drain: empty delta.
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == [] and list(rows) == []

    def test_delta_is_difference_from_baseline(self):
        arena = self.make()
        arena.update(3, 0b101, +1)
        arena.drain_deltas()
        arena.update(3, 0b101, +1)
        arena.update(3, 0b11, +1)
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == [3]
        # Two inserts since the baseline: count delta == 2.
        assert rows[0] == 2

    def test_deletion_to_zero_yields_negative_delta(self):
        arena = self.make()
        arena.update(5, 0b1, +1)
        arena.drain_deltas()
        arena.update(5, 0b1, -1)
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == [5]
        assert rows[0] == -1
        assert 5 not in arena  # bucket fully released

    def test_net_zero_window_ships_nothing(self):
        arena = self.make()
        arena.drain_deltas()
        arena.update(9, 0b10, +1)
        arena.update(9, 0b10, -1)
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == []

    def test_export_rows_is_absolute(self):
        arena = self.make()
        arena.update(2, 0b1, +1)
        arena.update(2, 0b1, +1)
        arena.drain_deltas()
        buckets, rows = arena.export_rows()
        assert list(buckets) == [2]
        assert rows[0] == 2  # absolute count, not delta-since-drain

    def test_tracking_off_by_default_and_toggleable(self):
        arena = SignatureArena(8, 16)
        arena.update(1, 0b1, +1)
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == []  # no dirty index without tracking
        arena.track_deltas(True)
        arena.update(1, 0b1, +1)
        arena.track_deltas(False)
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == []

    def test_pickle_roundtrip_drops_dirty_index(self):
        import pickle

        arena = self.make()
        arena.update(4, 0b1, +1)
        restored = pickle.loads(pickle.dumps(arena))
        assert restored == arena
        buckets, _rows = restored.drain_deltas()
        assert list(buckets) == []


class TestTransportResolution:
    def test_default_process_bank_is_packed_delta(self):
        sharded = bank(shards=2)  # helper asserts transport == "delta"
        try:
            assert sharded.sketch_backend == "packed"
            assert sharded.shard(0).backend == "packed"
        finally:
            sharded.close()

    def test_packed_transport_rejects_reference_backend(self):
        with pytest.raises(ParameterError):
            ShardedSketch(
                AddressDomain(2 ** 16), shards=2, seed=5,
                backend="process", sketch_backend="reference",
            )

    def test_packed_transport_rejects_wide_pair_domain(self):
        # pair_bits == 66: pair codes no longer fit one uint64 lane.
        with pytest.raises(ParameterError):
            ShardedSketch(
                AddressDomain(2 ** 33), shards=2, seed=5,
                backend="process",
            )

    def test_sync_backend_has_no_transport(self):
        sharded = ShardedSketch(AddressDomain(2 ** 16), shards=2, seed=5)
        assert sharded.transport is None


class TestDifferentialFuzz:
    """Delta merges must be bit-identical to snapshot merges."""

    @pytest.mark.parametrize("policy", ["round-robin", "by-destination"])
    def test_matches_single_sketch_with_mid_stream_syncs(self, policy):
        stream = delete_heavy_stream(2500, seed=17)
        single = single_for(stream)
        sharded = bank(policy=policy)
        try:
            third = len(stream) // 3
            sharded.update_batch(stream[:third])
            sharded.combined().track_topk(5)  # mid-stream sync 1
            sharded.update_batch(stream[third:2 * third])
            sharded.combined().track_topk(5)  # mid-stream sync 2
            sharded.update_batch(stream[2 * third:])
            combined = sharded.combined()
            assert combined.structurally_equal(single)
            assert combined.updates_processed == single.updates_processed
            assert combined.net_total == single.net_total
            assert combined.track_topk(8).as_dict() == (
                single.track_topk(8).as_dict()
            )
            assert combined.base_topk(8).as_dict() == (
                single.base_topk(8).as_dict()
            )
        finally:
            sharded.close()

    def test_bit_identical_to_shard_snapshot_merge(self):
        stream = delete_heavy_stream(1500, seed=23)
        sharded = bank(seed=7)
        try:
            sharded.update_batch(stream[:700])
            sharded.combined()  # force an incremental window
            sharded.update_batch(stream[700:])
            # Whole-snapshot merge of the same workers: the sync path
            # the delta fold replaced.
            baseline = TrackingDistinctCountSketch(
                sharded.params, seed=7, backend="packed"
            )
            for index in range(sharded.num_shards):
                baseline.merge(sharded.shard(index))
            candidate = sharded.combined()
            assert candidate.structurally_equal(baseline)
            assert candidate.base_topk(10).as_dict() == (
                baseline.base_topk(10).as_dict()
            )
        finally:
            sharded.close()

    def test_combined_serialize_roundtrip(self):
        stream = delete_heavy_stream(800, seed=29)
        sharded = bank()
        try:
            sharded.update_batch(stream)
            combined = sharded.combined()
            restored = loads(dumps(combined), backend="packed")
            assert restored.structurally_equal(combined)
            assert restored.track_topk(5).as_dict() == (
                combined.track_topk(5).as_dict()
            )
        finally:
            sharded.close()

    def test_matches_durable_sketch_recovery(self, tmp_path):
        stream = delete_heavy_stream(900, seed=31)
        with DurableSketch(
            tmp_path, AddressDomain(2 ** 16), seed=5, backend="packed"
        ) as durable:
            for update in stream:
                durable.process(update)
        # Reopen: recovery replays checkpoint + WAL tail exactly.
        with DurableSketch(
            tmp_path, AddressDomain(2 ** 16), seed=5, backend="packed"
        ) as recovered:
            sharded = bank()
            try:
                sharded.update_batch(stream)
                assert sharded.combined().structurally_equal(
                    recovered.sketch
                )
            finally:
                sharded.close()


class TestRunningSumInvalidation:
    def test_post_respawn_topk_equals_scratch_merge(self):
        stream = delete_heavy_stream(1200, seed=37)
        sharded = bank()
        try:
            half = len(stream) // 2
            sharded.update_batch(stream[:half])
            sharded.combined()  # prime the running sum
            snapshot = dumps(sharded.shard(1))
            count = sharded.shard_update_counts()[1]
            sharded.restore_shard(1, snapshot, processed_count=count)
            sharded.update_batch(stream[half:])
            single = single_for(stream)
            combined = sharded.combined()
            assert combined.structurally_equal(single)
            assert combined.track_topk(8).as_dict() == (
                single.track_topk(8).as_dict()
            )
        finally:
            sharded.close()

    def test_degrade_to_sync_invalidates_and_stays_exact(self):
        stream = delete_heavy_stream(1000, seed=41)
        sharded = bank()
        try:
            half = len(stream) // 2
            sharded.update_batch(stream[:half])
            sharded.combined()
            payloads = [
                dumps(sharded.shard(index))
                for index in range(sharded.num_shards)
            ]
            sharded.degrade_to_sync(
                payloads, sharded.shard_update_counts()
            )
            assert sharded.backend == "sync"
            assert sharded.transport is None
            sharded.update_batch(stream[half:])
            assert sharded.combined().structurally_equal(
                single_for(stream)
            )
        finally:
            sharded.close()

    def test_stale_epoch_triggers_exact_full_resync(self):
        stream = delete_heavy_stream(1000, seed=43)
        registry = Registry()
        sharded = bank(obs=registry)
        try:
            half = len(stream) // 2
            sharded.update_batch(stream[:half])
            sharded.combined()
            resyncs_before = self._resyncs(registry)
            sharded.update_batch(stream[half:])
            # Torn sync: shard 1's delta window drains into the void.
            dropped = drop_delta_sync(sharded, 1)
            assert dropped >= 0
            combined = sharded.combined()
            assert combined.structurally_equal(single_for(stream))
            assert self._resyncs(registry) == resyncs_before + 1
        finally:
            sharded.close()

    @staticmethod
    def _resyncs(registry):
        for family in registry.snapshot()["instruments"]:
            if family["name"] == "repro_sharded_full_resyncs_total":
                return sum(
                    sample.get("value", 0)
                    for sample in family["samples"]
                )
        return 0

    def test_drop_delta_sync_requires_delta_transport(self):
        sharded = ShardedSketch(AddressDomain(2 ** 16), shards=2, seed=5)
        with pytest.raises(ParameterError):
            drop_delta_sync(sharded, 0)
