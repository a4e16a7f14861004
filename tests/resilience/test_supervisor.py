"""Tests for the shard supervisor (sync-backend paths).

Process-backend chaos — real SIGKILLs — lives in ``test_chaos.py``;
these tests cover routing, restart-from-directory, and validation on
the deterministic sync backend.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import DomainError, ParameterError
from repro.resilience import ShardSupervisor
from repro.sketch import ShardedSketch, TrackingDistinctCountSketch
from repro.types import AddressDomain, FlowUpdate

NO_SLEEP = lambda _seconds: None  # noqa: E731 - injected test sleep


def random_stream(count, seed=0, dests=17):
    rng = random.Random(seed)
    return [
        FlowUpdate(rng.randrange(2 ** 16), rng.randrange(dests), 1)
        for _ in range(count)
    ]


def reference_for(stream, seed=5):
    sketch = TrackingDistinctCountSketch(AddressDomain(2 ** 16), seed=seed)
    sketch.update_batch(stream)
    return sketch


def make_bank(policy="round-robin", shards=3, seed=5):
    return ShardedSketch(
        AddressDomain(2 ** 16), shards=shards, policy=policy, seed=seed
    )


class TestIngestion:
    @pytest.mark.parametrize("policy", ["round-robin", "by-destination"])
    def test_combined_matches_unsupervised(self, tmp_path, policy):
        stream = random_stream(400, seed=1)
        with ShardSupervisor(
            make_bank(policy), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream, batch_size=64)
            assert supervisor.combined().structurally_equal(
                reference_for(stream)
            )

    def test_routed_counts_cover_the_stream(self, tmp_path):
        with ShardSupervisor(
            make_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(random_stream(300, seed=2))
            assert sum(supervisor.routed_counts()) == 300
            assert supervisor.routed_counts() == (
                supervisor.sharded.shard_update_counts()
            )

    def test_checkpoint_every_triggers(self, tmp_path):
        with ShardSupervisor(
            make_bank(), tmp_path, checkpoint_every=100, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(random_stream(250, seed=3),
                                      batch_size=50)
            manifests = supervisor.checkpoints.manifests("shard-0")
            assert manifests
            assert manifests[-1].wal_count >= 200

    @pytest.mark.parametrize("policy", ["round-robin", "by-destination"])
    def test_malformed_batch_is_neither_logged_nor_routed(
        self, tmp_path, policy
    ):
        stream = random_stream(30, seed=4)
        with ShardSupervisor(
            make_bank(policy), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.update_batch(stream)
            routed = supervisor.routed_counts()
            with pytest.raises(DomainError):
                supervisor.update_batch(
                    [FlowUpdate(1, 2, 1), FlowUpdate(3, 2 ** 20, 1)]
                )
            assert supervisor.wal.next_seq == 30
            assert supervisor.routed_counts() == routed
            supervisor.update_batch(stream[:5])
            assert supervisor.combined().structurally_equal(
                reference_for(stream + stream[:5])
            )

    def test_empty_batch_is_a_noop(self, tmp_path):
        with ShardSupervisor(
            make_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            assert supervisor.update_batch([]) == 0
            assert supervisor.wal.next_seq == 0


class TestRestart:
    @pytest.mark.parametrize("policy", ["round-robin", "by-destination"])
    def test_fresh_supervisor_recovers_directory(self, tmp_path, policy):
        stream = random_stream(500, seed=4)
        with ShardSupervisor(
            make_bank(policy), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream[:300], batch_size=50)
            supervisor.checkpoint()
            supervisor.process_stream(stream[300:], batch_size=50)
            expected_counts = supervisor.routed_counts()
        with ShardSupervisor(
            make_bank(policy), tmp_path, sleep=NO_SLEEP
        ) as recovered:
            assert recovered.routed_counts() == expected_counts
            assert recovered.combined().structurally_equal(
                reference_for(stream)
            )
            # Ingestion continues seamlessly after recovery.
            extra = random_stream(50, seed=99)
            recovered.process_stream(extra)
            assert recovered.combined().structurally_equal(
                reference_for(stream + extra)
            )

    def test_checkpoint_prunes_covered_wal(self, tmp_path):
        with ShardSupervisor(
            make_bank(),
            tmp_path,
            wal_segment_bytes=512,
            wal_flush_every=10,
            keep_checkpoints=1,
            sleep=NO_SLEEP,
        ) as supervisor:
            supervisor.process_stream(random_stream(400, seed=5),
                                      batch_size=20)
            before = supervisor.wal.segment_count()
            supervisor.checkpoint()
            assert supervisor.wal.segment_count() < before


class TestValidation:
    def test_bad_checkpoint_every_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            ShardSupervisor(make_bank(), tmp_path, checkpoint_every=-1)

    def test_bad_max_restarts_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            ShardSupervisor(make_bank(), tmp_path, max_restarts=0)

    def test_closed_supervisor_rejects_updates(self, tmp_path):
        supervisor = ShardSupervisor(
            make_bank(), tmp_path, sleep=NO_SLEEP
        )
        supervisor.close()
        supervisor.close()  # idempotent
        with pytest.raises(ParameterError):
            supervisor.process(FlowUpdate(1, 2, 1))


class TestConstructionFailureCleanup:
    """Regression: when recovery blows up during ``__init__`` the
    half-built supervisor must close its WAL — nobody else holds a
    reference, so a leaked segment handle (and its buffered tail)
    would outlive the wreck."""

    def test_failed_recovery_closes_the_wal(self, tmp_path, monkeypatch):
        from repro.resilience.supervisor import ShardSupervisor
        from repro.resilience.wal import WriteAheadLog

        # Leave WAL records behind so the next construction recovers.
        with ShardSupervisor(
            make_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(random_stream(50, seed=9))

        closed = []
        real_close = WriteAheadLog.close

        def spy_close(self):
            closed.append(self)
            real_close(self)

        def explode(self):
            raise RuntimeError("replay failed")

        monkeypatch.setattr(WriteAheadLog, "close", spy_close)
        monkeypatch.setattr(ShardSupervisor, "_recover_all", explode)
        with pytest.raises(RuntimeError):
            ShardSupervisor(make_bank(), tmp_path, sleep=NO_SLEEP)
        assert len(closed) == 1
