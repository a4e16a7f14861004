"""Chaos suite: inflicted faults must not change the answer.

Every test here injects a real fault — SIGKILL of a worker process, a
torn WAL tail, a corrupted checkpoint payload — and asserts the
recovered sketch is ``structurally_equal`` (and yields the identical
top-k) to an uninterrupted run.  That is the recovery identity of
:mod:`repro.resilience`: the sketch is a linear, order-invariant,
delete-impervious function of the update multiset, so checkpoint +
WAL-tail replay is bit-exact, not approximate.
"""

from __future__ import annotations

import random

import pytest

from repro.resilience import (
    ShardSupervisor,
    corrupt_latest_checkpoint,
    drop_delta_sync,
    kill_shard_worker,
    truncate_wal_tail,
)
from repro.resilience.durable import CHECKPOINT_SUBDIR, WAL_SUBDIR
from repro.sketch import ShardedSketch, TrackingDistinctCountSketch
from repro.sketch.process_pool import PoolUnavailable
from repro.types import AddressDomain, FlowUpdate

NO_SLEEP = lambda _seconds: None  # noqa: E731 - injected test sleep


def random_stream(count, seed=0, dests=13):
    rng = random.Random(seed)
    return [
        FlowUpdate(rng.randrange(2 ** 16), rng.randrange(dests), 1)
        for _ in range(count)
    ]


def reference_for(stream, seed=5):
    sketch = TrackingDistinctCountSketch(
        AddressDomain(2 ** 16), seed=seed, backend="reference"
    )
    sketch.update_batch(stream)
    return sketch


def routed_tally(stream, policy="round-robin"):
    """Updates per shard a three-shard bank routes ``stream`` to."""
    bank = ShardedSketch(
        AddressDomain(2 ** 16), shards=3, policy=policy, seed=5
    )
    bank.update_batch(stream)
    return bank.shard_update_counts()


def assert_tallies(supervisor, stream, policy="round-robin"):
    """The supervisor's routed counts are the sharded sketch's tally,
    and both count what the router sent each shard."""
    routed = supervisor.routed_counts()
    assert routed == supervisor.sharded.shard_update_counts()
    assert routed == routed_tally(stream, policy)


def process_bank(policy="round-robin"):
    bank = ShardedSketch(
        AddressDomain(2 ** 16),
        shards=3,
        policy=policy,
        seed=5,
        backend="process",
    )
    if bank.backend != "process":
        pytest.skip("multiprocessing unavailable on this platform")
    return bank


class TestKillNineRecovery:
    def test_sigkill_mid_stream_recovers_bit_identical(self, tmp_path):
        stream = random_stream(600, seed=1)
        with ShardSupervisor(
            process_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream[:300], batch_size=50)
            supervisor.checkpoint()
            supervisor.process_stream(stream[300:450], batch_size=50)
            kill_shard_worker(supervisor.sharded, 1)
            supervisor.process_stream(stream[450:], batch_size=50)
            reference = reference_for(stream)
            recovered = supervisor.combined()
            assert recovered.structurally_equal(reference)
            assert (
                recovered.track_topk(5).destinations
                == reference.track_topk(5).destinations
            )
            assert supervisor.restarts >= 1
            assert supervisor.backend == "process"
            assert_tallies(supervisor, stream)

    def test_sigkill_before_any_checkpoint_replays_from_zero(
        self, tmp_path
    ):
        stream = random_stream(300, seed=2)
        with ShardSupervisor(
            process_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream[:200], batch_size=40)
            kill_shard_worker(supervisor.sharded, 0)
            supervisor.process_stream(stream[200:], batch_size=40)
            assert supervisor.combined().structurally_equal(
                reference_for(stream)
            )
            assert_tallies(supervisor, stream)

    def test_sigkill_detected_at_combine_time(self, tmp_path):
        stream = random_stream(300, seed=3)
        with ShardSupervisor(
            process_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream, batch_size=50)
            kill_shard_worker(supervisor.sharded, 2)
            # No further ingest: combined() itself must notice & recover.
            assert supervisor.combined().structurally_equal(
                reference_for(stream)
            )
            assert_tallies(supervisor, stream)

    @pytest.mark.parametrize("policy", ["round-robin", "by-destination"])
    def test_both_policies_survive_a_kill(self, tmp_path, policy):
        stream = random_stream(400, seed=4)
        with ShardSupervisor(
            process_bank(policy=policy), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream[:200], batch_size=40)
            kill_shard_worker(supervisor.sharded, 1)
            supervisor.process_stream(stream[200:], batch_size=40)
            assert supervisor.combined().structurally_equal(
                reference_for(stream)
            )
            assert_tallies(supervisor, stream, policy)


class TestDegradeToSync:
    def test_exhausted_restarts_degrade_and_stay_correct(
        self, tmp_path, monkeypatch
    ):
        stream = random_stream(500, seed=5)
        supervisor = ShardSupervisor(
            process_bank(),
            tmp_path,
            max_restarts=2,
            sleep=NO_SLEEP,
        )
        supervisor.process_stream(stream[:250], batch_size=50)
        supervisor.checkpoint()

        def refuse_respawn(self, shard, payload=None):
            raise PoolUnavailable("injected: platform lost fork")

        from repro.sketch.process_pool import ProcessShardPool

        monkeypatch.setattr(ProcessShardPool, "respawn", refuse_respawn)
        kill_shard_worker(supervisor.sharded, 0)
        supervisor.process_stream(stream[250:], batch_size=50)
        assert supervisor.backend == "sync"
        assert supervisor.restarts == 2
        assert supervisor.combined().structurally_equal(
            reference_for(stream)
        )
        assert_tallies(supervisor, stream)
        # Ingestion continues on the sync backend after degrading.
        extra = random_stream(60, seed=55)
        supervisor.process_stream(extra)
        assert supervisor.combined().structurally_equal(
            reference_for(stream + extra)
        )
        assert_tallies(supervisor, stream + extra)
        supervisor.close()


class TestFlightRecorderDump:
    def test_sigkill_produces_readable_blackbox(self, tmp_path):
        from repro.obs import (
            FlightRecorder,
            Tracer,
            install_recorder,
            install_tracer,
            load_blackbox,
            uninstall_recorder,
            uninstall_tracer,
        )

        install_recorder(FlightRecorder())
        install_tracer(Tracer(sample_every=1))
        try:
            stream = random_stream(300, seed=9)
            with ShardSupervisor(
                process_bank(), tmp_path, sleep=NO_SLEEP
            ) as supervisor:
                supervisor.process_stream(stream[:150], batch_size=50)
                kill_shard_worker(supervisor.sharded, 0)
                supervisor.process_stream(stream[150:], batch_size=50)
                assert supervisor.restarts >= 1
            dumps = sorted((tmp_path / "blackbox").glob("blackbox-*.bin"))
            assert dumps, "worker death must leave a post-mortem dump"
            dump = load_blackbox(dumps[0])
            assert not dump.torn
            assert dump.reason == "worker-died"
            kinds = [event["kind"] for event in dump.events]
            assert "worker_died" in kinds
            assert dump.spans, "dump must carry the tracer's recent spans"
            names = {span["name"] for span in dump.spans}
            assert "sharded.pipe_send" in names
        finally:
            uninstall_tracer()
            uninstall_recorder()

    def test_no_dump_without_an_installed_recorder(self, tmp_path):
        stream = random_stream(200, seed=10)
        with ShardSupervisor(
            process_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream[:100], batch_size=50)
            kill_shard_worker(supervisor.sharded, 0)
            supervisor.process_stream(stream[100:], batch_size=50)
        assert not list(tmp_path.glob("blackbox/*.bin"))


class TestWorkerObservability:
    def obs_bank(self, registry):
        bank = ShardedSketch(
            AddressDomain(2 ** 16),
            shards=3,
            seed=5,
            backend="process",
            obs=registry,
        )
        if bank.backend != "process":
            pytest.skip("multiprocessing unavailable on this platform")
        return bank

    def worker_total(self, registry):
        for entry in registry.snapshot()["instruments"]:
            if entry["name"] == "repro_worker_updates_total":
                return sum(
                    sample["value"] for sample in entry["samples"]
                )
        return 0

    def test_worker_counters_aggregate_without_double_count(
        self, tmp_path
    ):
        from repro.obs import Registry

        registry = Registry()
        stream = random_stream(400, seed=11)
        with ShardSupervisor(
            self.obs_bank(registry), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream[:200], batch_size=40)
            supervisor.checkpoint()
            kill_shard_worker(supervisor.sharded, 1)
            supervisor.process_stream(stream[200:], batch_size=40)
            assert supervisor.restarts >= 1
            absorbed = supervisor.sharded.absorb_worker_obs()
            assert absorbed == 3
            # The respawned worker rebuilt its counter from restored
            # sketch state, so the aggregate equals the stream exactly.
            assert self.worker_total(registry) == len(stream)
            # Re-absorbing replaces by key: still no double-counting.
            supervisor.sharded.absorb_worker_obs()
            assert self.worker_total(registry) == len(stream)

    def test_sync_backend_has_nothing_to_absorb(self):
        from repro.obs import Registry

        registry = Registry()
        bank = ShardedSketch(
            AddressDomain(2 ** 16),
            shards=2,
            seed=5,
            backend="sync",
            obs=registry,
        )
        bank.process_stream(random_stream(50, seed=12))
        assert bank.absorb_worker_obs() == 0
        bank.close()


class TestStorageFaults:
    def test_torn_wal_plus_kill_loses_only_torn_records(self, tmp_path):
        stream = random_stream(400, seed=6)
        with ShardSupervisor(
            process_bank(),
            tmp_path,
            wal_flush_every=1,
            sleep=NO_SLEEP,
        ) as supervisor:
            supervisor.process_stream(stream[:300], batch_size=50)
            supervisor.checkpoint()
            supervisor.process_stream(stream[300:], batch_size=50)
            expected = supervisor.routed_counts()
        truncate_wal_tail(tmp_path / WAL_SUBDIR, drop_bytes=3)
        # Restart over the damaged directory: the torn record (the last
        # 50-update batch) is gone, everything else must be intact.
        with ShardSupervisor(
            process_bank(), tmp_path, sleep=NO_SLEEP
        ) as recovered:
            assert sum(recovered.routed_counts()) == sum(expected) - 50
            assert recovered.combined().structurally_equal(
                reference_for(stream[:350])
            )

    def test_corrupt_checkpoint_falls_back_and_replays_more(
        self, tmp_path
    ):
        stream = random_stream(400, seed=7)
        with ShardSupervisor(
            process_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream[:200], batch_size=40)
            supervisor.checkpoint()
            supervisor.process_stream(stream[200:], batch_size=40)
            supervisor.checkpoint()
        corrupt_latest_checkpoint(
            tmp_path / CHECKPOINT_SUBDIR, label="shard-1"
        )
        with ShardSupervisor(
            process_bank(), tmp_path, sleep=NO_SLEEP
        ) as recovered:
            assert recovered.combined().structurally_equal(
                reference_for(stream)
            )


class TestTransportChaos:
    """The delta sync path survives kills and torn syncs mid-sync."""

    def test_sigkill_mid_sync_recovers_exact_topk(self, tmp_path):
        stream = random_stream(600, seed=7)
        with ShardSupervisor(
            process_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream[:300], batch_size=50)
            supervisor.combined()  # prime the running sum
            supervisor.checkpoint()
            supervisor.process_stream(stream[300:450], batch_size=50)
            kill_shard_worker(supervisor.sharded, 1)
            # The next sync hits the dead worker's pipe mid-collect:
            # the supervisor must respawn + replay, and the sync must
            # full-resync instead of trusting stale folded state.
            recovered = supervisor.combined()
            reference = reference_for(stream[:450])
            assert recovered.structurally_equal(reference)
            supervisor.process_stream(stream[450:], batch_size=50)
            reference = reference_for(stream)
            final = supervisor.combined()
            assert final.structurally_equal(reference)
            assert (
                final.track_topk(5).destinations
                == reference.track_topk(5).destinations
            )
            assert supervisor.restarts >= 1

    def test_torn_delta_batch_recovers_exact_topk(self, tmp_path):
        stream = random_stream(500, seed=8)
        with ShardSupervisor(
            process_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream[:250], batch_size=50)
            supervisor.combined()
            supervisor.process_stream(stream[250:], batch_size=50)
            # Torn sync: one worker's delta window is drained and lost
            # before the parent folds it.
            drop_delta_sync(supervisor.sharded, 2)
            reference = reference_for(stream)
            recovered = supervisor.combined()
            assert recovered.structurally_equal(reference)
            assert (
                recovered.track_topk(5).destinations
                == reference.track_topk(5).destinations
            )

    def test_stale_epoch_after_kill_and_torn_sync(self, tmp_path):
        stream = random_stream(500, seed=9)
        with ShardSupervisor(
            process_bank(), tmp_path, sleep=NO_SLEEP
        ) as supervisor:
            supervisor.process_stream(stream[:250], batch_size=50)
            supervisor.combined()
            supervisor.checkpoint()
            drop_delta_sync(supervisor.sharded, 0)  # epoch gap on 0
            kill_shard_worker(supervisor.sharded, 1)  # and a dead peer
            supervisor.process_stream(stream[250:], batch_size=50)
            assert supervisor.combined().structurally_equal(
                reference_for(stream)
            )
