"""Tests for sharded ingestion."""

from __future__ import annotations

import enum
import random
from collections import namedtuple

import numpy as np
import pytest

from repro.exceptions import DomainError, ParameterError
from repro.sketch import ShardedSketch, TrackingDistinctCountSketch
from repro.types import AddressDomain, FlowUpdate

POLICIES = ["round-robin", "by-destination"]

#: An update object that skips ``FlowUpdate``'s delta validation.
RawUpdate = namedtuple("RawUpdate", "source dest delta")


@pytest.fixture
def domain() -> AddressDomain:
    return AddressDomain(2 ** 16)


def random_stream(count, seed=0, dests=30):
    rng = random.Random(seed)
    return [
        FlowUpdate(rng.randrange(2 ** 16), rng.randrange(dests), +1)
        for _ in range(count)
    ]


class TestEquivalence:
    @pytest.mark.parametrize("policy", ["round-robin", "by-destination"])
    def test_combined_equals_single_sketch(self, domain, policy):
        stream = random_stream(600, seed=1)
        sharded = ShardedSketch(domain, shards=4, policy=policy, seed=9)
        sharded.process_stream(stream)
        single = TrackingDistinctCountSketch(
            sharded.params, seed=9, backend="reference"
        )
        single.process_stream(stream)
        combined = sharded.combined()
        assert combined.structurally_equal(single)
        assert combined.track_topk(5).as_dict() == (
            single.track_topk(5).as_dict()
        )

    def test_equivalence_with_deletions(self, domain):
        stream = random_stream(300, seed=2)
        stream += [update.inverted() for update in stream[:150]]
        sharded = ShardedSketch(domain, shards=3, seed=10)
        sharded.process_stream(stream)
        single = TrackingDistinctCountSketch(
            sharded.params, seed=10, backend="reference"
        )
        single.process_stream(stream)
        assert sharded.combined().structurally_equal(single)

    def test_single_shard_degenerates_gracefully(self, domain):
        stream = random_stream(100, seed=3)
        sharded = ShardedSketch(domain, shards=1, seed=11)
        sharded.process_stream(stream)
        assert sharded.combined().updates_processed == 100


class TestPartitioning:
    def test_round_robin_balances_exactly(self, domain):
        sharded = ShardedSketch(domain, shards=4, policy="round-robin",
                                seed=12)
        sharded.process_stream(random_stream(400, seed=4))
        assert sharded.shard_update_counts() == [100, 100, 100, 100]

    def test_by_destination_is_sticky(self, domain):
        sharded = ShardedSketch(domain, shards=4,
                                policy="by-destination", seed=13)
        update = FlowUpdate(1, 7, +1)
        first = sharded.shard_for(update)
        assert all(
            sharded.shard_for(FlowUpdate(source, 7, +1)) == first
            for source in range(50)
        )

    def test_by_destination_shard_answers_locally(self, domain):
        sharded = ShardedSketch(domain, shards=2,
                                policy="by-destination", seed=14)
        for source in range(200):
            sharded.process(FlowUpdate(source, 7, +1))
        index = sharded.shard_for(FlowUpdate(0, 7, +1))
        local = sharded.shard(index).track_topk(1)
        assert local.destinations == [7]

    def test_topk_from_sharded_view(self, domain):
        sharded = ShardedSketch(domain, shards=4, seed=15)
        for source in range(300):
            sharded.process(FlowUpdate(source, 9, +1))
        for source in range(20):
            sharded.process(FlowUpdate(source, 8, +1))
        assert sharded.track_topk(1).destinations == [9]


class TestValidation:
    def test_rejects_zero_shards(self, domain):
        with pytest.raises(ParameterError):
            ShardedSketch(domain, shards=0)

    def test_rejects_unknown_policy(self, domain):
        with pytest.raises(ParameterError):
            ShardedSketch(domain, policy="random")


class TestMemoization:
    def test_combined_is_cached_between_updates(self, domain):
        sharded = ShardedSketch(domain, shards=3, seed=9)
        sharded.process_stream(random_stream(200, seed=4))
        first = sharded.combined()
        assert sharded.combined() is first
        assert sharded.track_topk(3) is not None
        assert sharded.combined() is first

    def test_cache_invalidated_by_process(self, domain):
        sharded = ShardedSketch(domain, shards=3, seed=9)
        sharded.process_stream(random_stream(200, seed=4))
        first = sharded.combined()
        sharded.process(FlowUpdate(1, 2, +1))
        second = sharded.combined()
        assert second is not first
        assert second.updates_processed == first.updates_processed + 1

    def test_cache_invalidated_by_update_batch(self, domain):
        sharded = ShardedSketch(domain, shards=3, seed=9)
        first = sharded.combined()
        sharded.update_batch(random_stream(50, seed=5))
        assert sharded.combined() is not first

    def test_empty_batch_keeps_cache(self, domain):
        sharded = ShardedSketch(domain, shards=3, seed=9)
        sharded.process_stream(random_stream(50, seed=5))
        first = sharded.combined()
        assert sharded.update_batch([]) == 0
        assert sharded.combined() is first


class TestBatchedIngestion:
    @pytest.mark.parametrize("policy", ["round-robin", "by-destination"])
    def test_update_batch_equals_per_update(self, domain, policy):
        stream = random_stream(500, seed=6)
        batched = ShardedSketch(domain, shards=4, policy=policy, seed=9)
        batched.update_batch(stream)
        loop = ShardedSketch(domain, shards=4, policy=policy, seed=9)
        for update in stream:
            loop.process(update)
        assert batched.shard_update_counts() == loop.shard_update_counts()
        assert batched.combined().structurally_equal(loop.combined())

    def test_process_stream_with_batch_size(self, domain):
        stream = random_stream(333, seed=7)
        sharded = ShardedSketch(domain, shards=2, seed=9)
        assert sharded.process_stream(stream, batch_size=100) == 333
        single = TrackingDistinctCountSketch(
            sharded.params, seed=9, backend="reference"
        )
        single.process_stream(stream)
        assert sharded.combined().structurally_equal(single)

    def test_rejects_bad_batch_size(self, domain):
        sharded = ShardedSketch(domain, shards=2, seed=9)
        with pytest.raises(ParameterError):
            sharded.process_stream([], batch_size=0)

    def test_packed_shard_sketches(self, domain):
        stream = random_stream(400, seed=8)
        sharded = ShardedSketch(
            domain, shards=3, seed=9, sketch_backend="packed"
        )
        sharded.process_stream(stream, batch_size=64)
        single = TrackingDistinctCountSketch(
            sharded.params, seed=9, backend="reference"
        )
        single.process_stream(stream)
        assert sharded.shard(0).backend == "packed"
        assert sharded.combined().structurally_equal(single)


def bank_or_skip(domain, backend, **kwargs):
    sharded = ShardedSketch(domain, backend=backend, **kwargs)
    if sharded.backend != backend:
        sharded.close()
        pytest.skip("multiprocessing unavailable on this platform")
    return sharded


class TestRouter:
    """The whole-batch router against per-update ``process()``."""

    @pytest.mark.parametrize("size", [0, 1, 250, 1025])
    @pytest.mark.parametrize("backend", ["sync", "process"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_batches_route_like_per_update(
        self, domain, policy, backend, size
    ):
        head = random_stream(2 * size + 1, seed=size)
        # Three consecutive batches (the third deletes the first), then
        # one more update, so the round-robin cursor must carry across
        # every batch boundary.
        batches = [
            head[:size],
            head[size:2 * size],
            [update.inverted() for update in head[:size]],
        ]
        tail = head[-1]
        loop = ShardedSketch(domain, shards=3, policy=policy, seed=9)
        with bank_or_skip(
            domain, backend, shards=3, policy=policy, seed=9
        ) as sharded:
            for batch in batches:
                assert sharded.update_batch(batch) == len(batch)
                for update in batch:
                    loop.process(update)
                assert sharded.shard_update_counts() == (
                    loop.shard_update_counts()
                )
            sharded.process(tail)
            loop.process(tail)
            assert sharded.shard_update_counts() == loop.shard_update_counts()
            for index in range(3):
                assert sharded.shard(index).structurally_equal(
                    loop.shard(index)
                )
            reference = TrackingDistinctCountSketch(
                domain, seed=9, backend="reference"
            )
            reference.update_batch(
                [update for batch in batches for update in batch] + [tail]
            )
            assert sharded.combined().structurally_equal(reference)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pair_codes_wider_than_64_bits(self, policy):
        wide = AddressDomain(2 ** 33)
        rng = random.Random(4)
        stream = [
            FlowUpdate(rng.randrange(2 ** 33), rng.randrange(40), +1)
            for _ in range(300)
        ]
        sharded = ShardedSketch(wide, shards=3, policy=policy, seed=4)
        loop = ShardedSketch(wide, shards=3, policy=policy, seed=4)
        sharded.update_batch(stream[:250])
        sharded.update_batch(stream[250:])
        for update in stream:
            loop.process(update)
        assert sharded.shard_update_counts() == loop.shard_update_counts()
        for index in range(3):
            assert sharded.shard(index).structurally_equal(loop.shard(index))
        reference = TrackingDistinctCountSketch(
            wide, seed=4, backend="reference"
        )
        reference.update_batch(stream)
        assert sharded.combined().structurally_equal(reference)


class TestMalformedBatches:
    """A malformed update raises what ``DistinctCountSketch.update_batch``
    raises before any shard, tally or worker moves."""

    class Five(enum.IntEnum):
        FIVE = 5

    #: Odd updates toward ``dest``, by kind.
    ODD = {
        "out-of-domain": lambda m, dest: FlowUpdate(5, m + dest, 1),
        "float": lambda m, dest: FlowUpdate(5.5, dest, 1),
        "float-delta": lambda m, dest: FlowUpdate(5, dest, 1.0),
        "address-2**63": lambda m, dest: FlowUpdate(2 ** 63, dest, 1),
        "bool": lambda m, dest: FlowUpdate(True, dest, 1),
        "numpy": lambda m, dest: FlowUpdate(np.int64(5), dest, 1),
        "intenum": lambda m, dest: FlowUpdate(
            TestMalformedBatches.Five.FIVE, dest, 1
        ),
        "delta-2": lambda m, dest: RawUpdate(5, dest, 2),
        "delta-minus-3": lambda m, dest: RawUpdate(5, dest, -3),
        "delta-2**32": lambda m, dest: RawUpdate(5, dest, 2 ** 32),
    }

    @classmethod
    def bad_update(cls, domain, kind):
        """A malformed update that ``by-destination`` routes to the last
        of two shards, behind good updates for the first."""
        router = ShardedSketch(domain, shards=2, seed=9)
        for dest in range(64):
            bad = cls.ODD[kind](domain.m, dest)
            if router.shard_for(bad) == 1:
                return bad
        raise AssertionError("no destination routes to shard 1")

    @pytest.mark.parametrize(
        "kind,error",
        [
            ("out-of-domain", DomainError),
            ("float", TypeError),
            ("float-delta", TypeError),
            ("address-2**63", DomainError),
            ("delta-2", ParameterError),
            ("delta-minus-3", ParameterError),
            ("delta-2**32", ParameterError),
        ],
    )
    @pytest.mark.parametrize("backend", ["sync", "process"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bad_batch_moves_nothing(
        self, domain, policy, backend, kind, error
    ):
        batch = [FlowUpdate(1, dest, 1) for dest in range(8)]
        batch.append(self.bad_update(domain, kind))
        with pytest.raises(error):
            TrackingDistinctCountSketch(domain, seed=9).update_batch(batch)
        warmup = random_stream(40, seed=3)
        loop = ShardedSketch(domain, shards=2, policy=policy, seed=9)
        with bank_or_skip(
            domain, backend, shards=2, policy=policy, seed=9
        ) as sharded:
            sharded.update_batch(warmup)
            before = sharded.combined().copy()
            counts = sharded.shard_update_counts()
            with pytest.raises(error):
                sharded.update_batch(batch)
            with pytest.raises(error):
                sharded.ingest_shard(0, batch)
            assert sharded.shard_update_counts() == counts
            assert sharded.worker_alive(0) and sharded.worker_alive(1)
            after = sharded.combined()
            assert after.structurally_equal(before)
            assert after.updates_processed == before.updates_processed
            # The bank keeps routing exactly as if the batch never came.
            good = FlowUpdate(1, 2, 1)
            sharded.process(good)
            for update in warmup + [good]:
                loop.process(update)
            assert sharded.shard_update_counts() == loop.shard_update_counts()
            assert sharded.combined().structurally_equal(loop.combined())

    @pytest.mark.parametrize("kind", ["bool", "numpy", "intenum"])
    @pytest.mark.parametrize("backend", ["sync", "process"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_integer_like_addresses_route_like_per_update(
        self, domain, policy, backend, kind
    ):
        """Addresses that are integers but not plain ``int`` take the
        scalar encoder and land where per-update ``process`` puts them."""
        batch = [FlowUpdate(1, dest, 1) for dest in range(8)]
        batch.append(self.bad_update(domain, kind))
        single = TrackingDistinctCountSketch(domain, seed=9)
        loop = ShardedSketch(domain, shards=2, policy=policy, seed=9)
        for update in batch:
            single.process(update)
            loop.process(update)
        with bank_or_skip(
            domain, backend, shards=2, policy=policy, seed=9
        ) as sharded:
            assert sharded.update_batch(batch) == len(batch)
            assert sharded.shard_update_counts() == loop.shard_update_counts()
            assert sharded.combined().structurally_equal(single)
            assert sharded.combined().structurally_equal(loop.combined())


class TestProcessBackend:
    @pytest.fixture
    def process_sharded(self, domain):
        sharded = ShardedSketch(
            domain, shards=2, seed=9, backend="process",
            sketch_backend="packed",
        )
        if sharded.backend != "process":
            pytest.skip("multiprocessing unavailable on this platform")
        with sharded:
            yield sharded

    def test_resolved_backend_attribute(self, domain):
        sync = ShardedSketch(domain, shards=2, seed=9)
        assert sync.backend == "sync"
        sync.close()  # no-op on sync

    def test_rejects_unknown_backend(self, domain):
        with pytest.raises(ParameterError):
            ShardedSketch(domain, shards=2, seed=9, backend="threads")

    def test_combined_matches_single_sketch(self, domain, process_sharded):
        stream = random_stream(600, seed=10)
        stream += [update.inverted() for update in stream[:200]]
        process_sharded.process_stream(stream, batch_size=128)
        single = TrackingDistinctCountSketch(
            process_sharded.params, seed=9, backend="reference"
        )
        single.process_stream(stream)
        combined = process_sharded.combined()
        assert combined.structurally_equal(single)
        assert combined.track_topk(5).as_dict() == (
            single.track_topk(5).as_dict()
        )

    def test_shard_returns_snapshot(self, domain, process_sharded):
        process_sharded.update_batch(random_stream(100, seed=11))
        counts = process_sharded.shard_update_counts()
        snapshot = process_sharded.shard(0)
        assert snapshot.updates_processed == counts[0]

    def test_memoization_on_process_backend(self, domain, process_sharded):
        process_sharded.update_batch(random_stream(50, seed=12))
        first = process_sharded.combined()
        assert process_sharded.combined() is first
        before = first.updates_processed
        process_sharded.process(FlowUpdate(3, 4, +1))
        # The delta transport folds into a running sum, so the post-
        # update merge may be the same (evolved) object — assert the
        # new update is visible rather than object identity.
        assert process_sharded.combined().updates_processed == before + 1

    def test_close_is_idempotent(self, domain):
        sharded = ShardedSketch(domain, shards=2, seed=9, backend="process")
        sharded.close()
        sharded.close()
