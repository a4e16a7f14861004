"""End-to-end tests: library components emitting into a shared registry."""

from __future__ import annotations

import functools
import random

import pytest

from repro.monitor import DDoSMonitor, MonitorConfig
from repro.monitor.threshold import ThresholdWatch
from repro.monitor.timeline import MonitorTimeline
from repro.obs import Registry
from repro.sketch import (
    DistinctCountSketch,
    ShardedSketch,
    TrackingDistinctCountSketch,
    serialize,
)
from repro.streams.transport import (
    Channel,
    DuplicatingChannel,
    LossyChannel,
    ReorderingChannel,
)
from repro.types import AddressDomain, FlowUpdate


@pytest.fixture
def domain() -> AddressDomain:
    return AddressDomain(2 ** 16)


@pytest.fixture
def registry() -> Registry:
    return Registry()


def counter_value(registry: Registry, name: str, **labels) -> int:
    instrument = registry.get(name)
    assert instrument is not None, name
    if labels:
        instrument = instrument.labels(**labels)
    return instrument.value


def stream(count: int, seed: int = 0, dests: int = 20):
    rng = random.Random(seed)
    return [
        FlowUpdate(rng.randrange(2 ** 16), rng.randrange(dests), +1)
        for _ in range(count)
    ]


class TestSketchInstrumentation:
    def test_update_counters_split_by_op(self, domain, registry):
        sketch = DistinctCountSketch(domain, seed=1, obs=registry)
        sketch.insert(1, 2)
        sketch.insert(3, 2)
        sketch.delete(1, 2)
        assert counter_value(
            registry, "repro_sketch_updates_total", op="insert"
        ) == 2
        assert counter_value(
            registry, "repro_sketch_updates_total", op="delete"
        ) == 1
        assert counter_value(registry, "repro_sketch_updates_total") == 3

    def test_query_counters_by_kind(self, domain, registry):
        sketch = DistinctCountSketch(domain, seed=1, obs=registry)
        for source in range(50):
            sketch.insert(source, 9)
        sketch.base_topk(3)
        sketch.threshold_query(5)
        sketch.estimate_distinct_pairs()
        queries = "repro_sketch_queries_total"
        assert counter_value(registry, queries, kind="base_topk") == 1
        assert counter_value(registry, queries, kind="threshold") == 1
        assert counter_value(registry, queries, kind="distinct_pairs") == 1
        histogram = registry.get("repro_sketch_query_sample_size")
        assert histogram.count == 3

    def test_singleton_recovery_counted_during_scans(
        self, domain, registry
    ):
        sketch = DistinctCountSketch(domain, seed=1, obs=registry)
        for source in range(60):
            sketch.insert(source, 9)
        sketch.base_topk(1)
        assert counter_value(
            registry, "repro_sketch_singletons_recovered_total"
        ) > 0

    def test_pull_gauges_track_structure(self, domain, registry):
        sketch = DistinctCountSketch(domain, seed=1, obs=registry)
        occupied = registry.get("repro_sketch_occupied_buckets")
        levels = registry.get("repro_sketch_active_levels")
        assert occupied.value == 0 and levels.value == 0
        sketch.insert(1, 2)
        assert occupied.value == sketch.occupied_buckets() > 0
        assert levels.value == sketch.active_levels() > 0

    def test_merge_counter(self, domain, registry):
        sketch = DistinctCountSketch(domain, seed=1, obs=registry)
        other = DistinctCountSketch(domain, seed=1)
        other.insert(5, 6)
        sketch.merge(other)
        assert counter_value(registry, "repro_sketch_merges_total") == 1

    def test_two_sketches_aggregate_in_one_registry(
        self, domain, registry
    ):
        first = DistinctCountSketch(domain, seed=1, obs=registry)
        second = DistinctCountSketch(domain, seed=2, obs=registry)
        first.insert(1, 2)
        second.insert(3, 4)
        assert counter_value(registry, "repro_sketch_updates_total") == 2
        occupied = registry.get("repro_sketch_occupied_buckets")
        assert occupied.value == (
            first.occupied_buckets() + second.occupied_buckets()
        )


class TestTrackingInstrumentation:
    def test_singleton_events_and_heap_ops(self, domain, registry):
        sketch = TrackingDistinctCountSketch(domain, seed=1, obs=registry)
        sketch.insert(1, 2)
        adds = counter_value(
            registry, "repro_tracking_singleton_events_total", event="add"
        )
        assert adds >= 1  # one per pair and level, however many tables
        assert counter_value(
            registry, "repro_tracking_heap_ops_total", op="add"
        ) >= adds  # each add touches level+1 >= 1 heaps
        sketch.delete(1, 2)
        removes = counter_value(
            registry,
            "repro_tracking_singleton_events_total",
            event="remove",
        )
        assert removes == adds

    def test_sample_pairs_gauge_matches_tracked_state(
        self, domain, registry
    ):
        sketch = TrackingDistinctCountSketch(domain, seed=1, obs=registry)
        for update in stream(200, seed=4):
            sketch.process(update)
        gauge = registry.get("repro_tracking_sample_pairs")
        assert gauge.value == sum(
            sketch.num_singletons(level)
            for level in range(sketch.params.num_levels)
        )

    def test_track_queries_counted(self, domain, registry):
        sketch = TrackingDistinctCountSketch(domain, seed=1, obs=registry)
        for source in range(50):
            sketch.insert(source, 9)
        sketch.track_topk(2)
        sketch.track_threshold(5)
        queries = "repro_sketch_queries_total"
        assert counter_value(registry, queries, kind="track_topk") == 1
        assert counter_value(
            registry, queries, kind="track_threshold"
        ) == 1


class TestFoldAccounting:
    """Singleton events net to the tracked sample on either store."""

    EVENTS = "repro_tracking_singleton_events_total"

    def assert_tally(self, registry, sketch):
        adds = counter_value(registry, self.EVENTS, event="add")
        removes = counter_value(registry, self.EVENTS, event="remove")
        assert adds - removes == sum(
            sketch.num_singletons(level)
            for level in range(sketch.params.num_levels)
        )
        sketch.check_invariants()

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_events_net_to_the_sample_after_folds(
        self, domain, registry, backend, monkeypatch
    ):
        sketch = TrackingDistinctCountSketch(
            domain, seed=1, obs=registry, backend=backend
        )
        other = TrackingDistinctCountSketch(domain, seed=1, backend=backend)
        sketch.process_stream(stream(300, seed=7))
        other.process_stream(stream(300, seed=8))
        sketch.merge(other)
        self.assert_tally(registry, sketch)
        sketch.subtract(other)
        self.assert_tally(registry, sketch)
        keys, rows = other._export_rows()
        sketch.apply_bucket_deltas(keys, rows)
        self.assert_tally(registry, sketch)
        sketch.apply_bucket_deltas(keys, -rows)
        self.assert_tally(registry, sketch)
        payload = serialize.dumps(sketch)
        loaded_registry = Registry()
        monkeypatch.setattr(
            serialize,
            "TrackingDistinctCountSketch",
            functools.partial(
                TrackingDistinctCountSketch, obs=loaded_registry
            ),
        )
        loaded = serialize.loads(payload, backend=backend)
        self.assert_tally(loaded_registry, loaded)
        assert loaded.structurally_equal(sketch)

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_pair_singleton_in_every_table_adds_once(
        self, domain, registry, backend, batched
    ):
        sketch = TrackingDistinctCountSketch(
            domain, seed=1, obs=registry, backend=backend
        )
        if batched:
            sketch.update_batch([FlowUpdate(1, 2, 1)])
        else:
            sketch.insert(1, 2)
        level = sketch.level_of(1, 2)
        pair = domain.encode_pair(1, 2)
        assert all(
            sketch.return_singleton(level, j, sketch.inner_bucket(j, 1, 2))
            == pair
            for j in range(sketch.params.r)
        )
        assert sketch.singleton_pairs(level) == {pair}
        assert counter_value(registry, self.EVENTS, event="add") == 1
        assert counter_value(
            registry, "repro_tracking_heap_ops_total", op="add"
        ) == level + 1

    @pytest.mark.parametrize(
        "backend, per_level", [("reference", 3), ("packed", 0)]
    )
    def test_scalar_fallbacks_count_reference_levels_decoded(
        self, domain, registry, backend, per_level
    ):
        sketch = DistinctCountSketch(
            domain, r=3, seed=1, obs=registry, backend=backend
        )
        sketch.process_stream(stream(400, seed=9))
        fallbacks = "repro_sketch_scalar_fallbacks_total"
        sketch.get_dsample(2)
        assert counter_value(registry, fallbacks) == per_level
        sketch.dsample_sweep()
        levels = sketch.params.num_levels
        assert counter_value(registry, fallbacks) == per_level * (1 + levels)
        stop_level = sketch.base_topk(3).stop_level
        assert stop_level > 0
        assert counter_value(registry, fallbacks) == per_level * (
            1 + levels + levels - stop_level
        )


class TestUninstrumentedFastPath:
    def test_default_obs_registers_nothing(self, domain):
        sketch = TrackingDistinctCountSketch(domain, seed=1)
        for update in stream(50, seed=5):
            sketch.process(update)
        sketch.track_topk(1)
        assert len(sketch.obs) == 0
        assert sketch.obs.snapshot() == {"instruments": []}

    def test_instrumented_and_plain_states_identical(self, domain):
        plain = TrackingDistinctCountSketch(domain, seed=1)
        instrumented = TrackingDistinctCountSketch(
            domain, seed=1, obs=Registry()
        )
        for update in stream(300, seed=6):
            plain.process(update)
            instrumented.process(update)
        assert plain.structurally_equal(instrumented)
        assert plain.track_topk(5).as_dict() == (
            instrumented.track_topk(5).as_dict()
        )


class TestMonitorInstrumentation:
    def test_monitor_counters(self, domain, registry):
        monitor = DDoSMonitor(
            domain,
            MonitorConfig(check_interval=100),
            seed=1,
            obs=registry,
        )
        monitor.observe_stream(
            FlowUpdate(source, 7, 1) for source in range(500)
        )
        assert counter_value(registry, "repro_monitor_updates_total") == 500
        assert counter_value(registry, "repro_monitor_checks_total") == 5
        assert counter_value(registry, "repro_monitor_alarms_total") >= 1
        histogram = registry.get("repro_monitor_check_alarms")
        assert histogram.count == 5

    def test_threshold_watch_crossings(self, domain, registry):
        watch = ThresholdWatch(
            domain, tau=30, check_interval=50, seed=1, obs=registry
        )
        watch.observe_stream(
            FlowUpdate(source, 3, 1) for source in range(100)
        )
        ups = counter_value(
            registry,
            "repro_monitor_threshold_crossings_total",
            direction="up",
        )
        assert ups == sum(1 for event in watch.events if event.above) >= 1

    def test_timeline_snapshots(self, domain, registry):
        sketch = TrackingDistinctCountSketch(domain, seed=1)
        timeline = MonitorTimeline(
            sketch, k=3, snapshot_interval=50, obs=registry
        )
        for update in stream(120, seed=8):
            timeline.observe(update)
        assert counter_value(
            registry, "repro_monitor_snapshots_total"
        ) == len(timeline) == 2


class TestTransportInstrumentation:
    def test_lossy_channel_outcomes(self, registry):
        channel = LossyChannel(0.5, seed=3, obs=registry)
        delivered = list(channel.transmit(stream(200, seed=9)))
        updates = "repro_transport_updates_total"
        assert counter_value(
            registry, updates, outcome="delivered"
        ) == len(delivered)
        assert counter_value(
            registry, updates, outcome="dropped"
        ) == channel.dropped == 200 - len(delivered)

    def test_duplicating_channel_outcomes(self, registry):
        channel = DuplicatingChannel(0.4, seed=3, obs=registry)
        delivered = list(channel.transmit(stream(200, seed=10)))
        updates = "repro_transport_updates_total"
        assert counter_value(
            registry, updates, outcome="duplicated"
        ) == channel.duplicated == len(delivered) - 200
        assert counter_value(
            registry, updates, outcome="delivered"
        ) == len(delivered)

    def test_reordering_channel_counts_displaced(self, registry):
        channel = ReorderingChannel(window=5, seed=3, obs=registry)
        original = stream(100, seed=11)
        delivered = channel.transmit(original)
        displaced = sum(
            1 for position, update in enumerate(delivered)
            if update is not original[position]
        )
        assert channel.displaced == displaced > 0
        assert counter_value(
            registry, "repro_transport_reordered_total"
        ) == displaced

    def test_composite_channel_counts_each_update_once(self, registry):
        channel = Channel(
            loss_rate=0.1,
            duplicate_rate=0.1,
            reorder_window=3,
            seed=4,
            obs=registry,
        )
        delivered = channel.transmit(stream(300, seed=12))
        updates = "repro_transport_updates_total"
        # The composite's inner stages are uninstrumented, so chaining
        # must not multiply the delivered count.
        assert counter_value(
            registry, updates, outcome="delivered"
        ) == len(delivered)
        assert counter_value(
            registry, updates, outcome="dropped"
        ) == channel.dropped
        assert counter_value(
            registry, updates, outcome="duplicated"
        ) == channel.duplicated
