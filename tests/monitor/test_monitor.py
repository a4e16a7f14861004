"""Tests for the DDoS monitor facade."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.monitor import ActivityProfile, AlarmSeverity, DDoSMonitor, MonitorConfig
from repro.types import AddressDomain, FlowUpdate


@pytest.fixture
def domain() -> AddressDomain:
    return AddressDomain(2 ** 16)


def flood(dest, sources, base=0):
    return [FlowUpdate(base + i, dest, +1) for i in range(sources)]


def make_monitor(domain, **config_kwargs):
    defaults = dict(k=5, check_interval=100, warning_ratio=10,
                    critical_ratio=50, absolute_floor=50)
    defaults.update(config_kwargs)
    return DDoSMonitor(domain, MonitorConfig(**defaults), seed=3)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0),
            dict(check_interval=0),
            dict(warning_ratio=1.0),
            dict(warning_ratio=10, critical_ratio=5),
            dict(absolute_floor=-1),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ParameterError):
            MonitorConfig(**kwargs)


class TestDetection:
    def test_flood_raises_alarm(self, domain):
        monitor = make_monitor(domain)
        alarms = monitor.observe_stream(flood(dest=7, sources=1000))
        assert any(alarm.dest == 7 for alarm in alarms)

    def test_severity_escalates_with_size(self, domain):
        monitor = make_monitor(domain)
        alarms = monitor.observe_stream(flood(dest=7, sources=5000))
        severities = {alarm.severity for alarm in alarms if alarm.dest == 7}
        assert AlarmSeverity.CRITICAL in severities

    def test_small_traffic_below_floor_never_alarms(self, domain):
        monitor = make_monitor(domain, absolute_floor=500)
        alarms = monitor.observe_stream(flood(dest=7, sources=300))
        assert alarms == []

    def test_learned_baseline_suppresses_known_heavy_hitter(self, domain):
        profile = ActivityProfile()
        profile.learn({7: 2000})  # dest 7 is known to be this busy
        monitor = DDoSMonitor(
            domain,
            MonitorConfig(k=5, check_interval=100, warning_ratio=10,
                          critical_ratio=50, absolute_floor=50),
            profile=profile,
            seed=3,
        )
        alarms = monitor.observe_stream(flood(dest=7, sources=1500))
        assert not any(alarm.dest == 7 for alarm in alarms)

    def test_deletions_prevent_alarm(self, domain):
        monitor = make_monitor(domain)
        # Insertions immediately matched by deletions: a flash crowd.
        stream = []
        for source in range(2000):
            stream.append(FlowUpdate(source, 9, +1))
            stream.append(FlowUpdate(source, 9, -1))
        alarms = monitor.observe_stream(stream)
        assert not any(alarm.dest == 9 for alarm in alarms)

    def test_check_now_runs_immediately(self, domain):
        monitor = make_monitor(domain, check_interval=10 ** 9)
        monitor.observe_stream(flood(dest=7, sources=999))
        alarms = monitor.check_now()
        assert any(alarm.dest == 7 for alarm in alarms)

    def test_current_top_reports_heavy_hitter(self, domain):
        monitor = make_monitor(domain)
        monitor.observe_stream(flood(dest=7, sources=500))
        assert monitor.current_top().destinations[0] == 7


class TestLifecycle:
    def test_updates_seen_counter(self, domain):
        monitor = make_monitor(domain)
        monitor.observe_stream(flood(dest=1, sources=250))
        assert monitor.updates_seen == 250

    def test_learn_baseline_from_current_state(self, domain):
        monitor = make_monitor(domain)
        monitor.observe_stream(flood(dest=7, sources=600))
        monitor.learn_baseline()
        assert monitor.profile.baseline(7) > 100

    def test_alarm_deduplication_across_checks(self, domain):
        monitor = make_monitor(domain, check_interval=50)
        alarms = monitor.observe_stream(flood(dest=7, sources=3000))
        # Many checks fired, but at most 2 alarms (warning + critical).
        assert 1 <= len([a for a in alarms if a.dest == 7]) <= 2


class TestObserveBatch:
    """observe_batch must be indistinguishable from per-update observe."""

    def _mixed_stream(self, sources=1500):
        # A flood with interleaved background noise so several
        # check-interval boundaries fall inside one batch.
        updates = flood(dest=7, sources=sources)
        for index in range(0, sources, 3):
            updates.insert(index, FlowUpdate(index, index % 40, +1))
        return updates

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    @pytest.mark.parametrize("batch_size", [33, 100, 640, 10 ** 6])
    def test_batch_equals_stream(self, domain, backend, batch_size):
        updates = self._mixed_stream()
        streamed = DDoSMonitor(
            domain, MonitorConfig(k=5, check_interval=100,
                                  warning_ratio=10, critical_ratio=50,
                                  absolute_floor=50),
            seed=3, backend=backend,
        )
        batched = DDoSMonitor(
            domain, MonitorConfig(k=5, check_interval=100,
                                  warning_ratio=10, critical_ratio=50,
                                  absolute_floor=50),
            seed=3, backend=backend,
        )
        expected = []
        for update in updates:
            expected.extend(streamed.observe(update))
        raised = []
        for start in range(0, len(updates), batch_size):
            raised.extend(
                batched.observe_batch(updates[start:start + batch_size])
            )
        assert raised == expected
        assert batched.updates_seen == streamed.updates_seen
        assert batched.sketch.structurally_equal(streamed.sketch)
        assert batched.current_top() == streamed.current_top()

    def test_stream_equals_per_update(self, domain):
        updates = self._mixed_stream()
        looped = make_monitor(domain, check_interval=100)
        expected = []
        for update in updates:
            expected.extend(looped.observe(update))
        streamed = make_monitor(domain, check_interval=100)
        assert streamed.observe_stream(iter(updates)) == expected
        assert streamed.updates_seen == looped.updates_seen
        assert streamed.sketch.structurally_equal(looped.sketch)

    def test_batch_splits_at_check_boundaries(self, domain):
        monitor = make_monitor(domain, check_interval=100)
        # 37 updates first: the next batch must check at update 100,
        # i.e. 63 updates into the batch, not at the batch edge.
        monitor.observe_batch(flood(dest=7, sources=37))
        alarms = monitor.observe_batch(flood(dest=7, sources=263, base=37))
        assert monitor.updates_seen == 300
        assert any(alarm.dest == 7 for alarm in alarms)

    def test_empty_batch_is_a_no_op(self, domain):
        monitor = make_monitor(domain)
        assert monitor.observe_batch([]) == []
        assert monitor.updates_seen == 0
