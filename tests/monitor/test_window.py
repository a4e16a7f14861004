"""SlidingWindowSketch: the window is *exact*, not approximate.

The differential acceptance surface from the windowing model
(``docs/windowing.md``): at any stream position, the running window sum
must be bit-identical to a from-scratch sketch fed only the in-window
records — across backends, delete-heavy streams, ring wrap-around, and
durable recovery mid-window.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.exceptions import ParameterError
from repro.monitor import (
    DDoSMonitor,
    MonitorConfig,
    SlidingWindowSketch,
    WindowedThresholdWatch,
)
from repro.obs import Registry
from repro.sketch import DistinctCountSketch
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)
BACKENDS = ("reference", "packed")
SEED = 9
SUBEPOCH = 50
WINDOW_SUBEPOCHS = 4


def make_stream(
    seed: int, length: int, dests: int = 40, delete_fraction: float = 0.3
) -> List[FlowUpdate]:
    """Seeded insert/delete stream with only well-formed deletes."""
    rng = random.Random(seed)
    live: List[Tuple[int, int]] = []
    updates: List[FlowUpdate] = []
    for _ in range(length):
        if live and rng.random() < delete_fraction:
            source, dest = live.pop(rng.randrange(len(live)))
            updates.append(FlowUpdate(source, dest, -1))
        else:
            source = rng.randrange(DOMAIN.m)
            dest = rng.randrange(dests)
            live.append((source, dest))
            updates.append(FlowUpdate(source, dest, 1))
    return updates


def in_window(updates: List[FlowUpdate], position: int) -> List[FlowUpdate]:
    """The records the window must cover at ``position``."""
    start = max(0, position // SUBEPOCH - WINDOW_SUBEPOCHS + 1) * SUBEPOCH
    return updates[start:position]


def from_scratch(
    updates: List[FlowUpdate], backend: str
) -> DistinctCountSketch:
    sketch = DistinctCountSketch(DOMAIN, seed=SEED, backend=backend)
    for update in updates:
        sketch.process(update)
    return sketch


def make_window(backend: str, **kwargs: object) -> SlidingWindowSketch:
    return SlidingWindowSketch(
        DOMAIN,
        subepoch_length=SUBEPOCH,
        window_subepochs=WINDOW_SUBEPOCHS,
        seed=SEED,
        backend=backend,
        **kwargs,  # type: ignore[arg-type]
    )


class TestWindowDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("stream_seed", [1, 2])
    def test_window_equals_from_scratch(
        self, backend: str, stream_seed: int
    ) -> None:
        """Running sum == from-scratch(in-window records), everywhere.

        Checkpoints cover a part-filled ring, exact boundaries, and
        deep ring wrap-around (position >> window span).
        """
        updates = make_stream(stream_seed, 760)
        window = make_window(backend)
        checkpoints = {30, 120, 200, 201, 449, 600, 750}
        for position, update in enumerate(updates, start=1):
            window.observe(update)
            if position not in checkpoints:
                continue
            expected = from_scratch(in_window(updates, position), backend)
            assert window.window_sum.structurally_equal(expected), position
            assert window.in_window_updates == expected.updates_processed
            assert (
                window.top_k(5).as_dict() == expected.base_topk(5).as_dict()
            ), position

    def test_backends_bit_identical(self) -> None:
        updates = make_stream(3, 520)
        windows = [make_window(backend) for backend in BACKENDS]
        for window in windows:
            for update in updates:
                window.observe(update)
        assert windows[0].window_sum.structurally_equal(
            windows[1].window_sum
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_observe_batch_matches_observe(self, backend: str) -> None:
        """Batched ingestion crosses boundaries identically."""
        updates = make_stream(4, 640)
        one_by_one = make_window(backend)
        for update in updates:
            one_by_one.observe(update)
        batched = make_window(backend)
        # Uneven chunks that straddle sub-epoch boundaries arbitrarily.
        rng = random.Random(11)
        start = 0
        while start < len(updates):
            size = rng.randrange(1, 120)
            assert batched.observe_batch(updates[start:start + size]) == len(
                updates[start:start + size]
            )
            start += size
        assert batched.window_sum.structurally_equal(one_by_one.window_sum)
        assert batched.subepoch_index == one_by_one.subepoch_index

    def test_tumbling_window(self) -> None:
        """window_subepochs=1 degenerates to a tumbling window."""
        window = SlidingWindowSketch(
            DOMAIN, subepoch_length=100, window_subepochs=1, seed=SEED
        )
        for source in range(150):
            window.observe(FlowUpdate(source, 7, 1))
        # The first 100 updates tumbled away at position 100.
        assert window.in_window_updates == 50

    def test_parameter_validation(self) -> None:
        with pytest.raises(ParameterError):
            SlidingWindowSketch(DOMAIN, subepoch_length=0)
        with pytest.raises(ParameterError):
            SlidingWindowSketch(
                DOMAIN, subepoch_length=10, window_subepochs=0
            )


class TestDurableRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovery_mid_window(self, backend: str, tmp_path) -> None:
        """Close mid-sub-epoch, reopen: the exact window survives."""
        updates = make_stream(5, 470)  # 9 sub-epochs + 20 spare updates
        window = make_window(backend, durable_dir=tmp_path)
        for update in updates:
            window.observe(update)
        window.close()

        reopened = make_window(backend, durable_dir=tmp_path)
        assert reopened.recovered
        assert reopened.subepoch_index == window.subepoch_index
        expected = from_scratch(in_window(updates, len(updates)), backend)
        assert reopened.window_sum.structurally_equal(expected)
        assert reopened.in_window_updates == expected.updates_processed
        reopened.close()

    def test_recovery_then_continue(self, tmp_path) -> None:
        """A recovered window keeps advancing exactly."""
        updates = make_stream(6, 700)
        split = 330
        window = make_window("packed", durable_dir=tmp_path)
        for update in updates[:split]:
            window.observe(update)
        window.close()

        reopened = make_window("packed", durable_dir=tmp_path)
        for update in updates[split:]:
            reopened.observe(update)
        expected = from_scratch(in_window(updates, len(updates)), "packed")
        assert reopened.window_sum.structurally_equal(expected)
        reopened.close()

    def test_fresh_directory_is_not_recovery(self, tmp_path) -> None:
        window = make_window("reference", durable_dir=tmp_path)
        assert not window.recovered
        window.close()

    def test_stale_slots_are_dropped(self, tmp_path) -> None:
        """Only window_subepochs slot directories survive on disk."""
        window = make_window("reference", durable_dir=tmp_path)
        for update in make_stream(7, 460):
            window.observe(update)
        window.close()
        slots = sorted(p.name for p in tmp_path.iterdir())
        assert len(slots) == WINDOW_SUBEPOCHS


class TestWindowedThresholdWatch:
    def test_flags_and_clears_a_burst(self) -> None:
        window = make_window("packed")
        watch = WindowedThresholdWatch(window, tau=30, check_interval=10)
        quiet = [
            FlowUpdate(source, source % 5, 1) for source in range(100)
        ]
        burst = [FlowUpdate(source, 9, 1) for source in range(100, 160)]
        events = watch.observe_stream(quiet + burst)
        assert any(e.dest == 9 and e.above for e in events)
        # Burst ages out after another full window of quiet traffic.
        more_quiet = [
            FlowUpdate(source, source % 5, 1)
            for source in range(160, 460)
        ]
        events = watch.observe_stream(more_quiet)
        assert any(e.dest == 9 and not e.above for e in events)

    @pytest.mark.parametrize("check_interval", [7, 10, 120])
    def test_stream_equals_per_update(self, check_interval) -> None:
        """observe_stream (the batch path) equals a per-update loop."""
        quiet = [
            FlowUpdate(source, source % 5, 1) for source in range(100)
        ]
        burst = [FlowUpdate(source, 9, 1) for source in range(100, 160)]
        updates = quiet + burst + quiet * 3
        looped = WindowedThresholdWatch(
            make_window("packed"), tau=30, check_interval=check_interval
        )
        expected = []
        for update in updates:
            expected.extend(looped.observe(update))
        streamed = WindowedThresholdWatch(
            make_window("packed"), tau=30, check_interval=check_interval
        )
        raised = streamed.observe_stream(iter(updates[:133]))
        raised += streamed.observe_stream(iter(updates[133:]))
        assert raised == expected == streamed.events
        assert {event.above for event in expected} == {True, False}
        assert streamed.engine.window_sum.structurally_equal(
            looped.engine.window_sum
        )

    def test_parameter_validation(self) -> None:
        window = make_window("reference")
        with pytest.raises(ParameterError):
            WindowedThresholdWatch(window, tau=0)
        with pytest.raises(ParameterError):
            WindowedThresholdWatch(window, tau=5, check_interval=0)


class TestMonitorWiring:
    def test_monitor_scores_windowed_topk(self) -> None:
        """With a window attached, alarms follow windowed frequencies."""
        window = make_window("packed")
        monitor = DDoSMonitor(
            DOMAIN,
            MonitorConfig(check_interval=50, absolute_floor=30),
            seed=SEED,
            window=window,
        )
        monitor.observe_stream(
            FlowUpdate(source, 9, 1) for source in range(120)
        )
        assert monitor.current_top().destinations[0] == 9
        assert window.updates_seen == 120
        # Let the attacker age out; the windowed view forgets it while
        # the all-time sketch still remembers.
        monitor.observe_stream(
            FlowUpdate(source, source % 7, 1)
            for source in range(1000, 1300)
        )
        assert 9 not in monitor.current_top().as_dict()
        assert 9 in monitor.sketch.track_topk(3).as_dict()

    def test_window_metrics_exported(self) -> None:
        registry = Registry()
        window = SlidingWindowSketch(
            DOMAIN,
            subepoch_length=SUBEPOCH,
            window_subepochs=WINDOW_SUBEPOCHS,
            seed=SEED,
            obs=registry,
        )
        for update in make_stream(8, 260):
            window.observe(update)

        def value(name: str) -> int:
            instrument = registry.get(name)
            assert instrument is not None, name
            return instrument.value  # type: ignore[attr-defined]

        assert value("repro_monitor_window_advances_total") == 5
        assert value("repro_monitor_window_expirations_total") == 2
        assert value("repro_monitor_window_live_subepochs") == 4
