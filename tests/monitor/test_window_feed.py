"""The one-feed window: one encode and one hash per chunk, runs in the ring.

A monitor with a window attached encodes and hashes each chunk once and
folds the same blocks into its all-time sketch and the window sum; the
window keeps each closed sub-epoch as one delta run.  The claims under
test:

* at every check the window sum is bit-identical to a from-scratch
  sketch of the in-window updates, and the all-time sketch to the
  reference, for check intervals that do not divide the sub-epoch;
* alarms equal those of the per-update ``observe`` loop;
* a window of another seed or shape hashes for itself, exactly;
* after every advance the tracked sum answers what a decode answers;
* any interleaving of ``observe`` and ``observe_batch`` sizes keeps the
  sum exact (hypothesis).
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.monitor import DDoSMonitor, MonitorConfig, SlidingWindowSketch
from repro.sketch import DistinctCountSketch, TrackingDistinctCountSketch
from repro.sketch.dcs import encode_batch
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)
BACKENDS = ("reference", "packed")
SEED = 9


def make_stream(
    seed: int, length: int, dests: int = 40, delete_fraction: float = 0.3
) -> List[FlowUpdate]:
    """Seeded insert/delete stream with only well-formed deletes, plus a
    flood on destination 3 in its middle third."""
    rng = random.Random(seed)
    live: List[Tuple[int, int]] = []
    updates: List[FlowUpdate] = []
    for position in range(length):
        if live and rng.random() < delete_fraction:
            source, dest = live.pop(rng.randrange(len(live)))
            updates.append(FlowUpdate(source, dest, -1))
            continue
        source = rng.randrange(DOMAIN.m)
        flood = length // 3 <= position < 2 * length // 3
        dest = 3 if flood and rng.random() < 0.5 else rng.randrange(dests)
        live.append((source, dest))
        updates.append(FlowUpdate(source, dest, 1))
    return updates


def in_window(
    updates: List[FlowUpdate], position: int, length: int, subepochs: int
) -> List[FlowUpdate]:
    """The updates a window must cover at stream ``position``."""
    start = max(0, position // length - subepochs + 1) * length
    return updates[start:position]


def from_scratch(
    updates: List[FlowUpdate],
    backend: str,
    seed: int = SEED,
    s: int = 128,
    domain: AddressDomain = DOMAIN,
) -> DistinctCountSketch:
    sketch = DistinctCountSketch(domain, seed=seed, s=s, backend=backend)
    sketch.update_batch(updates)
    return sketch


class CheckedMonitor(DDoSMonitor):
    """A monitor that checks its sketches at every detection pass."""

    def __init__(self, updates: List[FlowUpdate], backend: str, **kwargs):
        super().__init__(DOMAIN, seed=SEED, backend=backend, **kwargs)
        self.stream = updates
        self.reference = TrackingDistinctCountSketch(
            DOMAIN, seed=SEED, backend="reference"
        )
        self.fed = 0
        self.checked = 0

    def check_now(self):
        window = self.window
        assert window is not None
        position = self.updates_seen
        for update in self.stream[self.fed:position]:
            self.reference.process(update)
        self.fed = position
        assert self.sketch.structurally_equal(self.reference), position
        expected = from_scratch(
            in_window(
                self.stream,
                position,
                window.subepoch_length,
                window.window_subepochs,
            ),
            "reference",
            seed=window.seed,
            s=window.s,
            domain=window.domain,
        )
        assert window.window_sum.structurally_equal(expected), position
        assert window.in_window_updates == expected.updates_processed
        self.checked += 1
        return super().check_now()


def feed_in_random_chunks(monitor: DDoSMonitor, updates, seed: int):
    rng = random.Random(seed)
    start = 0
    while start < len(updates):
        size = rng.choice([1, 2, 5, rng.randrange(1, 400)])
        monitor.observe_batch(updates[start:start + size])
        start += size


class TestMonitorWindowDifferential:
    # The reference store runs the short geometry only: it is the
    # per-pair oracle, and the long one would take minutes on it.
    @pytest.mark.parametrize(
        "backend,interval,length,subepochs,count",
        [
            ("packed", 7, 50, 4, 700),
            ("reference", 7, 50, 4, 700),
            ("packed", 300, 1000, 3, 5200),
            ("packed", 120, 50, 4, 700),
        ],
        ids=[
            "7-of-50-packed",
            "7-of-50-reference",
            "300-of-1000-packed",
            "120-of-50-packed",
        ],
    )
    def test_every_check_is_exact(
        self, backend, interval, length, subepochs, count
    ) -> None:
        updates = make_stream(21, count)
        config = MonitorConfig(
            check_interval=interval, absolute_floor=20, k=5
        )
        batched = CheckedMonitor(
            updates,
            backend,
            config=config,
            window=SlidingWindowSketch(
                DOMAIN,
                subepoch_length=length,
                window_subepochs=subepochs,
                seed=SEED,
                backend=backend,
            ),
        )
        feed_in_random_chunks(batched, updates, seed=22)
        looped = DDoSMonitor(
            DOMAIN,
            config,
            seed=SEED,
            backend=backend,
            window=SlidingWindowSketch(
                DOMAIN,
                subepoch_length=length,
                window_subepochs=subepochs,
                seed=SEED,
                backend=backend,
            ),
        )
        for update in updates:
            looped.observe(update)
        assert batched.checked == count // interval
        assert batched.alarms.alarms == looped.alarms.alarms
        assert batched.alarms.alarms, "the flood should alarm"
        assert batched.window.window_sum.structurally_equal(
            looped.window.window_sum
        )

    @pytest.mark.parametrize(
        "window_domain,window_seed,window_s",
        [
            (DOMAIN, 10, 128),
            (DOMAIN, SEED, 64),
            (AddressDomain(2 ** 20), SEED, 128),
        ],
        ids=["seed", "s", "domain"],
    )
    def test_window_of_another_shape_hashes_for_itself(
        self, window_domain, window_seed, window_s
    ) -> None:
        updates = make_stream(23, 900)
        monitor = CheckedMonitor(
            updates,
            "packed",
            config=MonitorConfig(check_interval=40),
            window=SlidingWindowSketch(
                window_domain,
                subepoch_length=100,
                window_subepochs=4,
                seed=window_seed,
                s=window_s,
            ),
        )
        feed_in_random_chunks(monitor, updates, seed=24)
        assert monitor.checked == 900 // 40


    @pytest.mark.parametrize("backend", BACKENDS)
    def test_durable_window_fed_by_the_monitor_recovers(
        self, backend, tmp_path
    ) -> None:
        """The one-feed path logs each piece to the open durable slot, so
        a reopened window is the exact in-window sketch."""
        updates = make_stream(28, 470)

        def window() -> SlidingWindowSketch:
            return SlidingWindowSketch(
                DOMAIN,
                subepoch_length=50,
                window_subepochs=4,
                seed=SEED,
                backend=backend,
                durable_dir=tmp_path,
            )

        monitor = DDoSMonitor(
            DOMAIN,
            MonitorConfig(check_interval=30),
            seed=SEED,
            backend=backend,
            window=window(),
        )
        feed_in_random_chunks(monitor, updates, seed=29)
        monitor.window.close()
        reopened = window()
        assert reopened.recovered
        expected = from_scratch(in_window(updates, 470, 50, 4), backend)
        assert reopened.window_sum.structurally_equal(expected)
        assert reopened.in_window_updates == expected.updates_processed
        reopened.window_sum.check_invariants()
        reopened.close()


class TestTrackedWindowQueries:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tracked_answers_match_decode_after_every_advance(
        self, backend
    ) -> None:
        window = SlidingWindowSketch(
            DOMAIN,
            subepoch_length=50,
            window_subepochs=4,
            seed=SEED,
            backend=backend,
        )
        advances = 0
        for update in make_stream(25, 640):
            before = window.subepoch_index
            window.observe(update)
            if window.subepoch_index == before:
                continue
            advances += 1
            total = window.window_sum
            total.check_invariants()
            assert window.top_k(5) == total.base_topk(5)
            for tau in (1, 4, 12):
                assert window.threshold(tau) == total.threshold_query(tau)
        assert advances == 640 // 50


class TestObserveHashed:
    def test_rejects_a_chunk_crossing_a_boundary(self) -> None:
        window = SlidingWindowSketch(
            DOMAIN, subepoch_length=50, window_subepochs=4, seed=SEED
        )
        updates = make_stream(26, 60)
        window.observe_batch(updates[:30])
        sketch = TrackingDistinctCountSketch(DOMAIN, seed=SEED)
        chunk = updates[30:60]
        batch = sketch.hash_encoded(*encode_batch(DOMAIN, chunk))
        with pytest.raises(ParameterError):
            window.observe_hashed(chunk, batch)
        with pytest.raises(ParameterError):
            window.observe_hashed(chunk[:10], batch)
        assert window.updates_seen == 30
        window.observe_hashed(chunk[:20], sketch.hash_encoded(
            *encode_batch(DOMAIN, chunk[:20])
        ))
        assert window.subepoch_index == 1 and window.open_updates == 0

    def test_apply_hashed_rejects_another_domain(self) -> None:
        chunk = make_stream(30, 20)
        wide = AddressDomain(2 ** 20)
        batch = TrackingDistinctCountSketch(wide, seed=SEED).hash_encoded(
            *encode_batch(wide, chunk)
        )
        sketch = TrackingDistinctCountSketch(DOMAIN, seed=SEED)
        with pytest.raises(ParameterError):
            sketch.apply_hashed(batch)
        assert sketch.is_empty


feeds = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.integers(1, 3)),
        st.tuples(st.just("batch"), st.integers(1, 90)),
        st.tuples(st.just("batch"), st.just(1)),
    ),
    min_size=1,
    max_size=25,
)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(plan=feeds, offset=st.integers(0, 50))
def test_any_interleaving_keeps_the_sum_exact(backend, plan, offset):
    """Per-update and batch feeds of any size, across any number of
    sub-epoch crossings, keep the sum the in-window sketch."""
    length, subepochs = 20, 3
    updates = make_stream(27 + offset, 25 * 90)
    window = SlidingWindowSketch(
        DOMAIN,
        subepoch_length=length,
        window_subepochs=subepochs,
        seed=SEED,
        backend=backend,
    )
    position = 0
    for kind, size in plan:
        chunk = updates[position:position + size]
        if kind == "observe":
            for update in chunk:
                window.observe(update)
        else:
            assert window.observe_batch(chunk) == len(chunk)
        position += len(chunk)
        expected = from_scratch(
            in_window(updates, position, length, subepochs), backend
        )
        assert window.window_sum.structurally_equal(expected), position
        assert window.in_window_updates == expected.updates_processed
        assert window.live_subepochs == min(subepochs, position // length + 1)
