"""Detection latency: sliding window vs epoch rotation (burst floods).

Measures how fast each windowed engine *flags* a sub-epoch burst flood
and — the structural difference — how fast it *clears* once the burst
is over.  The library's engine is :class:`~repro.monitor.
SlidingWindowSketch`; the baseline is :class:`EpochRotator` below, an
uninstrumented ring of whole-epoch tracking sketches.  Both engines are
polled through the identical :class:`~repro.monitor.
WindowedThresholdWatch` crossing logic, and all latencies are measured
in **update counts**, not wall time, so the gate is deterministic and
immune to CI runner noise.

The comparison is fair by construction:

* equal minimum coverage — the window's ``(window_subepochs - 1) *
  subepoch_length`` equals the rotator's ``(window_epochs - 1) *
  epoch_length`` (8 000 updates each), so both engines answer "who was
  hot over at least the last 8 000 updates";
* no extra per-update cost for the window — it feeds one sketch per
  update (its running sum; closed sub-epochs are delta runs drained
  from it), the rotator feeds its two live epoch sketches;
* identical threshold, poll cadence, and crossing semantics.

Up-crossing (flag) latency is near-identical: both engines see every
update immediately.  The win is down-crossing (all-clear) latency: the
window sheds the burst within one sub-epoch of it aging past the
horizon (~W + g updates after burst end), while the rotator keeps
answering from sketches that saw the burst until *two* full epochs
have rotated past it — the burst here starts just after an epoch
boundary (the adversary-controlled straddling case), so the rotator
holds the alarm for ~2W updates.  ``docs/windowing.md`` derives both
bounds.

Workload sizes are pinned (no ``REPRO_SCALE`` scaling): latencies are
exact update-count functions of the engine geometry, so scaling them
would only move both sides of the gated ratio together.

Env:
    REPRO_BENCH_WINDOW_MIN_SPEEDUP: clear-latency ratio floor
        (rotated / windowed; default 1.3).
    REPRO_BENCH_WINDOW_OUT: JSON results path (default
        BENCH_window.json).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from conftest import env_float, print_table, write_result

from repro.monitor import SlidingWindowSketch, WindowedThresholdWatch
from repro.sketch import TrackingDistinctCountSketch
from repro.sketch.estimate import TopKResult
from repro.streams import BurstFlood, CarpetBombing
from repro.types import AddressDomain, FlowUpdate, cut_stream

# Engine geometry: equal minimum coverage of 8 000 updates.
SUBEPOCH = 1_000
WINDOW_SUBEPOCHS = 9          # window covers 8 000 - 9 000 updates
EPOCH_LENGTH = 8_000
WINDOW_EPOCHS = 2             # rotator covers 8 000 - 16 000 updates

TAU = 400
CHECK_INTERVAL = 200
SEED = 7
# Width 512 keeps the distinct-sample quantization step (2^stop_level)
# well under tau for both engines, so clears reflect window geometry,
# not estimator jitter.
SKETCH_S = 512

# The burst: 600 distinct sources, placed just after the rotator's
# epoch boundary at 16 000 (the straddling case the adversary picks).
VICTIM = 9_999
BURST_SOURCES = 600
BURST_START = 16_050
STREAM_LENGTH = 40_000


class EpochRotator:
    """The epoch-rotation baseline: a ring of whole-epoch sketches.

    Every update feeds all live sketches; every ``epoch_length``
    updates a fresh sketch (seed ``seed + epoch``) opens and the oldest
    beyond ``window_epochs`` retires.  Queries read the oldest live
    sketch, so coverage drops a whole epoch at each boundary.
    """

    def __init__(self, domain: AddressDomain, epoch_length: int,
                 window_epochs: int = 2, seed: int = 0,
                 s: int = 128) -> None:
        self.domain, self.seed, self.s = domain, seed, s
        self.epoch_length = epoch_length
        self.epochs_started = 0
        self._in_epoch = 0
        self._sketches: Deque[TrackingDistinctCountSketch] = deque(
            maxlen=window_epochs
        )
        self._sketches.append(self._new_sketch())

    def _new_sketch(self) -> TrackingDistinctCountSketch:
        seed = self.seed + self.epochs_started
        self.epochs_started += 1
        return TrackingDistinctCountSketch(self.domain, s=self.s, seed=seed)

    def observe(self, update: FlowUpdate) -> None:
        self.observe_batch([update])

    def observe_batch(self, updates: Iterable[FlowUpdate]) -> None:
        for chunk in cut_stream(updates, self.epoch_length, self._in_epoch):
            for sketch in self._sketches:
                sketch.update_batch(chunk)
            self._in_epoch = (self._in_epoch + len(chunk)) % self.epoch_length
            if self._in_epoch == 0:
                self._sketches.append(self._new_sketch())

    def threshold(self, tau: int) -> TopKResult:
        return self._sketches[0].track_threshold(tau)


def _crossing_positions(
    watch: WindowedThresholdWatch,
    updates: List[FlowUpdate],
    victim: int,
) -> Dict[str, Optional[int]]:
    """The victim's first flag and *sustained* clear, as positions.

    The clear is the last down-crossing with no re-flag after it — the
    operational "all-clear" — so a transient estimator dip followed by
    a re-flag does not count as having cleared.
    """
    watch.observe_stream(updates)
    events = [e for e in watch.events if e.dest == victim]
    flagged = next((e.updates_seen for e in events if e.above), None)
    cleared: Optional[int] = None
    if events and not events[-1].above:
        cleared = events[-1].updates_seen
    return {"flagged": flagged, "cleared": cleared}


def _engines():
    domain = AddressDomain(2 ** 32)
    window = SlidingWindowSketch(
        domain,
        subepoch_length=SUBEPOCH,
        window_subepochs=WINDOW_SUBEPOCHS,
        seed=SEED,
        s=SKETCH_S,
        backend="packed",
    )
    rotator = EpochRotator(
        domain,
        epoch_length=EPOCH_LENGTH,
        window_epochs=WINDOW_EPOCHS,
        seed=SEED,
        s=SKETCH_S,
    )
    return window, rotator


def test_burst_flood_detection_latency() -> None:
    """Windowed clear latency beats epoch rotation by the gated floor."""
    min_speedup = env_float("REPRO_BENCH_WINDOW_MIN_SPEEDUP", 1.3)
    flood = BurstFlood(
        victim=VICTIM,
        burst_sources=BURST_SOURCES,
        period=STREAM_LENGTH,     # a single pulse
        length=STREAM_LENGTH,
        offset=BURST_START,
        seed=SEED,
    )
    updates = list(flood)
    (burst_start, burst_end), = flood.pulse_spans()

    window, rotator = _engines()
    windowed = _crossing_positions(
        WindowedThresholdWatch(window, TAU, CHECK_INTERVAL),
        updates,
        VICTIM,
    )
    rotated = _crossing_positions(
        WindowedThresholdWatch(rotator, TAU, CHECK_INTERVAL),
        updates,
        VICTIM,
    )

    assert windowed["flagged"] is not None, "window engine missed the burst"
    assert rotated["flagged"] is not None, "rotator missed the burst"
    assert windowed["cleared"] is not None, "window engine never cleared"
    assert rotated["cleared"] is not None, "rotator never cleared"

    results = {}
    for name, positions in (("windowed", windowed), ("rotated", rotated)):
        flagged = positions["flagged"]
        cleared = positions["cleared"]
        assert flagged is not None and cleared is not None
        results[name] = {
            "flag_position": flagged,
            "clear_position": cleared,
            "flag_latency_updates": flagged - burst_start,
            "clear_latency_updates": cleared - burst_end,
        }

    ratio = (
        results["rotated"]["clear_latency_updates"]
        / results["windowed"]["clear_latency_updates"]
    )
    print_table(
        "Burst-flood detection latency (updates, lower is better)",
        ["engine", "flag latency", "clear latency"],
        [
            [
                name,
                results[name]["flag_latency_updates"],
                results[name]["clear_latency_updates"],
            ]
            for name in ("windowed", "rotated")
        ],
    )
    print(f"clear-latency ratio (rotated/windowed): {ratio:.2f}x "
          f"(floor {min_speedup}x)")

    out = write_result("REPRO_BENCH_WINDOW_OUT", "BENCH_window.json", {
        "workload": {
            "stream_length": STREAM_LENGTH,
            "burst_start": burst_start,
            "burst_end": burst_end,
            "burst_sources": BURST_SOURCES,
            "tau": TAU,
            "check_interval": CHECK_INTERVAL,
        },
        "geometry": {
            "subepoch_length": SUBEPOCH,
            "window_subepochs": WINDOW_SUBEPOCHS,
            "epoch_length": EPOCH_LENGTH,
            "window_epochs": WINDOW_EPOCHS,
        },
        "windowed": results["windowed"],
        "rotated": results["rotated"],
        "clear_latency_ratio": ratio,
        "min_speedup": min_speedup,
    })
    print(f"wrote {out}")

    # Flag latency is a wash (both engines see updates immediately);
    # allow two poll intervals of slack either way.
    flag_gap = (
        results["windowed"]["flag_latency_updates"]
        - results["rotated"]["flag_latency_updates"]
    )
    assert abs(flag_gap) <= 2 * CHECK_INTERVAL, flag_gap
    assert ratio >= min_speedup, (
        f"windowed clear latency only {ratio:.2f}x better than epoch "
        f"rotation (floor {min_speedup}x)"
    )


def test_carpet_bombing_sweep() -> None:
    """The window clears swept victims; the rotator holds them stale."""
    victims = [101, 102, 103, 104]
    sweep = CarpetBombing(
        victims=victims,
        sources_per_burst=BURST_SOURCES,
        gap=3_300,
        rounds=1,
        seed=SEED,
    )
    updates = list(sweep)

    window, rotator = _engines()
    rows = []
    counts = {}
    for name, engine in (("windowed", window), ("rotated", rotator)):
        watch = WindowedThresholdWatch(engine, TAU, CHECK_INTERVAL)
        watch.observe_stream(updates)
        flagged = {e.dest for e in watch.events if e.above}
        cleared = {e.dest for e in watch.events if not e.above}
        counts[name] = (len(flagged & set(victims)),
                        len(cleared & set(victims)))
        rows.append([name, counts[name][0], counts[name][1]])
    print_table(
        f"Carpet bombing: {len(victims)} victims swept "
        f"({len(updates)} updates)",
        ["engine", "victims flagged", "victims cleared by end"],
        rows,
    )
    # Every swept victim must be flagged, and the window must have shed
    # the victims whose bursts aged out (the first two; the rest are
    # still inside the 8k-9k update window when the stream ends).
    assert counts["windowed"][0] == len(victims)
    assert counts["rotated"][0] == len(victims)
    assert counts["windowed"][1] >= 2
    assert counts["windowed"][1] >= counts["rotated"][1]


def test_rotator_flaps_at_epoch_boundary() -> None:
    """A steady heavy hitter: the rotator flaps at epoch boundaries.

    Coverage oscillates in [100, 200]; tau=120 sits inside, so right
    after the rotation at 300 the fresh query sketch (100 updates old)
    reports the continuously-hot victim *below* threshold — a spurious
    down/up pair per boundary.  ``tests/monitor/test_boundaries.py``
    pins that the sliding window does not flap on the same stream.
    """
    rotator = EpochRotator(
        AddressDomain(2 ** 16), epoch_length=100, window_epochs=2, seed=9
    )
    watch = WindowedThresholdWatch(rotator, tau=120, check_interval=10)
    watch.observe_stream(FlowUpdate(source, 9, 1) for source in range(400))
    events = [e for e in watch.events if e.dest == 9]
    downs = [e for e in events if not e.above]
    ups = [e for e in events if e.above]
    assert downs, "expected the rotator to flap at a boundary"
    assert len(ups) >= 2  # initial flag + re-flag after the dip
