"""The Figure 9 experiment as a library function.

Sweeps the tracking-query frequency over a fixed update stream for
both sketch variants and reports the average per-update cost, exactly
as Section 6.2 describes — on the paper-faithful ``"reference"`` store,
fed one update at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..exceptions import ParameterError
from ..metrics import UpdateTimer
from ..sketch import DistinctCountSketch, TrackingDistinctCountSketch
from ..streams import ZipfWorkload
from ..types import AddressDomain, FlowUpdate


@dataclass(frozen=True)
class TimingSweepPoint:
    """One (variant, query-frequency) measurement."""

    variant: str  # "basic" | "tracking"
    query_frequency: float
    microseconds_per_update: float
    updates: int
    queries: int


def run_timing_sweep(
    domain: AddressDomain,
    updates: Sequence[FlowUpdate] = None,
    distinct_pairs: int = 40_000,
    query_frequencies: Sequence[float] = (
        0.0, 1 / 1600, 1 / 400, 1 / 200, 1 / 100,
    ),
    repeats: int = 2,
    seed: int = 0,
) -> List[TimingSweepPoint]:
    """Run the Figure 9 sweep; returns one point per (variant, freq).

    Args:
        domain: address domain.
        updates: the update stream; generated from a Zipf workload of
            ``distinct_pairs`` pairs if omitted.
        query_frequencies: top-1 queries per update.
        repeats: best-of-n repetitions per point (noise robustness).
        seed: workload/sketch seed.
    """
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    if updates is None:
        workload = ZipfWorkload(
            domain,
            distinct_pairs=distinct_pairs,
            destinations=max(10, distinct_pairs // 160),
            skew=1.5,
            seed=seed,
        )
        updates = workload.updates()
    points: List[TimingSweepPoint] = []
    for variant in ("basic", "tracking"):
        for frequency in query_frequencies:
            best = None
            for _ in range(repeats):
                if variant == "tracking":
                    sketch = TrackingDistinctCountSketch(
                        domain, seed=seed + 5, backend="reference"
                    )
                    query = lambda: sketch.track_topk(1)  # noqa: E731
                else:
                    sketch = DistinctCountSketch(
                        domain, seed=seed + 5, backend="reference"
                    )
                    query = lambda: sketch.base_topk(1)  # noqa: E731
                timer = UpdateTimer(
                    update=sketch.process,
                    query=query,
                    query_frequency=frequency,
                )
                report = timer.run(updates)
                if best is None or (report.microseconds_per_update
                                    < best.microseconds_per_update):
                    best = report
            points.append(
                TimingSweepPoint(
                    variant=variant,
                    query_frequency=frequency,
                    microseconds_per_update=best.microseconds_per_update,
                    updates=best.updates,
                    queries=best.queries,
                )
            )
    return points
