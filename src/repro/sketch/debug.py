"""Sketch introspection: what is actually inside a synopsis.

Development and teaching aids — none of this is on a hot path:

* :func:`level_occupancy` — per-level distinct buckets, singletons,
  and collisions, the histogram Figure 2 implies;
* :func:`bucket_report` — classify every occupied bucket;
* :func:`describe` — a multi-line human-readable summary of a sketch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .dcs import DistinctCountSketch


@dataclass(frozen=True)
class LevelStats:
    """Occupancy statistics for one first-level bucket.

    Attributes:
        level: the first-level bucket index.
        occupied_buckets: second-level buckets holding any state
            (summed over the r inner tables).
        singletons: buckets currently decodable to a single pair.
        collisions: occupied buckets holding >= 2 distinct pairs.
        total_count: net total of all signatures at this level.
    """

    level: int
    occupied_buckets: int
    singletons: int
    collisions: int
    total_count: int


def level_occupancy(sketch: DistinctCountSketch) -> List[LevelStats]:
    """Per-level occupancy of every non-empty level, top level last."""
    tallies: Dict[int, List[int]] = {}
    for level, _, _, signature in sketch._iter_signatures():
        # [occupied, singletons, collisions, net total]
        tally = tallies.setdefault(level, [0, 0, 0, 0])
        tally[0] += 1
        if signature.recover_singleton() is not None:
            tally[1] += 1
        else:
            tally[2] += 1
        tally[3] += signature.total
    return [
        LevelStats(
            level=level,
            occupied_buckets=occupied,
            singletons=singletons,
            collisions=collisions,
            total_count=total,
        )
        for level, (occupied, singletons, collisions, total) in sorted(
            tallies.items()
        )
    ]


def bucket_report(sketch: DistinctCountSketch) -> Dict[str, int]:
    """Counts of empty / singleton / collision buckets over the sketch.

    'empty' counts allocated-but-unused capacity: ``levels * r * s``
    minus the occupied buckets (the sparse layout never materializes
    them, but the paper's space model charges for them).
    """
    singletons = 0
    collisions = 0
    occupied = 0
    for _, _, _, signature in sketch._iter_signatures():
        occupied += 1
        if signature.recover_singleton() is not None:
            singletons += 1
        else:
            collisions += 1
    capacity = (
        sketch.params.num_levels * sketch.params.r * sketch.params.s
    )
    return {
        "capacity": capacity,
        "occupied": occupied,
        "empty": capacity - occupied,
        "singletons": singletons,
        "collisions": collisions,
    }


def describe(sketch: DistinctCountSketch) -> str:
    """A multi-line human-readable summary of the sketch's state."""
    lines = [repr(sketch)]
    report = bucket_report(sketch)
    lines.append(
        f"buckets: {report['occupied']}/{report['capacity']} occupied "
        f"({report['singletons']} singletons, "
        f"{report['collisions']} collisions)"
    )
    lines.append(
        f"model space: {sketch.space_bytes() / 1024:.0f} KiB over "
        f"{sketch.active_levels()} active levels"
    )
    for stats in level_occupancy(sketch):
        lines.append(
            f"  level {stats.level:2d}: "
            f"{stats.occupied_buckets:5d} occupied, "
            f"{stats.singletons:5d} singleton, "
            f"{stats.collisions:5d} colliding, "
            f"net count {stats.total_count}"
        )
    return "\n".join(lines)
