"""The fixed cost of one small packed batch, pinned as a call count.

A detector that checks every few updates feeds the batch engine small
batches, so what a batch costs regardless of its size bounds the line
rate.  That cost is mostly numpy calls, each paying its own dispatch,
so this counts them per ``update_batch`` of 1 and of 12 updates on a
seeded IPv4 stream, and of 12 on an insert-only one: the
``cProfile`` entries numpy owns (a function in
numpy's package directory, or a built-in whose name is numpy's) that
code of the ``repro`` package calls directly.  What numpy does inside
a call (its Python-level helpers, which differ between versions) is
not counted, nor is a ``*_dispatcher`` function, which numpy 1.25 and
later profile beside the Python-level function it dispatches; so every
numpy call the package makes counts once.  Timing would be noisy; a
count is exact.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import random

import numpy as np
import pytest

import repro
from repro.sketch import DistinctCountSketch, TrackingDistinctCountSketch
from repro.types import AddressDomain, FlowUpdate

NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
REPRO_DIR = os.path.dirname(repro.__file__) + os.sep

# Below 1.25 numpy dispatches through generated wrappers whose code
# lies outside its package directory, so the count would miss those
# calls; the bounds were measured on numpy 2.4.
pytestmark = pytest.mark.skipif(
    tuple(int(part) for part in np.__version__.split(".")[:2]) < (1, 25),
    reason="numpy < 1.25 dispatches in Python; counts measured on 2.4",
)

#: Batches profiled per case, after one warm-up batch.
BATCHES = 60

#: Share of the stream's updates that end a live flow.
DELETE_SHARE = 0.25

#: Most numpy calls one batch may average, per sketch, whether a
#: tracking sketch was queried, batch size and share of deletes.  A
#: tracking sketch diffs only the levels at or above its last query's
#: stop level, so each queried row queries its sketch once while it is
#: empty (stop level 0: every level tracked) and measures the full
#: tracking diff; a never-queried one diffs nothing and keeps within
#: the plain sketch's bounds.  With the one-broadcast hash the counts
#: read 36.5 and 42.0 (plain, 1 and 12 updates) and 51.5 and 57.0
#: (tracking); hashing table by table, they were 49.5, 55.0, 64.5 and
#: 70.0.  A pass holding a delete is netted by pair, which adds about
#: 4 calls (45.9 and 60.9); an insert-only pass pays only the one-call
#: gate, 38.1 -> 39.1 and 53.1 -> 54.1, so its bounds leave no room
#: for the pair sort (numpy 2.4).
BOUNDS = [
    (DistinctCountSketch, False, 1, DELETE_SHARE, 42),
    (DistinctCountSketch, False, 12, DELETE_SHARE, 48),
    (TrackingDistinctCountSketch, True, 1, DELETE_SHARE, 57),
    (TrackingDistinctCountSketch, True, 12, DELETE_SHARE, 63),
    (DistinctCountSketch, False, 12, 0.0, 39.5),
    (TrackingDistinctCountSketch, True, 12, 0.0, 54.5),
    (TrackingDistinctCountSketch, False, 1, DELETE_SHARE, 42),
    (TrackingDistinctCountSketch, False, 12, DELETE_SHARE, 48),
    (TrackingDistinctCountSketch, False, 12, 0.0, 39.5),
]


def numpy_owned(filename: str, name: str) -> bool:
    return filename.startswith(NUMPY_DIR) or "numpy" in name


def ipv4_stream(count: int, seed: int, delete_share: float):
    """Flows to a few hundred destinations; about ``delete_share`` of
    the updates end a live flow."""
    rng = random.Random(seed)
    live = []
    updates = []
    while len(updates) < count:
        if live and rng.random() < delete_share:
            source, dest = live.pop(rng.randrange(len(live)))
            updates.append(FlowUpdate(source, dest, -1))
        else:
            source = rng.getrandbits(32)
            dest = 0x0A000000 + rng.randrange(300)
            live.append((source, dest))
            updates.append(FlowUpdate(source, dest, 1))
    return updates


def numpy_calls_per_batch(
    sketch_class, queried: bool, size: int, delete_share: float
) -> float:
    sketch = sketch_class(AddressDomain(2 ** 32), seed=3)
    if queried:
        sketch.track_topk(1)  # empty: every level tracked
    updates = ipv4_stream((BATCHES + 1) * size, 29, delete_share)
    chunks = [updates[lo:lo + size] for lo in range(0, len(updates), size)]
    sketch.update_batch(chunks[0])  # builds the lazily made tables
    profile = cProfile.Profile()
    profile.enable()
    for chunk in chunks[1:]:
        sketch.update_batch(chunk)
    profile.disable()
    calls = 0
    for (filename, _, name), stat in pstats.Stats(profile).stats.items():
        if numpy_owned(filename, name) and not name.endswith("_dispatcher"):
            callers = stat[4]
            calls += sum(
                counts[0]
                for (caller, _, _), counts in callers.items()
                if caller.startswith(REPRO_DIR)
            )
    return calls / BATCHES


@pytest.mark.parametrize(
    "sketch_class,queried,size,delete_share,bound",
    BOUNDS,
    ids=[
        f"{sketch_class.__name__}-{size}"
        + ("" if delete_share else "-insert-only")
        + (
            "-never-queried"
            if sketch_class is TrackingDistinctCountSketch and not queried
            else ""
        )
        for sketch_class, queried, size, delete_share, _ in BOUNDS
    ],
)
def test_numpy_calls_per_small_batch(
    sketch_class, queried, size, delete_share, bound
):
    calls = numpy_calls_per_batch(sketch_class, queried, size, delete_share)
    assert calls <= bound, (
        f"{sketch_class.__name__}: {calls:.1f} numpy calls per "
        f"{size}-update batch, bound {bound}"
    )
