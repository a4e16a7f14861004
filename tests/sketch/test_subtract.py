"""The subtract-merge kernel: exactness of −1-multiplicity merging.

Linearity (Section 3) promises that subtracting the sketch of a
sub-stream leaves *exactly* the sketch of the remaining updates — the
invariant the sliding-window engine rests on.  These tests pin it at
every layer: ``CountSignature.subtract``, a negated ``SignatureArena
.fold``, ``DistinctCountSketch.subtract`` (vectorized packed path,
scalar reference path, and mixed-backend operands), and the tracking
subclass's sample state.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np
import pytest

from repro.exceptions import MergeError
from repro.sketch import DistinctCountSketch, TrackingDistinctCountSketch
from repro.sketch.arena import SignatureArena
from repro.sketch.signature import CountSignature
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)
BACKENDS = ("reference", "packed")


def make_stream(
    seed: int, length: int, dests: int = 120, delete_fraction: float = 0.35
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


def fed(
    updates: List[FlowUpdate], backend: str, tracking: bool = False
) -> DistinctCountSketch:
    cls = TrackingDistinctCountSketch if tracking else DistinctCountSketch
    sketch = cls(DOMAIN, seed=9, backend=backend)
    for update in updates:
        sketch.process(update)
    return sketch


class TestSignatureSubtract:
    def test_subtract_inverts_merge(self) -> None:
        left = CountSignature(8)
        right = CountSignature(8)
        left.update(0b1011, 3)
        right.update(0b0110, 2)
        merged = left.copy()
        merged.merge(right)
        merged.subtract(right)
        assert merged == left

    def test_subtract_to_zero(self) -> None:
        signature = CountSignature(8)
        signature.update(0b101, 4)
        signature.subtract(signature.copy())
        assert signature.is_zero

    def test_width_mismatch_raises(self) -> None:
        with pytest.raises(MergeError):
            CountSignature(8).subtract(CountSignature(9))


def fold_signature(
    arena: SignatureArena, key: int, signature: CountSignature, sign: int
) -> None:
    """Fold ``sign`` times one signature's counters into ``key``."""
    row = sign * np.array([signature.counter_values()], dtype=np.int64)
    arena.fold(np.array([key], dtype=np.int64), row)


class TestArenaSubtract:
    def test_subtract_prunes_zeroed_rows(self) -> None:
        arena = SignatureArena(8, 16)
        signature = CountSignature(8)
        signature.update(0b11, 5)
        fold_signature(arena, 3, signature, +1)
        assert len(arena) == 1
        fold_signature(arena, 3, signature, -1)
        assert len(arena) == 0

    def test_subtract_on_empty_bucket_goes_negative(self) -> None:
        # Negative intermediate counts are legal mid-merge; the row
        # must exist (not be dropped) so a later merge cancels exactly.
        arena = SignatureArena(8, 16)
        signature = CountSignature(8)
        signature.update(0b1, 2)
        fold_signature(arena, 7, signature, -1)
        assert arena.get(7).total == -2
        fold_signature(arena, 7, signature, +1)
        assert len(arena) == 0


class TestSketchSubtract:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("stream_seed", [1, 2])
    def test_differential_vs_from_scratch(
        self, backend: str, stream_seed: int
    ) -> None:
        """whole − prefix == from-scratch(suffix), bit for bit."""
        updates = make_stream(stream_seed, 2400)
        split = 1500
        whole = fed(updates, backend)
        prefix = fed(updates[:split], backend)
        suffix_only = fed(updates[split:], backend)
        whole.subtract(prefix)
        assert whole.structurally_equal(suffix_only)
        assert whole.updates_processed == suffix_only.updates_processed
        assert whole.net_total == suffix_only.net_total
        assert (
            whole.base_topk(5).as_dict() == suffix_only.base_topk(5).as_dict()
        )

    def test_backends_agree_after_subtract(self) -> None:
        """reference and packed subtract land in bit-identical states."""
        updates = make_stream(4, 2400)
        results = []
        for backend in BACKENDS:
            whole = fed(updates, backend)
            whole.subtract(fed(updates[:1500], backend))
            results.append(whole)
        assert results[0].structurally_equal(results[1])

    @pytest.mark.parametrize(
        "mine,theirs",
        [("reference", "packed"), ("packed", "reference")],
    )
    def test_mixed_backend_subtract(self, mine: str, theirs: str) -> None:
        """The scalar fallback handles mixed-backend operands."""
        updates = make_stream(5, 1600)
        whole = fed(updates, mine)
        whole.subtract(fed(updates[:1000], theirs))
        assert whole.structurally_equal(fed(updates[1000:], mine))

    def test_subtract_self_empties(self) -> None:
        updates = make_stream(6, 800)
        sketch = fed(updates, "packed")
        sketch.subtract(sketch.copy())
        assert sketch.structurally_equal(
            DistinctCountSketch(DOMAIN, seed=9, backend="packed")
        )
        assert sketch.updates_processed == 0
        assert sketch.net_total == 0

    def test_incompatible_raises(self) -> None:
        sketch = DistinctCountSketch(DOMAIN, seed=9)
        with pytest.raises(MergeError):
            sketch.subtract(DistinctCountSketch(DOMAIN, seed=10))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tracking_subtract_rebuilds_sample(self, backend: str) -> None:
        updates = make_stream(7, 1800, delete_fraction=0.2)
        whole = fed(updates, backend, tracking=True)
        prefix = fed(updates[:1100], backend, tracking=True)
        suffix_only = fed(updates[1100:], backend, tracking=True)
        whole.subtract(prefix)
        whole.check_invariants()
        assert whole.structurally_equal(suffix_only)
        assert (
            whole.track_topk(5).as_dict()
            == suffix_only.track_topk(5).as_dict()
        )
