"""The paper's primary contribution: Distinct-Count Sketch synopses.

Three layers live here:

* :class:`CountSignature` — the per-bucket counter array (one total
  count plus one counter per bit of the pair encoding) that makes the
  sketch delete-resistant and lets singleton buckets be decoded
  (Section 3); a whole sketch's counters live in one store, the
  packed :class:`SignatureArena` or the reference
  :class:`SignatureTable`.
* :class:`DistinctCountSketch` — the basic two-level synopsis with the
  ``BaseTopk`` estimator (Sections 3-4).
* :class:`TrackingDistinctCountSketch` — the tracking variant that
  incrementally maintains the distinct sample, singleton counters, and
  per-level destination heaps so top-k queries cost ``O(k log m)``
  (Section 5).
"""

from .arena import SignatureArena, pack_codes, singleton_mask
from .dcs import DistinctCountSketch, HashedBatch
from .estimate import TopKEntry, TopKResult, rank_frequencies
from .heap import IndexedMaxHeap
from .params import SketchParams
from .sharded import ShardedSketch
from .signature import CountSignature, SignatureTable
from .tracking import TrackingDistinctCountSketch
from . import debug, serialize

__all__ = [
    "CountSignature",
    "DistinctCountSketch",
    "HashedBatch",
    "IndexedMaxHeap",
    "ShardedSketch",
    "SignatureArena",
    "SignatureTable",
    "SketchParams",
    "TopKEntry",
    "TopKResult",
    "TrackingDistinctCountSketch",
    "debug",
    "pack_codes",
    "rank_frequencies",
    "serialize",
    "singleton_mask",
]
