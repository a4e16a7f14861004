"""Sketch serialization: ship synopses between routers and the monitor.

The Figure 1 deployment has per-router sketches travelling to a central
DDoS monitor for merging.  This module provides a compact, versioned,
dependency-free wire format:

* :func:`sketch_to_dict` / :func:`sketch_from_dict` — plain-dict codec
  (JSON-compatible) carrying parameters, seed, and only the *occupied*
  buckets (the sketch is sparse by construction).
* :func:`dumps` / :func:`loads` — JSON bytes on top of the dict codec.

Round-tripping preserves structural equality, so a deserialized sketch
merges and queries exactly like the original.  Tracking sketches rebuild
their incremental state (singleton sets, heaps) on load rather than
shipping it — the raw signatures fully determine it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Union

from ..exceptions import ParameterError
from ..types import AddressDomain
from .dcs import DistinctCountSketch
from .params import SketchParams
from .signature import CountSignature
from .tracking import TrackingDistinctCountSketch

#: Format version written into every payload.
FORMAT_VERSION = 1

AnySketch = Union[DistinctCountSketch, TrackingDistinctCountSketch]


def sketch_to_dict(sketch: AnySketch) -> Dict[str, Any]:
    """Encode a sketch (basic or tracking) as a JSON-compatible dict."""
    buckets: List[List[Any]] = []
    for level, j, bucket, signature in sketch._iter_signatures():
        buckets.append([level, j, bucket, signature.counter_values()])
    return {
        "format_version": FORMAT_VERSION,
        "kind": (
            "tracking"
            if isinstance(sketch, TrackingDistinctCountSketch)
            else "basic"
        ),
        "m": sketch.domain.m,
        "r": sketch.params.r,
        "s": sketch.params.s,
        "num_levels": sketch.params.num_levels,
        "sample_target_factor": sketch.params.sample_target_factor,
        "seed": sketch.seed,
        "updates_processed": sketch.updates_processed,
        "net_total": sketch.net_total,
        "buckets": buckets,
    }


def sketch_from_dict(
    payload: Dict[str, Any], *, backend: str = "packed"
) -> AnySketch:
    """Decode a sketch from :func:`sketch_to_dict` output.

    ``backend`` selects the storage backend of the reconstructed sketch
    (packed by default; the wire format is backend-agnostic — both
    backends serialize to the same payload and load into either).
    """
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ParameterError(
            f"unsupported sketch format version: {version!r}"
        )
    kind = payload.get("kind")
    if kind not in ("basic", "tracking"):
        raise ParameterError(f"unknown sketch kind: {kind!r}")
    params = SketchParams(
        domain=AddressDomain(payload["m"]),
        r=payload["r"],
        s=payload["s"],
        num_levels=payload["num_levels"],
        sample_target_factor=payload["sample_target_factor"],
    )
    cls = (
        TrackingDistinctCountSketch if kind == "tracking"
        else DistinctCountSketch
    )
    sketch = cls(params, seed=payload["seed"], backend=backend)
    pair_bits = params.pair_bits
    for level, j, bucket, counters in payload["buckets"]:
        if not 0 <= level < params.num_levels or not 0 <= j < params.r:
            raise ParameterError(
                f"bucket coordinates ({level}, {j}) out of range"
            )
        if len(counters) != pair_bits + 1:
            raise ParameterError(
                f"count signature has {len(counters)} counters, "
                f"expected {pair_bits + 1}"
            )
        signature = CountSignature(pair_bits)
        signature.total = counters[0]
        signature.bit_counts = list(counters[1:])
        sketch._tables[level][j][bucket] = signature
    sketch.updates_processed = payload["updates_processed"]
    sketch.net_total = payload["net_total"]
    if isinstance(sketch, TrackingDistinctCountSketch):
        sketch._rebuild_tracking_state()
    return sketch


def dumps(sketch: AnySketch) -> bytes:
    """Serialize a sketch to JSON bytes."""
    return json.dumps(
        sketch_to_dict(sketch), separators=(",", ":")
    ).encode("ascii")


def loads(data: bytes, *, backend: str = "packed") -> AnySketch:
    """Deserialize a sketch from :func:`dumps` output.

    ``backend`` selects the storage backend of the loaded sketch; see
    :func:`sketch_from_dict`.
    """
    try:
        payload = json.loads(data.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ParameterError(f"malformed sketch payload: {error}") from error
    if not isinstance(payload, dict):
        raise ParameterError("sketch payload must be a JSON object")
    return sketch_from_dict(payload, backend=backend)
