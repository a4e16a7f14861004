"""Sketch serialization: ship synopses between routers and the monitor.

The Figure 1 deployment has per-router sketches travelling to a central
DDoS monitor for merging.  This module provides a compact, versioned,
dependency-free wire format:

* :func:`sketch_to_dict` / :func:`sketch_from_dict` — plain-dict codec
  (JSON-compatible) carrying parameters, seed, and only the *occupied*
  buckets (the sketch is sparse by construction).
* :func:`dumps` / :func:`loads` — JSON bytes on top of the dict codec.

Round-tripping preserves structural equality, so a deserialized sketch
merges and queries exactly like the original.  A tracking sketch's
incremental state (singleton sets, heaps) is not shipped, since the raw
signatures fully determine it, nor built on load: a loaded tracking
sketch tracks no level until its first tracked query decodes the levels
that query reads.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Set, Tuple, Union

from .._accel import np as _np
from ..exceptions import DomainError, ParameterError
from ..types import AddressDomain
from .dcs import DistinctCountSketch
from .params import SketchParams
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


def _is_int(value: Any) -> bool:
    """True for a plain integer (``bool`` is not a coordinate or counter)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """True for an integer or a float (``bool`` is neither here)."""
    return _is_int(value) or isinstance(value, float)


def _field(
    payload: Dict[str, Any], name: str, valid: Callable[[Any], bool],
    kind: str,
) -> Any:
    """The header field ``name``, checked by ``valid``.

    Raises:
        ParameterError: naming the field, when it is missing or is not
            ``kind``.
    """
    if name not in payload:
        raise ParameterError(f"sketch payload has no {name!r} field")
    value = payload[name]
    if not valid(value):
        raise ParameterError(
            f"sketch payload field {name!r} must be {kind}, got {value!r}"
        )
    return value


def _bucket_rows(
    entries: List[Any], params: SketchParams
) -> Tuple[List[Tuple[int, int, int]], List[List[int]]]:
    """Validated ``(level, j, bucket)`` coordinates and counter rows.

    Raises:
        ParameterError: for a malformed entry, a coordinate outside the
            sketch (which would alias a neighbouring table in the flat
            packed slab), a non-integer coordinate or counter, a
            counter row of the wrong width, or a repeated bucket.
    """
    bounds = (
        ("level", params.num_levels), ("table", params.r), ("bucket", params.s)
    )
    width = params.pair_bits + 1
    seen: Set[Tuple[int, int, int]] = set()
    coordinates: List[Tuple[int, int, int]] = []
    rows: List[List[int]] = []
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParameterError(f"malformed bucket entry: {entry!r}")
        for (name, bound), value in zip(bounds, entry):
            if not _is_int(value) or not 0 <= value < bound:
                raise ParameterError(
                    f"bucket {name} {value!r} outside [0, {bound})"
                )
        counters = entry[3]
        if not isinstance(counters, list) or len(counters) != width:
            raise ParameterError(
                f"count signature must be a list of {width} counters"
            )
        if not all(_is_int(count) for count in counters):
            raise ParameterError("count signature counters must be integers")
        where = (entry[0], entry[1], entry[2])
        if where in seen:
            raise ParameterError(f"bucket {where} listed twice")
        seen.add(where)
        coordinates.append(where)
        rows.append(counters)
    return coordinates, rows


def sketch_from_dict(
    payload: Dict[str, Any], *, backend: str = "packed"
) -> AnySketch:
    """Decode a sketch from :func:`sketch_to_dict` output.

    ``backend`` selects the storage backend of the reconstructed sketch
    (packed by default, which a pair domain wider than 64 bits resolves
    to the reference store; the wire format is backend-agnostic — both
    backends serialize to the same payload and load into either).

    Raises:
        ParameterError: for an unsupported version or kind, a missing
            or mistyped header field (named in the message), or any
            malformed bucket (see :func:`_bucket_rows`).
    """
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ParameterError(
            f"unsupported sketch format version: {version!r}"
        )
    kind = payload.get("kind")
    if kind not in ("basic", "tracking"):
        raise ParameterError(f"unknown sketch kind: {kind!r}")
    header = {
        name: _field(payload, name, _is_int, "an integer")
        for name in (
            "m", "r", "s", "num_levels", "seed", "updates_processed",
            "net_total",
        )
    }
    try:
        domain = AddressDomain(header["m"])
    except DomainError as error:
        raise ParameterError(f"sketch payload field 'm': {error}") from error
    params = SketchParams(
        domain=domain,
        r=header["r"],
        s=header["s"],
        num_levels=header["num_levels"],
        sample_target_factor=_field(
            payload, "sample_target_factor", _is_number, "a number"
        ),
    )
    cls = (
        TrackingDistinctCountSketch if kind == "tracking"
        else DistinctCountSketch
    )
    sketch = cls(params, seed=header["seed"], backend=backend)
    coordinates, rows = _bucket_rows(
        _field(payload, "buckets", lambda value: isinstance(value, list),
               "a list"),
        params,
    )
    keys = [sketch._key(*where) for where in coordinates]
    # Packed counters are 64-bit; the reference store's are unbounded.
    dtype = _np.int64 if sketch.backend == "packed" else object
    try:
        matrix = _np.array(rows, dtype=dtype)
    except OverflowError as error:
        raise ParameterError(
            f"counter outside the 64-bit packed range: {error}"
        ) from error
    sketch.apply_bucket_deltas(
        _np.array(keys, dtype=_np.int64),
        matrix.reshape(len(keys), params.pair_bits + 1),
    )
    sketch.updates_processed = header["updates_processed"]
    sketch.net_total = header["net_total"]
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
