"""Tests for sketch serialization."""

from __future__ import annotations

import json
import random

import pytest

from repro.exceptions import ParameterError
from repro.sketch import (
    DistinctCountSketch,
    SketchParams,
    TrackingDistinctCountSketch,
    serialize,
)
from repro.types import AddressDomain


@pytest.fixture
def domain() -> AddressDomain:
    return AddressDomain(2 ** 16)


def loaded_sketch(domain, tracking=False, seed=3, updates=200):
    cls = TrackingDistinctCountSketch if tracking else DistinctCountSketch
    sketch = cls(domain, seed=seed, backend="reference")
    rng = random.Random(seed)
    for _ in range(updates):
        sketch.insert(rng.randrange(2 ** 16), rng.randrange(40))
    return sketch


class TestRoundTrip:
    def test_basic_sketch_roundtrips(self, domain):
        original = loaded_sketch(domain)
        restored = serialize.loads(serialize.dumps(original))
        assert isinstance(restored, DistinctCountSketch)
        assert restored.structurally_equal(original)
        assert restored.updates_processed == original.updates_processed
        assert restored.net_total == original.net_total

    def test_tracking_sketch_roundtrips(self, domain):
        original = loaded_sketch(domain, tracking=True)
        restored = serialize.loads(serialize.dumps(original))
        assert isinstance(restored, TrackingDistinctCountSketch)
        assert restored.structurally_equal(original)
        restored.check_invariants()
        assert restored.track_topk(5).as_dict() == (
            original.track_topk(5).as_dict()
        )

    def test_empty_sketch_roundtrips(self, domain):
        original = DistinctCountSketch(domain, seed=1)
        restored = serialize.loads(serialize.dumps(original))
        assert restored.is_empty

    def test_restored_sketch_keeps_processing(self, domain):
        original = loaded_sketch(domain, tracking=True)
        restored = serialize.loads(serialize.dumps(original))
        for source in range(50):
            original.insert(source, 99)
            restored.insert(source, 99)
        assert restored.structurally_equal(original)
        restored.check_invariants()

    def test_restored_sketch_merges_with_original_lineage(self, domain):
        left = loaded_sketch(domain, seed=7, updates=100)
        right = DistinctCountSketch(domain, seed=7)
        for source in range(80):
            right.insert(source, 5)
        restored = serialize.loads(serialize.dumps(right))
        left.merge(restored)
        direct = loaded_sketch(domain, seed=7, updates=100)
        for source in range(80):
            direct.insert(source, 5)
        assert left.structurally_equal(direct)

    def test_nondefault_params_preserved(self, domain):
        params = SketchParams(domain, r=2, s=32,
                              sample_target_factor=0.25)
        original = DistinctCountSketch(params, seed=9)
        original.insert(1, 2)
        restored = serialize.loads(serialize.dumps(original))
        assert restored.params == params

    def test_payload_is_compact_json(self, domain):
        sketch = loaded_sketch(domain, updates=50)
        payload = serialize.dumps(sketch)
        decoded = json.loads(payload)
        assert decoded["kind"] == "basic"
        # Sparse: only occupied buckets are shipped.
        assert len(decoded["buckets"]) <= 50 * sketch.params.r


class TestValidation:
    def test_rejects_bad_version(self, domain):
        payload = serialize.sketch_to_dict(loaded_sketch(domain))
        payload["format_version"] = 999
        with pytest.raises(ParameterError):
            serialize.sketch_from_dict(payload)

    def test_rejects_unknown_kind(self, domain):
        payload = serialize.sketch_to_dict(loaded_sketch(domain))
        payload["kind"] = "mystery"
        with pytest.raises(ParameterError):
            serialize.sketch_from_dict(payload)

    def test_rejects_out_of_range_bucket(self, domain):
        payload = serialize.sketch_to_dict(loaded_sketch(domain))
        payload["buckets"].append([9999, 0, 0, [0] * 33])
        with pytest.raises(ParameterError):
            serialize.sketch_from_dict(payload)

    def test_rejects_wrong_signature_width(self, domain):
        payload = serialize.sketch_to_dict(loaded_sketch(domain))
        payload["buckets"].append([0, 0, 0, [1, 2, 3]])
        with pytest.raises(ParameterError):
            serialize.sketch_from_dict(payload)

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    @pytest.mark.parametrize(
        "entry",
        [
            [0, 0, 128, [1] + [0] * 32],  # bucket == s
            [0, 0, 10 ** 6, [1] + [0] * 32],
            [0, 0, -1, [1] + [0] * 32],
            [-1, 0, 5, [1] + [0] * 32],
            [0, 3, 5, [1] + [0] * 32],  # table == r
            [True, 0, 5, [1] + [0] * 32],
            [0, 0, 5.0, [1] + [0] * 32],
            [0, 0, "5", [1] + [0] * 32],
            [0, 0, 5, [1.0] + [0] * 32],
            [0, 0, 5, ["1"] + [0] * 32],
            [0, 0, 5, [True] + [0] * 32],
            [0, 0, 5, "counters"],
            [0, 0, 5],
            "bucket",
        ],
    )
    def test_rejects_malformed_bucket(self, domain, backend, entry):
        payload = serialize.sketch_to_dict(loaded_sketch(domain))
        payload["buckets"].append(entry)
        with pytest.raises(ParameterError):
            serialize.sketch_from_dict(payload, backend=backend)

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_rejects_repeated_bucket(self, domain, backend):
        payload = serialize.sketch_to_dict(loaded_sketch(domain))
        payload["buckets"].append(list(payload["buckets"][0]))
        with pytest.raises(ParameterError):
            serialize.sketch_from_dict(payload, backend=backend)

    def test_rejects_counter_beyond_packed_range(self, domain):
        payload = serialize.sketch_to_dict(loaded_sketch(domain, updates=0))
        payload["buckets"].append([0, 0, 5, [2 ** 70] + [0] * 32])
        assert serialize.sketch_from_dict(payload, backend="reference")
        with pytest.raises(ParameterError):
            serialize.sketch_from_dict(payload, backend="packed")

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    @pytest.mark.parametrize(
        "field,value",
        [
            ("m", None),
            ("r", None),
            ("s", None),
            ("num_levels", None),
            ("sample_target_factor", None),
            ("seed", None),
            ("updates_processed", None),
            ("net_total", None),
            ("buckets", None),
            ("m", "65536"),
            ("m", 3),
            ("r", True),
            ("s", 128.0),
            ("num_levels", [33]),
            ("sample_target_factor", "0.0625"),
            ("sample_target_factor", True),
            ("seed", 3.0),
            ("updates_processed", "200"),
            ("net_total", 1.5),
            ("buckets", {"0": []}),
        ],
    )
    def test_rejects_malformed_header(self, domain, backend, field, value):
        """A missing (``None`` here) or mistyped header field raises
        ``ParameterError`` naming it, through ``loads`` as checkpoint
        recovery calls it."""
        payload = serialize.sketch_to_dict(loaded_sketch(domain))
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        data = json.dumps(payload).encode("ascii")
        with pytest.raises(ParameterError, match=f"'{field}'"):
            serialize.loads(data, backend=backend)

    def test_rejects_malformed_bytes(self):
        with pytest.raises(ParameterError):
            serialize.loads(b"not json at all {{{")

    def test_rejects_non_object_payload(self):
        with pytest.raises(ParameterError):
            serialize.loads(b"[1, 2, 3]")


class TestBackendSelection:
    def test_loads_default_is_packed(self, domain):
        sketch = loaded_sketch(domain)
        restored = serialize.loads(serialize.dumps(sketch))
        assert restored.backend == "packed"
        assert restored.structurally_equal(sketch)

    def test_loads_into_packed_backend(self, domain):
        sketch = loaded_sketch(domain, tracking=True)
        restored = serialize.loads(serialize.dumps(sketch), backend="packed")
        assert restored.backend == "packed"
        assert restored.structurally_equal(sketch)
        assert isinstance(restored, TrackingDistinctCountSketch)
        restored.check_invariants()

    def test_payload_is_backend_agnostic(self, domain):
        reference = loaded_sketch(domain, seed=5)
        packed = DistinctCountSketch(domain, seed=5, backend="packed")
        rng = random.Random(5)
        for _ in range(200):
            packed.insert(rng.randrange(2 ** 16), rng.randrange(40))
        assert serialize.dumps(reference) == serialize.dumps(packed)

    def test_sketch_from_dict_backend_kwarg(self, domain):
        sketch = loaded_sketch(domain)
        payload = serialize.sketch_to_dict(sketch)
        restored = serialize.sketch_from_dict(payload, backend="packed")
        assert restored.backend == "packed"
        assert restored.structurally_equal(sketch)

    def test_rejects_unknown_backend(self, domain):
        payload = serialize.dumps(loaded_sketch(domain))
        with pytest.raises(ParameterError):
            serialize.loads(payload, backend="flat")
