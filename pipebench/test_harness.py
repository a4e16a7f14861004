"""Self-tests of the benchmark harness: ``python3 -m pytest pipebench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import pipelines  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentiles --------------------------------------------------------------


def test_percentile_refuses_without_ten_samples_beyond() -> None:
    with pytest.raises(layers.TooFewSamples):
        layers.percentile(list(range(999)), 99.0)
    with pytest.raises(layers.TooFewSamples):
        layers.percentile(list(range(99)), 90.0)
    with pytest.raises(layers.TooFewSamples):
        layers.percentile(list(range(19)), 50.0)
    assert layers.percentile(list(range(1000)), 99.0) == 989
    assert layers.percentile_or_zero(list(range(1, 100)), 90.0) == 0.0
    assert layers.percentile_or_zero(list(range(1, 101)), 90.0) == 90.0


def test_percentile_is_nearest_rank() -> None:
    samples = list(range(1, 1001))
    assert layers.percentile(samples, 99.0) == 990
    assert layers.percentile(samples[::-1], 50.0) == 500


def test_interquartile_mean_drops_a_quarter_at_each_end() -> None:
    assert layers.interquartile_mean([1, 2, 3]) == 2
    assert layers.interquartile_mean([100, 1, 2, 3, 4, 5, 6, 7, -50]) == 4
    assert layers.interquartile_mean([5.0] * 20) == 5.0
    with pytest.raises(ValueError):
        layers.interquartile_mean([])


# -- host-speed scaling -------------------------------------------------------

REF = hostspeed.REFERENCE_PROBE_NS


def test_host_speed_scaling_cancels_a_slower_host() -> None:
    # The host runs at half speed for cycles 30-69: the cycles and the
    # probes next to them both take twice as long.
    slow = range(30, 70)
    cycles = [2000 if i in slow else 1000 for i in range(100)]
    probes = [2 * REF if i in slow else REF for i in range(100)]
    assert hostspeed.scale(cycles, [probes]) == [1000.0] * 100
    assert hostspeed.factor([[2 * REF] * 9]) == 0.5


def test_host_speed_scaling_keeps_a_slower_program() -> None:
    # The program slows down; the probes do not.
    assert hostspeed.scale([2000] * 50, [[REF] * 50]) == [2000.0] * 50
    with pytest.raises(ValueError):
        hostspeed.scale([1000] * 3, [[REF] * 2])
    with pytest.raises(ValueError):
        hostspeed.scale([1000] * 3, [])


def test_the_slowest_vcpu_sets_the_pace() -> None:
    # Two vCPUs probed: the second runs at half speed for a stretch.
    fast = [REF] * 60
    mixed = [2 * REF if 20 <= i < 40 else REF for i in range(60)]
    assert hostspeed.pace([fast, mixed]) == [float(p) for p in mixed]
    cycles = [2000 if 20 <= i < 40 else 1000 for i in range(60)]
    assert hostspeed.scale(cycles, [fast, mixed]) == [1000.0] * 60
    assert hostspeed.factor([[REF] * 9, [2 * REF] * 9]) == 0.5


def test_local_medians_use_each_neighbourhood() -> None:
    assert hostspeed.local_medians([5, 1, 9, 3], 1) == [3.0, 5.0, 3.0, 6.0]


def test_probe_does_fixed_work() -> None:
    assert hostspeed.probe() == hostspeed.probe()


# -- self-time arithmetic -----------------------------------------------------


def _span(
    span_id: int, parent: int, name: str, start: int, end: int, pid: int = 1
) -> Dict[str, Any]:
    return {
        "name": name, "id": span_id, "parent": parent, "pid": pid,
        "start_ns": start, "dur_ns": end - start,
    }


def _tree() -> List[Dict[str, Any]]:
    return [
        _span(1, 0, "bench.cycle", 0, 100),
        _span(2, 1, "bench.monitor.observe_batch", 10, 90),
        _span(3, 2, "sketch.update_batch", 20, 60),
        _span(4, 3, "sketch.hash_bulk", 25, 30),
        _span(5, 3, "sketch.scatter", 30, 55),
        # Unnamed spans take the layer of their nearest named ancestor.
        _span(6, 5, "sketch.future_span", 40, 45),
        _span(7, 2, "bench.monitor.check_now", 60, 85),
        _span(8, 7, "bench.sketch.track_topk", 62, 80),
    ]


def test_self_times_subtract_covered_child_time() -> None:
    own = layers.self_times(_tree())
    assert own[(1, 1)] == 100 - 80
    assert own[(1, 2)] == 80 - 40 - 25
    assert own[(1, 3)] == 40 - 5 - 25
    assert own[(1, 5)] == 25 - 5
    assert own[(1, 7)] == 25 - 18


def test_overlapping_and_overhanging_children_count_once() -> None:
    spans = [
        _span(1, 0, "bench.cycle", 0, 100),
        _span(2, 1, "sketch.hash_bulk", 10, 40),
        _span(3, 1, "sketch.scatter", 30, 60),
        _span(4, 1, "sketch.scatter", 90, 120),
    ]
    assert layers.self_times(spans)[(1, 1)] == 100 - 50 - 10


def test_layers_and_other_partition_the_wall() -> None:
    wall = 120
    m = layers.attribute(_tree(), wall)
    assert m["monitor.ingest_busy_s"] == pytest.approx(15e-9)
    assert m["monitor.check_busy_s"] == pytest.approx(7e-9)
    assert m["sketch.ingest_busy_s"] == pytest.approx((10 + 5 + 25) * 1e-9)
    assert m["sketch.scatter_s"] == pytest.approx(25e-9)
    assert m["sketch.topk_busy_s"] == pytest.approx(18e-9)
    assert m[layers.OTHER] == pytest.approx(40e-9)
    total = sum(m[name] for name in layers.LAYER_SPANS) + m[layers.OTHER]
    assert total == pytest.approx(wall * 1e-9)


def test_spans_outside_every_cycle_are_other() -> None:
    # A drain of the shard workers' spans between two cycles.
    drain = _span(9, 0, "sharded.pipe_recv", 100, 110)
    spans = layers.in_cycles(_tree() + [drain])
    assert drain not in spans and len(spans) == len(_tree())
    m = layers.attribute(spans, 120)
    assert m["sharded.sync_wait_s"] == 0
    assert m[layers.OTHER] == pytest.approx(40e-9)


def test_worker_spans_stay_out_of_the_parent_tree() -> None:
    spans = _tree() + [_span(1, 0, "worker.ingest", 0, 50, pid=2)]
    own = layers.self_times(spans)
    assert own[(1, 1)] == 20
    assert own[(2, 1)] == 50


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(workloads.PARAMS))
def test_one_seed_gives_identical_inputs(family: str) -> None:
    first = workloads.generate(family, 7, "tiny")
    second = workloads.generate(family, 7, "tiny")
    assert first.digest() == second.digest()
    for name, column in first.columns.items():
        assert np.array_equal(column, second.columns[name])
    assert first.first_attack == second.first_attack
    assert workloads.generate(family, 8, "tiny").digest() != first.digest()


@pytest.mark.parametrize("family", sorted(workloads.PARAMS))
def test_ground_truth_comes_before_and_after_the_prefix(family: str) -> None:
    inputs = workloads.generate(family, 3, "tiny")
    assert inputs.victims and set(inputs.first_attack) == set(inputs.victims)
    assert inputs.flash not in inputs.victims
    assert 0 < inputs.prefix < inputs.events


def test_cached_inputs_round_trip(tmp_path: Path) -> None:
    inputs = workloads.load_or_generate("carpet", 4, "tiny", tmp_path)
    again = workloads.load_or_generate("carpet", 4, "tiny", tmp_path)
    assert inputs.digest() == again.digest()
    assert inputs.digest() == workloads.generate("carpet", 4, "tiny").digest()


# -- the benchmark's contract -------------------------------------------------


def test_workloads_match_benchmark_json() -> None:
    declared = [item["name"] for item in BENCHMARK["workloads"]]
    assert sorted(declared) == sorted(pipelines.SPECS)


def _tiny_run(workload: str, trace: int) -> Dict[str, Any]:
    """One tiny-size run through the command BENCHMARK.json declares."""
    completed = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _time_under_layer_entry_points(workload: str) -> float:
    """Seconds spent inside the spans directly under each ``bench.cycle``
    root of the tiny run's saved trace, worked out from the raw spans
    rather than by :func:`layers.attribute`.  Time outside them (the
    roots' own time and the gaps between cycles) is ``bench.other_s``."""
    path = ROOT / ".pipebench" / "traces" / f"{workload}-tiny-1.json"
    spans = json.loads(path.read_text())
    roots = {
        (span["pid"], span["id"])
        for span in spans
        if span["name"] == layers.CYCLE
    }
    children = [
        span for span in spans if (span["pid"], span["parent"]) in roots
    ]
    layer_spans = {
        name for names in layers.LAYER_SPANS.values() for name in names
    }
    assert roots and children
    assert {span["name"] for span in children} <= layer_spans
    return sum(span["dur_ns"] for span in children) / 1e9


@pytest.mark.parametrize("workload", sorted(pipelines.SPECS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_the_declared_metrics(
    workload: str, trace: int
) -> None:
    result = _tiny_run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    if trace:
        m = {
            name: metric["value"]
            for name, metric in result["metrics"].items()
        }
        wall = m["bench.traced_wall_s"]
        under_layers = _time_under_layer_entry_points(workload)
        assert m[layers.OTHER] == pytest.approx(wall - under_layers)
        attributed = sum(m[name] for name in layers.LAYER_SPANS)
        assert attributed == pytest.approx(under_layers)
    else:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] > 0
