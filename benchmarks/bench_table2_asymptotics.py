"""Experiment E4 — Table 2: empirical verification of the asymptotics.

Table 2 states:

| quantity              | Basic DCS            | Tracking DCS       |
|-----------------------|----------------------|--------------------|
| update time           | O(log(n/d) log m)    | O(log(n/d) log^2 m)|
| query time            | O(U log^2(n/d) log^2 m / (f_vk eps^2)) | O(k log m) |

This harness measures the controllable proxies:

* update time grows ~linearly in r (the log(n/delta) knob) for both;
* BaseTopk query time grows ~linearly in s; TrackTopk does not;
* TrackTopk query time grows ~linearly in k and stays microseconds.
"""

from __future__ import annotations

import time

import pytest

from repro.sketch import (
    DistinctCountSketch,
    SketchParams,
    TrackingDistinctCountSketch,
)

from conftest import make_workload, print_table, scaled_pairs


@pytest.fixture(scope="module")
def stream(ipv4_domain):
    updates, _ = make_workload(ipv4_domain, skew=1.5, seed=17,
                               pairs=max(10_000, scaled_pairs() // 6))
    return updates


def time_updates(domain, stream, r):
    sketch = DistinctCountSketch(
        SketchParams(domain, r=r, s=128), seed=1, backend="reference"
    )
    started = time.perf_counter()
    sketch.process_stream(stream)
    return 1e6 * (time.perf_counter() - started) / len(stream)


def test_update_time_scales_with_r(benchmark, ipv4_domain, stream):
    """Update cost is Theta(r log m): doubling r ~doubles the cost."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    costs = {}
    for r in (1, 2, 4, 8):
        costs[r] = time_updates(ipv4_domain, stream, r)
        rows.append([r, f"{costs[r]:.1f}"])
    print_table("Table 2 proxy: update time vs r (us/update)",
                ["r", "us_per_update"], rows)
    # r=8 should cost noticeably more than r=1 (within generous slack:
    # per-update fixed overhead dampens perfect linearity).
    assert costs[8] > 2.5 * costs[1]
    # And monotone.
    assert costs[1] < costs[2] < costs[4] < costs[8]


def test_base_query_scales_with_s(benchmark, ipv4_domain, stream):
    """BaseTopk query time grows with s (the scan is O(r s log^2 m))."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    costs = {}
    for s in (64, 128, 256, 512):
        sketch = DistinctCountSketch(
            SketchParams(ipv4_domain, r=3, s=s), seed=2, backend="reference"
        )
        sketch.process_stream(stream)
        started = time.perf_counter()
        for _ in range(3):
            sketch.base_topk(10)
        costs[s] = 1e3 * (time.perf_counter() - started) / 3
        rows.append([s, f"{costs[s]:.2f}"])
    print_table("Table 2 proxy: BaseTopk query time vs s (ms/query)",
                ["s", "ms_per_query"], rows)
    assert costs[512] > 1.5 * costs[64]


def test_track_query_scales_with_k(benchmark, ipv4_domain, stream):
    """TrackTopk query time is O(k log m): linear-ish in k, tiny."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sketch = TrackingDistinctCountSketch(
        ipv4_domain, seed=3, backend="reference"
    )
    sketch.process_stream(stream)
    rows = []
    costs = {}
    for k in (1, 4, 16, 64):
        started = time.perf_counter()
        for _ in range(200):
            sketch.track_topk(k)
        costs[k] = 1e6 * (time.perf_counter() - started) / 200
        rows.append([k, f"{costs[k]:.1f}"])
    print_table("Table 2 proxy: TrackTopk query time vs k (us/query)",
                ["k", "us_per_query"], rows)
    assert costs[64] > costs[1]
    # The headline claim: tracking queries are micro-scale, orders of
    # magnitude below a BaseTopk scan.
    assert costs[64] < 10_000


def test_track_query_independent_of_s(benchmark, ipv4_domain, stream):
    """TrackTopk cost does not scan the table: ~flat in s."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    costs = {}
    for s in (64, 256):
        sketch = TrackingDistinctCountSketch(
            SketchParams(ipv4_domain, r=3, s=s), seed=4, backend="reference"
        )
        sketch.process_stream(stream)
        started = time.perf_counter()
        for _ in range(300):
            sketch.track_topk(5)
        costs[s] = 1e6 * (time.perf_counter() - started) / 300
        rows.append([s, f"{costs[s]:.1f}"])
    print_table("Table 2 proxy: TrackTopk query time vs s (us/query)",
                ["s", "us_per_query"], rows)
    # Quadrupling s must not even double the tracked query cost.
    assert costs[256] < 2.0 * costs[64]
