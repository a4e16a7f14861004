"""Experiment E13 — sensitivity to transport imperfections.

NetFlow export rides UDP, so the monitor's input stream suffers loss,
duplication, and reordering.  This harness sweeps each imperfection
and measures its effect on top-k accuracy over a churned workload
(40% of flows complete, i.e. deletions matter):

* reordering: provably harmless (order invariance) — accuracy flat;
* duplication: harmless to *distinct* counts on insert-only pairs, but
  a duplicated insert whose single deletion arrives leaves net +1 —
  mild phantom inflation as the rate grows;
* loss: the real threat — lost deletions leave phantom half-open
  flows, lost insertions drive counts negative; accuracy decays with
  the loss rate, motivating windowed state that forgets phantoms
  (:class:`~repro.monitor.SlidingWindowSketch`).
"""

from __future__ import annotations

import pytest

from repro.baselines import ExactDistinctTracker
from repro.metrics import top_k_recall
from repro.sketch import TrackingDistinctCountSketch
from repro.streams import (
    Channel,
    with_matched_deletions,
)
from repro.types import AddressDomain

from conftest import make_workload, print_table, scaled_pairs

K = 5


@pytest.fixture(scope="module")
def churned_workload(ipv4_domain):
    updates, _ = make_workload(ipv4_domain, skew=1.5, seed=81,
                               pairs=max(15_000, scaled_pairs() // 4))
    churned = with_matched_deletions(updates, rate=0.4, seed=82)
    exact = ExactDistinctTracker()
    exact.process_stream(churned)
    return churned, exact.frequencies()


def recall_through(domain, updates, truth, channel):
    delivered = channel.transmit(updates)
    sketch = TrackingDistinctCountSketch(domain, seed=83)
    # Deliveries may contain delete-before-insert after loss; the
    # sketch is defined on arbitrary streams, so feed it directly.
    sketch.process_stream(delivered)
    result = sketch.track_topk(K)
    return top_k_recall(truth, result.destinations, K)


def test_reordering_is_harmless(benchmark, ipv4_domain,
                                churned_workload):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    updates, truth = churned_workload
    rows = []
    recalls = {}
    for window in (0, 100, 10_000):
        channel = Channel(reorder_window=window, seed=window + 1)
        recalls[window] = recall_through(ipv4_domain, updates, truth,
                                         channel)
        rows.append([window, f"{recalls[window]:.2f}"])
    print_table("E13a: recall vs reorder window",
                ["reorder_window", f"recall@{K}"], rows)
    assert recalls[10_000] == recalls[0]


def test_duplication_degrades_mildly(benchmark, ipv4_domain,
                                     churned_workload):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    updates, truth = churned_workload
    rows = []
    recalls = {}
    for rate in (0.0, 0.1, 0.3):
        channel = Channel(duplicate_rate=rate, seed=7)
        recalls[rate] = recall_through(ipv4_domain, updates, truth,
                                       channel)
        rows.append([rate, f"{recalls[rate]:.2f}"])
    print_table("E13b: recall vs duplication rate",
                ["duplicate_rate", f"recall@{K}"], rows)
    # Mild effect: phantom multiplicity does not change distinct
    # counting of surviving pairs; the top-k should stay usable.
    assert recalls[0.3] >= recalls[0.0] - 0.4


def test_loss_decays_accuracy(benchmark, ipv4_domain, churned_workload):
    """Loss keeps *rankings* (uniform thinning) but skews *estimates*.

    Ranks survive because loss thins every destination's frequency by
    the same factor; the estimates themselves drift away from the true
    (lossless) frequencies — which matters the moment an absolute
    threshold (tau, alarm floor) is in play.
    """
    from repro.metrics import average_relative_error

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    updates, truth = churned_workload
    rows = []
    recalls = {}
    errors = {}
    for rate in (0.0, 0.05, 0.2, 0.5):
        channel = Channel(loss_rate=rate, seed=9)
        delivered = channel.transmit(updates)
        sketch = TrackingDistinctCountSketch(ipv4_domain, seed=83)
        sketch.process_stream(delivered)
        result = sketch.track_topk(K)
        recalls[rate] = top_k_recall(truth, result.destinations, K)
        errors[rate] = average_relative_error(truth, result.as_dict(), K)
        rows.append([rate, f"{recalls[rate]:.2f}",
                     f"{errors[rate]:.3f}"])
    print_table(
        "E13c: recall and estimate error vs loss rate",
        ["loss_rate", f"recall@{K}", "avg_rel_error vs lossless truth"],
        rows,
    )
    assert recalls[0.0] >= 0.6
    # Rankings are robust to uniform thinning...
    assert recalls[0.5] <= recalls[0.0] + 0.2
    # ...but the estimates drift: heavy loss at least doubles the error
    # relative to the clean channel.
    assert errors[0.5] >= min(2 * errors[0.0], errors[0.0] + 0.2)
