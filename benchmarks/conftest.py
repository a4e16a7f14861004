"""Shared helpers for the benchmark/experiment harness.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md section 4 for the experiment index).  Experiments run at a
scaled-down size by default — the paper's testbed used U up to 16e6
pairs, which pure Python processes at ~30 us/update — and honour the
``REPRO_SCALE`` environment variable (e.g. ``REPRO_SCALE=10`` runs 10x
larger workloads; ``REPRO_SCALE=50`` approaches paper scale).

The paper's workload kept U/d = 8e6 / 5e4 = 160 distinct sources per
destination on average; the scaled workloads preserve that ratio.

The micro-benches share three helpers: :func:`env_float` reads a
``REPRO_BENCH_*`` setting, :func:`write_result` writes a bench's JSON
result, and :func:`best_seconds` times the variants of a comparison
best-of-N in alternating rounds.
"""

from __future__ import annotations

import json
import os
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import pytest

from repro.streams import ZipfWorkload
from repro.types import AddressDomain, FlowUpdate

#: The paper's default ratio of distinct pairs to destinations.
PAPER_U_OVER_D = 160

#: Baseline scaled-down U (the paper used 8e6).
BASE_DISTINCT_PAIRS = 120_000


def scale_factor() -> float:
    """Workload scale multiplier from the REPRO_SCALE env var."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def scaled_pairs(base: int = BASE_DISTINCT_PAIRS) -> int:
    """The U to use for the current run."""
    return max(1000, int(base * scale_factor()))


@pytest.fixture(scope="session")
def ipv4_domain() -> AddressDomain:
    return AddressDomain(2 ** 32)


@pytest.fixture()
def obs_registry():
    """A fresh observability registry, one per test.

    Benchmarks that want the instrumented variant of a component pass
    this as its ``obs=`` argument; a fresh registry per test keeps
    pull-gauge callbacks from leaking across benchmark cases.
    """
    from repro.obs import Registry

    return Registry()


def env_float(name: str, default: float) -> float:
    """A float bench setting: the env var ``name``, else ``default``."""
    return float(os.environ.get(name, default))


def write_result(
    env_name: str, default_path: str, payload: Dict[str, Any]
) -> str:
    """Write a bench's JSON result to the path in env var ``env_name``
    (else ``default_path``); returns the path written."""
    path = os.environ.get(env_name, default_path)
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def best_seconds(
    variants: Mapping[str, Callable[[], object]],
    repeats: int,
    inner: Optional[Mapping[str, int]] = None,
) -> Dict[str, float]:
    """Best-of-``repeats`` mean seconds per call of each variant.

    Each round times every variant once, in turn, over ``inner[name]``
    back-to-back calls (default 1), so a slow spell on a loaded host
    lands on every variant of the comparison rather than on one
    variant's repeats.
    """
    best: Dict[str, float] = {}
    for _ in range(repeats):
        for name, run in variants.items():
            calls = inner[name] if inner else 1
            start = time.perf_counter()
            for _ in range(calls):
                run()
            elapsed = (time.perf_counter() - start) / calls
            best[name] = min(elapsed, best.get(name, elapsed))
    return best


def make_workload(
    domain: AddressDomain,
    skew: float,
    seed: int,
    pairs: int = 0,
) -> Tuple[List[FlowUpdate], Dict[int, int]]:
    """Build a paper-style Zipf workload; returns (updates, truth)."""
    u = pairs or scaled_pairs()
    d = max(10, u // PAPER_U_OVER_D)
    workload = ZipfWorkload(
        domain, distinct_pairs=u, destinations=d, skew=skew, seed=seed
    )
    return workload.updates(), workload.frequencies()


def print_table(title: str, header: Sequence[str],
                rows: Sequence[Sequence[object]]) -> None:
    """Print one paper-style result table to the bench output."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])),
            max((len(str(row[i])) for row in rows), default=0))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
