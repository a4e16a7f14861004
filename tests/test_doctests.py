"""Run the executable examples embedded in docstrings and the README.

Docstring examples rot unless executed; this module doctests every
library module that carries ``>>>`` examples — plus the README's
quickstart snippets — so the documented snippets stay correct.
"""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

import repro.baselines.exact
import repro.hashing.seeds
import repro.monitor.monitor
import repro.monitor.portscan
import repro.monitor.window
import repro.netsim.addresses
import repro.obs
import repro.obs.export
import repro.obs.registry
import repro.resilience.durable
import repro.sketch.dcs
import repro.sketch.tracking
import repro.types

MODULES = [
    repro.baselines.exact,
    repro.hashing.seeds,
    repro.monitor.monitor,
    repro.monitor.portscan,
    repro.monitor.window,
    repro.netsim.addresses,
    repro.obs,
    repro.obs.export,
    repro.obs.registry,
    repro.resilience.durable,
    repro.sketch.dcs,
    repro.sketch.tracking,
    repro.types,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[module.__name__ for module in MODULES]
)
def test_module_doctests(module):
    # Examples may reference common library names without importing
    # them inside the snippet; provide them as doctest globals.
    from repro.types import AddressDomain, FlowUpdate

    results = doctest.testmod(
        module,
        extraglobs={
            "AddressDomain": AddressDomain,
            "FlowUpdate": FlowUpdate,
        },
        verbose=False,
    )
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module.__name__}"
    )
    assert results.attempted > 0, (
        f"expected at least one doctest in {module.__name__}"
    )


def test_readme_doctests():
    """The README's ``>>>`` examples must run exactly as printed."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    results = doctest.testfile(str(readme), module_relative=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in README.md"
    )
    assert results.attempted > 0, "expected README doctests to run"


def test_windowing_doctests():
    """docs/windowing.md's worked session must run exactly as printed."""
    chapter = (
        Path(__file__).resolve().parent.parent / "docs" / "windowing.md"
    )
    results = doctest.testfile(str(chapter), module_relative=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in docs/windowing.md"
    )
    assert results.attempted > 0, "expected windowing doctests to run"
