#!/usr/bin/env python3
"""Docs-drift gate for the curated API reference.

Run from the repository root (CI runs it after the tests):

    PYTHONPATH=src python tools/check_api_docs.py

Checks, in order:

1. Forward: every name exported via ``__all__`` from the public
   packages is mentioned (backticked) in ``docs/api.md`` — an export
   nobody can discover from the reference is drift.
2. Reverse: the leading identifier of every backticked symbol in the
   *first column* of an api.md table is a real export of some public
   package — documentation of renamed-away names is drift too.
3. Methods: every entry point in ``REQUIRED_METHODS`` both resolves via
   ``getattr`` on its package *and* is mentioned (backticked) somewhere
   in api.md.  ``__all__`` only covers module-level names; the query
   and ingest surface lives on methods, and a new method that ships
   undocumented — or a documented method that gets renamed away — must
   fail CI just like a module-level export would.

Summary-column text is otherwise out of scope: it names keyword
arguments and minor accessors, which are documented by docstrings.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_PATH = REPO_ROOT / "docs" / "api.md"

#: The packages whose ``__all__`` defines the documented surface.
PUBLIC_MODULES = [
    "repro",
    "repro.sketch",
    "repro.hashing",
    "repro.baselines",
    "repro.streams",
    "repro.netsim",
    "repro.monitor",
    "repro.obs",
    "repro.resilience",
    "repro.analysis",
    "repro.experiments",
    "repro.metrics",
]

#: Exports the reference intentionally leaves to other docs.
IGNORED_EXPORTS: Set[str] = {
    "__version__",  # package metadata, not an API entry point
}

#: First-column identifiers that are not ``__all__`` exports but are
#: legitimate documentation anchors.
DOCUMENTED_EXTRAS: Set[str] = set()

#: Method-level public surface: ``(package, dotted path)`` pairs that
#: must resolve via ``getattr`` and be backticked in api.md.  Add a row
#: here whenever a PR grows the query/ingest surface of a documented
#: class — CI then refuses both silent removal and silent shipping.
REQUIRED_METHODS: List[Tuple[str, str]] = [
    # ingest surface
    ("repro.sketch", "DistinctCountSketch.update_batch"),
    ("repro.sketch", "DistinctCountSketch.process_stream"),
    ("repro.sketch", "DistinctCountSketch.update_encoded"),
    ("repro.sketch", "DistinctCountSketch.hash_encoded"),
    ("repro.sketch", "DistinctCountSketch.apply_hashed"),
    ("repro.sketch", "ShardedSketch.update_batch"),
    ("repro.monitor", "DDoSMonitor.observe_batch"),
    # query surface (scalar + slab decode)
    ("repro.sketch", "DistinctCountSketch.base_topk"),
    ("repro.sketch", "DistinctCountSketch.threshold_query"),
    ("repro.sketch", "DistinctCountSketch.get_dsample"),
    ("repro.sketch", "DistinctCountSketch.dsample_sweep"),
    ("repro.sketch", "TrackingDistinctCountSketch.track_topk"),
    ("repro.sketch", "TrackingDistinctCountSketch.track_threshold"),
    ("repro.sketch", "ShardedSketch.base_topk"),
    ("repro.sketch", "ShardedSketch.track_topk"),
    ("repro.sketch", "ShardedSketch.combined"),
    ("repro.sketch", "SignatureArena.decode_slab"),
    ("repro.sketch", "SignatureArena.view2d"),
    # store surface (either store runs the sketch's one body)
    ("repro.sketch", "SignatureArena.decode_levels"),
    ("repro.sketch", "SignatureArena.fold_changes"),
    ("repro.sketch", "SignatureTable.fold"),
    ("repro.sketch", "SignatureTable.drain_deltas"),
    ("repro.sketch", "SignatureTable.decode_levels"),
    ("repro.sketch", "SignatureTable.fold_changes"),
    # bulk hashing (the hash half of every packed ingest path)
    ("repro.hashing", "CarterWegmanBank.hash_many"),
    ("repro.hashing", "TabulationHash.words_many"),
    ("repro.hashing", "GeometricLevelHash.levels_many"),
    # tracked-query walk
    ("repro.sketch", "IndexedMaxHeap.top_k"),
    ("repro.sketch", "IndexedMaxHeap.ranked"),
    # packed fold surface (batch engine, merges, delta sync)
    ("repro.sketch", "SignatureArena.fold"),
    ("repro.sketch", "DistinctCountSketch.apply_bucket_deltas"),
    ("repro.sketch", "DistinctCountSketch.track_deltas"),
    ("repro.sketch", "DistinctCountSketch.drain_deltas"),
    ("repro.sketch", "DistinctCountSketch.reset_deltas"),
    # sliding-window surface (subtract-merge kernel + engine + watch)
    ("repro.sketch", "DistinctCountSketch.subtract"),
    ("repro.monitor", "SlidingWindowSketch.observe"),
    ("repro.monitor", "SlidingWindowSketch.observe_batch"),
    ("repro.monitor", "SlidingWindowSketch.observe_hashed"),
    ("repro.monitor", "SlidingWindowSketch.open_updates"),
    ("repro.monitor", "SlidingWindowSketch.window_sum"),
    ("repro.monitor", "SlidingWindowSketch.top_k"),
    ("repro.monitor", "SlidingWindowSketch.threshold"),
    ("repro.monitor", "WindowedThresholdWatch.poll"),
]

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
SPAN_RE = re.compile(r"`([^`]+)`")


def load_exports() -> Dict[str, List[str]]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    exports: Dict[str, List[str]] = {}
    for modname in PUBLIC_MODULES:
        module = importlib.import_module(modname)
        exports[modname] = list(module.__all__)
    return exports


def backticked_identifiers(text: str) -> Set[str]:
    """Every identifier appearing inside any backticked span."""
    found: Set[str] = set()
    for span in SPAN_RE.findall(text):
        found.update(IDENT_RE.findall(span))
    return found


def first_cells(text: str) -> List[str]:
    """The first column of every api.md table body row."""
    cells = []
    for line in text.splitlines():
        if not line.startswith("|") or line.startswith("|-"):
            continue
        parts = line.split("|")
        if len(parts) < 3:
            continue
        cell = parts[1].strip()
        if cell in ("symbol", "---", ""):
            continue
        cells.append(cell)
    return cells


def main() -> int:
    problems: List[str] = []
    docs_text = DOCS_PATH.read_text(encoding="utf-8")
    docs_rel = DOCS_PATH.relative_to(REPO_ROOT)
    exports = load_exports()

    # 1. forward: __all__ -> docs
    documented = backticked_identifiers(docs_text)
    for modname, names in exports.items():
        for name in names:
            if name in IGNORED_EXPORTS or name in documented:
                continue
            problems.append(
                f"{modname}.{name}: exported via __all__ but never "
                f"mentioned in {docs_rel}"
            )

    # 2. reverse: docs first cells -> __all__
    known: Set[str] = set(DOCUMENTED_EXTRAS)
    for names in exports.values():
        known.update(names)
    checked = 0
    for cell in first_cells(docs_text):
        for span in SPAN_RE.findall(cell):
            match = IDENT_RE.search(span)
            if match is None:
                continue
            checked += 1
            leading = match.group(0)
            if leading not in known:
                problems.append(
                    f"`{span}`: documented in {docs_rel} but `{leading}` "
                    f"is not exported by any public package"
                )

    # 3. methods: REQUIRED_METHODS -> getattr + docs
    for modname, dotted in REQUIRED_METHODS:
        target = importlib.import_module(modname)
        resolved = True
        for part in dotted.split("."):
            try:
                target = getattr(target, part)
            except AttributeError:
                problems.append(
                    f"{modname}.{dotted}: listed in REQUIRED_METHODS "
                    f"but does not resolve (renamed or removed?)"
                )
                resolved = False
                break
        if resolved and dotted.rsplit(".", 1)[-1] not in documented:
            problems.append(
                f"{modname}.{dotted}: public method exists but is "
                f"never mentioned in {docs_rel}"
            )

    if problems:
        for problem in problems:
            print(f"check_api_docs: {problem}")
        print(f"check_api_docs: FAILED ({len(problems)} problem(s))")
        return 1

    total = sum(len(names) for names in exports.values())
    print(
        f"check_api_docs: OK — {total} exports across "
        f"{len(exports)} packages documented, {checked} documented "
        f"symbols resolved, {len(REQUIRED_METHODS)} required methods "
        f"present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
