"""Per-rule fixtures: each RL rule fires on its bad fixture and stays
quiet on the corresponding good one.

Fixture paths mimic the ``src/repro/...`` layout so the engine's module
naming maps them into the package namespace the rules scope on.
"""

from __future__ import annotations

import textwrap
from typing import List, Tuple

from repro.lint import LintRunner, Severity, Violation


def run_rule(rule_id: str, *sources: Tuple[str, str]) -> List[Violation]:
    """Lint the given (path, source) pairs with exactly one rule."""
    pairs = [(path, textwrap.dedent(text)) for path, text in sources]
    return LintRunner(select=[rule_id]).run_sources(pairs)


class TestRL001UnseededRandomness:
    def test_fails_on_unseeded_module_function(self):
        violations = run_rule("RL001", (
            "src/repro/streams/demo.py",
            """
            import random

            def jitter() -> float:
                return random.random()
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL001"]

    def test_fails_on_legacy_numpy_global(self):
        violations = run_rule("RL001", (
            "src/repro/streams/demo.py",
            """
            import numpy as np

            def noise():
                return np.random.rand(4)
            """,
        ))
        assert len(violations) == 1

    def test_fails_on_constructor_without_derive_seed(self):
        violations = run_rule("RL001", (
            "src/repro/streams/demo.py",
            """
            import random

            def make_rng(seed: int) -> random.Random:
                return random.Random(seed)
            """,
        ))
        assert len(violations) == 1
        assert "derive_seed" in violations[0].message

    def test_passes_on_derive_seed_construction(self):
        violations = run_rule("RL001", (
            "src/repro/streams/demo.py",
            """
            import random

            import numpy as np

            from repro.hashing import derive_seed

            def make_rngs(seed: int):
                rng = random.Random(derive_seed(seed, "demo"))
                gen = np.random.default_rng(derive_seed(seed, "demo-np"))
                return rng, gen
            """,
        ))
        assert violations == []


class TestRL002FloatInCounterPath:
    def test_fails_on_float_literal_in_signature_module(self):
        violations = run_rule("RL002", (
            "src/repro/sketch/signature.py",
            """
            class CountSignature:
                def update(self, item: int, delta: int) -> None:
                    self.total += delta * 1.0
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL002"]

    def test_fails_on_true_division_in_dcs_update(self):
        violations = run_rule("RL002", (
            "src/repro/sketch/dcs.py",
            """
            class DistinctCountSketch:
                def update(self, source: int, dest: int, delta: int) -> None:
                    level = source / 2
            """,
        ))
        assert len(violations) == 1

    def test_passes_on_integer_arithmetic(self):
        violations = run_rule("RL002", (
            "src/repro/sketch/signature.py",
            """
            class CountSignature:
                def update(self, item: int, delta: int) -> None:
                    self.total += delta
                    self.bit_counts[item % 2] += delta
            """,
        ))
        assert violations == []

    def test_estimation_path_may_use_floats(self):
        # Floats outside the update/insert/delete hot set are legal.
        violations = run_rule("RL002", (
            "src/repro/sketch/dcs.py",
            """
            DEFAULT_EPSILON = 0.25

            class DistinctCountSketch:
                def estimate(self) -> float:
                    return self.total * 1.15
            """,
        ))
        assert violations == []


    def test_hot_path_names_are_defined_functions(self):
        # A listed name the module never defines guards nothing.
        import ast
        import importlib.util

        from repro.lint.rules import FloatInCounterPathRule

        for module, names in FloatInCounterPathRule.HOT_PATHS.items():
            if names is None:
                continue
            spec = importlib.util.find_spec(module)
            assert spec is not None and spec.origin is not None
            with open(spec.origin, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            defined = {
                node.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            assert names <= defined, (module, sorted(names - defined))


class TestRL003WallClock:
    def test_fails_on_time_time_in_sketch(self):
        violations = run_rule("RL003", (
            "src/repro/sketch/demo.py",
            """
            import time

            def stamp() -> float:
                return time.time()
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL003"]

    def test_fails_on_datetime_now(self):
        violations = run_rule("RL003", (
            "src/repro/monitor/demo.py",
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
        ))
        assert len(violations) == 1

    def test_passes_in_timing_module(self):
        violations = run_rule("RL003", (
            "src/repro/metrics/timing.py",
            """
            import time

            def sample() -> float:
                return time.perf_counter()
            """,
        ))
        assert violations == []

    def test_passes_in_checkpoint_module(self):
        # The checkpoint-duration timer sits at the disk I/O boundary,
        # outside any algorithm — explicitly allowlisted.
        violations = run_rule("RL003", (
            "src/repro/resilience/checkpoint.py",
            """
            import time

            def sample() -> float:
                return time.perf_counter()
            """,
        ))
        assert violations == []

    def test_other_resilience_modules_stay_gated(self):
        violations = run_rule("RL003", (
            "src/repro/resilience/wal.py",
            """
            import time

            def stamp() -> float:
                return time.time()
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL003"]


class TestRL004MutableDefaults:
    def test_fails_on_list_literal_default(self):
        violations = run_rule("RL004", (
            "src/repro/streams/demo.py",
            """
            def collect(items=[]):
                return items
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL004"]

    def test_fails_on_dict_call_default(self):
        violations = run_rule("RL004", (
            "src/repro/streams/demo.py",
            """
            def collect(mapping=dict()):
                return mapping
            """,
        ))
        assert len(violations) == 1

    def test_passes_on_none_sentinel(self):
        violations = run_rule("RL004", (
            "src/repro/streams/demo.py",
            """
            from typing import List, Optional

            def collect(items: Optional[List[int]] = None) -> List[int]:
                return items or []
            """,
        ))
        assert violations == []


class TestRL005PublicApiTyped:
    def test_fails_on_unannotated_export(self):
        violations = run_rule("RL005", (
            "src/repro/fake/__init__.py",
            """
            '''Fake package.'''

            __all__ = ["helper"]

            def helper(x):
                '''Documented but untyped.'''
                return x
            """,
        ))
        assert violations
        assert {v.rule_id for v in violations} == {"RL005"}

    def test_fails_on_missing_docstring_via_reexport(self):
        violations = run_rule(
            "RL005",
            (
                "src/repro/fake/__init__.py",
                """
                '''Fake package.'''

                from .impl import helper

                __all__ = ["helper"]
                """,
            ),
            (
                "src/repro/fake/impl.py",
                """
                '''Implementation module.'''

                def helper(x: int) -> int:
                    return x
                """,
            ),
        )
        assert len(violations) == 1
        assert "docstring" in violations[0].message

    def test_passes_on_typed_documented_export(self):
        violations = run_rule(
            "RL005",
            (
                "src/repro/fake/__init__.py",
                """
                '''Fake package.'''

                from .impl import helper

                __all__ = ["helper"]
                """,
            ),
            (
                "src/repro/fake/impl.py",
                """
                '''Implementation module.'''

                def helper(x: int) -> int:
                    '''Return x unchanged.'''
                    return x
                """,
            ),
        )
        assert violations == []


class TestRL006AllMatchesExports:
    def test_fails_on_unbound_name(self):
        violations = run_rule("RL006", (
            "src/repro/fake/__init__.py",
            """
            '''Fake package.'''

            from .impl import helper

            __all__ = ["helper", "phantom"]
            """,
        ))
        assert any("phantom" in v.message for v in violations)
        assert all(v.rule_id == "RL006" for v in violations)

    def test_fails_on_import_missing_from_all(self):
        violations = run_rule("RL006", (
            "src/repro/fake/__init__.py",
            """
            '''Fake package.'''

            from .impl import helper, other

            __all__ = ["helper"]
            """,
        ))
        assert any("other" in v.message for v in violations)

    def test_warns_on_unsorted_all(self):
        violations = run_rule("RL006", (
            "src/repro/fake/__init__.py",
            """
            '''Fake package.'''

            from .impl import alpha, beta

            __all__ = ["beta", "alpha"]
            """,
        ))
        unsorted = [v for v in violations if "sorted" in v.message]
        assert len(unsorted) == 1
        assert unsorted[0].severity is Severity.WARNING

    def test_passes_on_complete_sorted_all(self):
        violations = run_rule("RL006", (
            "src/repro/fake/__init__.py",
            """
            '''Fake package.'''

            from .impl import alpha, beta

            __all__ = ["alpha", "beta"]
            """,
        ))
        assert violations == []


class TestRL007OverbroadExcept:
    def test_bare_except_is_error_in_core(self):
        violations = run_rule("RL007", (
            "src/repro/sketch/demo.py",
            """
            def guarded(sketch):
                try:
                    sketch.update(1, 2, 1)
                except:
                    pass
            """,
        ))
        assert len(violations) == 1
        assert violations[0].severity is Severity.ERROR

    def test_broad_except_is_warning_outside_core(self):
        violations = run_rule("RL007", (
            "src/repro/netsim/demo.py",
            """
            def guarded(run):
                try:
                    run()
                except Exception:
                    pass
            """,
        ))
        assert len(violations) == 1
        assert violations[0].severity is Severity.WARNING

    def test_passes_on_narrow_except(self):
        violations = run_rule("RL007", (
            "src/repro/sketch/demo.py",
            """
            def guarded(heap):
                try:
                    return heap.pop()
                except KeyError:
                    return None
            """,
        ))
        assert violations == []


class TestRL008HotPathDiscipline:
    def test_fails_on_labels_call_in_marked_function(self):
        violations = run_rule("RL008", (
            "src/repro/sketch/demo.py",
            """
            class Sketch:
                def update(self, pair, delta):  # hot-path
                    self._counter.labels(op="insert").inc()
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL008"]
        assert "pre-bind" in violations[0].message

    def test_fails_on_constructor_in_loop(self):
        violations = run_rule("RL008", (
            "src/repro/sketch/demo.py",
            """
            class Sketch:
                def apply_batch(self, pairs):  # hot-path
                    for pair in pairs:
                        signature = CountSignature(32)
                        signature.update(pair, 1)
            """,
        ))
        assert len(violations) == 1
        assert "CountSignature" in violations[0].message

    def test_fails_on_container_display_in_loop(self):
        violations = run_rule("RL008", (
            "src/repro/hashing/demo.py",
            """
            def hash_many(values):  # hot-path
                out = []
                for value in values:
                    out.append([value, value + 1])
                return out
            """,
        ))
        assert len(violations) == 1
        assert "container display" in violations[0].message

    def test_marker_above_def_line_is_recognized(self):
        violations = run_rule("RL008", (
            "src/repro/sketch/demo.py",
            """
            class Sketch:
                # hot-path
                def apply_batch(self, pairs):
                    while pairs:
                        chunk = {pair: 1 for pair in pairs[:8]}
                        pairs = pairs[8:]
                        self.scatter(chunk)
            """,
        ))
        assert len(violations) == 1
        assert "comprehension" in violations[0].message

    def test_marker_on_multiline_signature_closing_line(self):
        violations = run_rule("RL008", (
            "src/repro/sketch/demo.py",
            """
            class Sketch:
                def apply_batch(
                    self, pairs, deltas
                ):  # hot-path
                    for pair in pairs:
                        self._obs.labels(level=str(pair)).inc()
            """,
        ))
        assert len(violations) == 1

    def test_unmarked_function_is_not_checked(self):
        violations = run_rule("RL008", (
            "src/repro/sketch/demo.py",
            """
            class Sketch:
                def apply_pair(self, pair, delta):
                    for j in range(3):
                        signature = CountSignature(32)
                        signature.update(pair, delta)
            """,
        ))
        assert violations == []

    def test_marked_function_outside_core_is_not_checked(self):
        violations = run_rule("RL008", (
            "src/repro/monitor/demo.py",
            """
            def rotate(epochs):  # hot-path
                for epoch in epochs:
                    epochs_by_id = {epoch.id: epoch}
            """,
        ))
        assert violations == []

    def test_allocation_free_marked_function_passes(self):
        violations = run_rule("RL008", (
            "src/repro/sketch/demo.py",
            """
            class Sketch:
                def update(self, bucket, pair_code, delta):  # hot-path
                    buf = self._buf
                    base = bucket * self.stride
                    buf[base] += delta
                    code = pair_code
                    while code:
                        low = code & -code
                        buf[base + low.bit_length()] += delta
                        code ^= low
            """,
        ))
        assert violations == []

    def test_pragma_suppresses_rl008(self):
        violations = run_rule("RL008", (
            "src/repro/sketch/demo.py",
            """
            class Sketch:
                def update(self, pair, delta):  # hot-path
                    self._counter.labels(op="x").inc()  # reprolint: disable=RL008
            """,
        ))
        assert violations == []
