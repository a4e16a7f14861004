"""The reprolint rule catalogue (RL001-RL007).

Each rule protects one invariant of the Distinct-Count Sketch
reproduction; the class docstrings name the paper section the invariant
comes from.  ``docs/dev.md`` carries the user-facing catalogue.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from .engine import LintContext, ModuleInfo, Rule, Severity, Violation, register


def _dotted(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as a dotted string."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _contains_derive_seed(node: ast.AST) -> bool:
    """True when the expression contains a ``derive_seed(...)`` call."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            dotted = _dotted(child.func)
            if dotted is not None and dotted.split(".")[-1] == "derive_seed":
                return True
    return False


def _toplevel_docstring(node: ast.AST) -> Optional[str]:
    try:
        return ast.get_docstring(node)  # type: ignore[arg-type]
    except TypeError:
        return None


@register
class UnseededRandomnessRule(Rule):
    """RL001: every random draw must be explicitly and derivably seeded.

    Invariant (Section 3, merge linearity): sketches built on different
    routers merge bit-exactly only because every hash table derives from
    one root seed through :func:`repro.hashing.seeds.derive_seed`.
    Module-level ``random.*`` functions and the legacy ``np.random.*``
    API draw from hidden global state; ``random.Random()`` /
    ``np.random.default_rng()`` without a ``derive_seed``-derived seed
    silently decouple reruns.  Allowed: ``random.Random(derive_seed(...))``
    and ``np.random.default_rng(derive_seed(...))``.
    """

    rule_id = "RL001"
    title = "no unseeded or hidden-state randomness"
    invariant = "reproducible, mergeable hash structure (Section 3)"

    #: np.random attributes that are part of the modern Generator API.
    NP_ALLOWED: FrozenSet[str] = frozenset(
        {"Generator", "BitGenerator", "SeedSequence", "PCG64", "Philox",
         "SFC64", "MT19937", "default_rng"}
    )
    #: Constructors whose first argument must flow through derive_seed.
    SEEDED_CONSTRUCTORS: FrozenSet[str] = frozenset(
        {"random.Random", "np.random.default_rng",
         "numpy.random.default_rng"}
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Flag hidden-state draws and non-derived RNG seeds."""
        if context.in_module("repro.lint"):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from self._check_import(context, node)
            if isinstance(node, ast.Call):
                yield from self._check_call(context, node)
            elif isinstance(node, ast.Attribute):
                yield from self._check_np_attribute(context, node)

    def _check_import(
        self, context: LintContext, node: ast.ImportFrom
    ) -> Iterator[Violation]:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in ("Random", "SystemRandom"):
                    yield self.violation(
                        context, node,
                        f"importing random.{alias.name} pulls hidden global "
                        "RNG state; construct random.Random(derive_seed(...))",
                    )
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in self.NP_ALLOWED:
                    yield self.violation(
                        context, node,
                        f"importing numpy.random.{alias.name} (legacy API); "
                        "use default_rng(derive_seed(...))",
                    )

    def _check_call(
        self, context: LintContext, node: ast.Call
    ) -> Iterator[Violation]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted == "random.SystemRandom":
            yield self.violation(
                context, node,
                "random.SystemRandom draws OS entropy and can never be "
                "reproduced; use random.Random(derive_seed(...))",
            )
            return
        if dotted in self.SEEDED_CONSTRUCTORS:
            if not node.args and not node.keywords:
                yield self.violation(
                    context, node,
                    f"{dotted}() without a seed is irreproducible; pass "
                    "derive_seed(root_seed, \"label\")",
                )
            else:
                seed_expr: ast.AST = (
                    node.args[0] if node.args else node.keywords[0].value
                )
                if not _contains_derive_seed(seed_expr):
                    yield self.violation(
                        context, node,
                        f"{dotted} seed must be derived via derive_seed(...) "
                        "so sub-streams stay independent and label-stable",
                    )
            return
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2 and parts[1].islower():
            yield self.violation(
                context, node,
                f"module-level {dotted}() uses the hidden global RNG; "
                "use an explicit random.Random(derive_seed(...))",
            )

    def _check_np_attribute(
        self, context: LintContext, node: ast.Attribute
    ) -> Iterator[Violation]:
        dotted = _dotted(node)
        if dotted is None:
            return
        parts = dotted.split(".")
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] not in self.NP_ALLOWED
        ):
            yield self.violation(
                context, node,
                f"{dotted} is the legacy global-state numpy API; use "
                "np.random.default_rng(derive_seed(...))",
            )


@register
class FloatInCounterPathRule(Rule):
    """RL002: counter hot paths must stay in exact integer arithmetic.

    Invariant (Section 3, delete-resistance): a matched insert/delete
    pair must leave every count-signature counter *exactly* zero — the
    ``ReturnSingleton`` decode tests ``count == total`` with integer
    equality.  One float literal, true division, or ``float()`` call in
    the update path would introduce rounding and break singleton
    recovery and structural-equality merges.
    """

    rule_id = "RL002"
    title = "no float arithmetic in counter hot paths"
    invariant = "exact integer counters / delete-resistance (Section 3)"

    #: module -> function names forming the hot path (None = whole
    #: module).  Every name must be a function the module defines.
    HOT_PATHS: Dict[str, Optional[FrozenSet[str]]] = {
        "repro.sketch.signature": None,
        "repro.sketch.arena": None,
        "repro.sketch.dcs": frozenset(
            {"update", "insert", "delete", "process", "process_stream",
             "update_batch", "encode_batch", "update_encoded",
             "hash_encoded", "apply_hashed", "_update_pair",
             "_apply_pair", "_apply_pairs", "_apply_at", "_hash_passes",
             "_hash_pass", "_fold_blocks", "_key_runs", "_sum_runs",
             "_net_pairs", "_fold", "apply_bucket_deltas", "merge",
             "subtract", "_add_counters", "_export_rows", "drain_deltas"}
        ),
        "repro.sketch.sharded": frozenset({"route"}),
        "repro.sketch.tracking": frozenset(
            {"_apply_at", "_fold", "_add_singleton_occurrence",
             "_remove_singleton_occurrence"}
        ),
        "repro.monitor.window": frozenset(
            {"observe_hashed", "_tally", "_advance", "_expire"}
        ),
        "repro.hashing.universal": frozenset(
            {"__call__", "field_value", "hash_many", "_mod_mersenne_61"}
        ),
        "repro.hashing.tabulation": frozenset(
            {"__call__", "word", "words_many", "hash_many"}
        ),
        "repro.hashing.geometric": frozenset(
            {"__call__", "levels_many", "lsb_index"}
        ),
    }

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Flag float literals, true division, and float() in hot paths."""
        if context.module not in self.HOT_PATHS:
            return
        scoped = self.HOT_PATHS[context.module]
        if scoped is None:
            yield from self._check_scope(context, context.tree, "<module>")
            return
        for node in ast.walk(context.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in scoped
            ):
                yield from self._check_scope(context, node, node.name)

    def _check_scope(
        self, context: LintContext, scope: ast.AST, where: str
    ) -> Iterator[Violation]:
        for node in ast.walk(scope):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                yield self.violation(
                    context, node,
                    f"float literal {node.value!r} in counter hot path "
                    f"({where}); counters must stay exact integers",
                )
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            ):
                yield self.violation(
                    context, node,
                    f"true division in counter hot path ({where}) produces "
                    "floats; use // if integer division is intended",
                )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted == "float":
                    yield self.violation(
                        context, node,
                        f"float() conversion in counter hot path ({where})",
                    )


@register
class WallClockRule(Rule):
    """RL003: no wall-clock reads inside algorithm code.

    Invariant (Section 2 stream model + epoch semantics): every
    algorithmic decision is a function of the *update stream* alone, so
    replaying a trace byte-for-byte reproduces every alarm.  Wall-clock
    reads are legal only in ``repro.metrics.timing`` (measurement
    harness), ``repro.obs.trace`` (span durations) and
    ``repro.resilience.checkpoint`` (checkpoint-duration telemetry at
    the I/O boundary) — never in algorithmic state.
    """

    rule_id = "RL003"
    title = "no wall-clock reads in algorithm modules"
    invariant = "stream-determined behaviour / replayability (Section 2)"

    ALLOWED_MODULES: Tuple[str, ...] = (
        "repro.metrics.timing",
        "repro.obs.trace",
        "repro.resilience.checkpoint",
    )
    BANNED_CALLS: FrozenSet[str] = frozenset(
        {"time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
         "time.perf_counter", "time.perf_counter_ns", "time.process_time",
         "time.process_time_ns", "datetime.now", "datetime.utcnow",
         "datetime.today", "date.today", "datetime.datetime.now",
         "datetime.datetime.utcnow", "datetime.date.today"}
    )
    BANNED_TIME_IMPORTS: FrozenSet[str] = frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
         "perf_counter_ns", "process_time", "process_time_ns"}
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Flag clock reads outside the allowlisted boundary modules."""
        if context.in_module(*self.ALLOWED_MODULES) or context.in_module(
            "repro.lint"
        ):
            return
        # Measurement harnesses *are* clocks: benchmark drivers time the
        # algorithm from outside, which is exactly where wall-clock
        # reads belong.  Matched structurally (bench_* module or a
        # benchmarks/ directory), not via pragmas in every file.
        if context.module.startswith("bench_") or "benchmarks" in (
            Path(context.path).parts
        ):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in self.BANNED_CALLS:
                    yield self.violation(
                        context, node,
                        f"{dotted}() reads the wall clock; algorithm code "
                        "must be a function of the update stream (allowed "
                        "only in " + ", ".join(self.ALLOWED_MODULES) + ")",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self.BANNED_TIME_IMPORTS:
                        yield self.violation(
                            context, node,
                            f"importing time.{alias.name} into an algorithm "
                            "module invites wall-clock dependence",
                        )


@register
class MutableDefaultRule(Rule):
    """RL004: no mutable default arguments.

    Invariant (engineering): a mutable default is created once at
    function definition and shared across calls — state leaking between
    sketches or monitors would silently violate the independence the
    analysis assumes (and has bitten stream-processing code before).
    """

    rule_id = "RL004"
    title = "no mutable default arguments"
    invariant = "no shared state between independent structures"

    MUTABLE_CALLS: FrozenSet[str] = frozenset(
        {"list", "dict", "set", "bytearray", "deque", "defaultdict",
         "Counter", "OrderedDict"}
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Flag list/dict/set (literals or constructors) used as defaults."""
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        context, default,
                        f"mutable default argument in {node.name}(); default "
                        "to None and create the object inside the function",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                return dotted.split(".")[-1] in self.MUTABLE_CALLS
        return False


def _import_map(
    init_info: ModuleInfo,
) -> Dict[str, Tuple[str, str]]:
    """Map each name bound by from-imports in an ``__init__`` to its origin.

    Returns ``{bound_name: (source_module_dotted, original_name)}``.
    ``from . import sub`` maps ``sub`` to ``(package.sub, "*module*")``.
    """
    package = init_info.module
    mapping: Dict[str, Tuple[str, str]] = {}
    for node in init_info.tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level > 0:
            parts = package.split(".")
            if node.level > len(parts):
                continue
            base_parts = parts[: len(parts) - (node.level - 1)]
            base = ".".join(base_parts)
            source = base + "." + node.module if node.module else base
        else:
            source = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module is None and node.level > 0:
                mapping[bound] = (source + "." + alias.name, "*module*")
            else:
                mapping[bound] = (source, alias.name)
    return mapping


def _all_entries(tree: ast.Module) -> Optional[List[ast.Constant]]:
    """The ``__all__`` list's string constants, or None if not defined."""
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)):
                    return [
                        element
                        for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    ]
    return None


def _toplevel_bindings(tree: ast.Module) -> Set[str]:
    """Every name bound at module top level."""
    bound: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for child in ast.walk(target):
                    if isinstance(child, ast.Name):
                        bound.add(child.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.If, ast.Try)):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                    bound.add(sub.name)
    return bound


@register
class PublicApiTypedRule(Rule):
    """RL005: the public API must be fully annotated and documented.

    Invariant (engineering gate): everything a package re-exports
    through ``__all__`` in its ``__init__.py`` is a contract surface;
    mypy's strict gate on the core packages only bites if the exported
    callables actually carry annotations, and docstrings are what maps
    each export back to its paper construct.
    """

    rule_id = "RL005"
    title = "public API exports fully annotated with docstrings"
    invariant = "typed, documented contract surface for the core"
    #: re-export resolution reads *other* modules' sources, so a cached
    #: verdict is only valid while the whole project is unchanged.
    cross_file = True

    _MAX_REEXPORT_DEPTH = 5

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Resolve every ``__all__`` export and check its definition."""
        if not context.is_package_init:
            return
        entries = _all_entries(context.tree)
        if entries is None:
            return
        init_info = context.index.get(context.module)
        if init_info is None:
            return
        for entry in entries:
            name = entry.value
            if name.startswith("__") and name.endswith("__"):
                continue
            yield from self._check_export(context, entry, init_info, name, 0)

    def _check_export(
        self,
        context: LintContext,
        entry: ast.Constant,
        info: ModuleInfo,
        name: str,
        depth: int,
    ) -> Iterator[Violation]:
        if depth > self._MAX_REEXPORT_DEPTH:
            return
        definition = self._find_definition(info.tree, name)
        if definition is not None:
            yield from self._check_definition(context, entry, info, definition)
            return
        mapping = _import_map(info)
        if name not in mapping:
            return
        source_module, original = mapping[name]
        if original == "*module*":
            return  # submodule re-export: nothing to annotate
        source_info = context.index.get(source_module)
        if source_info is None:
            return  # outside the lint run (external dependency)
        yield from self._check_export(
            context, entry, source_info, original, depth + 1
        )

    @staticmethod
    def _find_definition(
        tree: ast.Module, name: str
    ) -> Optional[ast.AST]:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.name == name:
                return node
        return None

    def _check_definition(
        self,
        context: LintContext,
        entry: ast.Constant,
        info: ModuleInfo,
        definition: ast.AST,
    ) -> Iterator[Violation]:
        if isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_function(
                context, entry, info, definition, method=False
            )
        elif isinstance(definition, ast.ClassDef):
            if _toplevel_docstring(definition) is None:
                yield self.violation(
                    context, entry,
                    f"exported class {definition.name} "
                    f"({info.module}) has no docstring",
                )
            for node in definition.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "__init__"
                ):
                    yield from self._check_function(
                        context, entry, info, node, method=True,
                        owner=definition.name,
                    )

    def _check_function(
        self,
        context: LintContext,
        entry: ast.Constant,
        info: ModuleInfo,
        function: "Union[ast.FunctionDef, ast.AsyncFunctionDef]",
        method: bool,
        owner: str = "",
    ) -> Iterator[Violation]:
        label = f"{owner}.{function.name}" if owner else function.name
        if not method and _toplevel_docstring(function) is None:
            yield self.violation(
                context, entry,
                f"exported function {label} ({info.module}) has no docstring",
            )
        if function.returns is None:
            yield self.violation(
                context, entry,
                f"exported callable {label} ({info.module}) is missing a "
                "return annotation",
            )
        args = function.args
        positional = list(args.posonlyargs) + list(args.args)
        if method and positional:
            positional = positional[1:]  # drop self/cls
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                yield self.violation(
                    context, entry,
                    f"exported callable {label} ({info.module}) has "
                    f"unannotated parameter {arg.arg!r}",
                )
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                yield self.violation(
                    context, entry,
                    f"exported callable {label} ({info.module}) has "
                    f"unannotated parameter *{star.arg!r}",
                )


@register
class AllMatchesExportsRule(Rule):
    """RL006: ``__all__`` must match what the module actually exports.

    Invariant (engineering gate): mypy's ``no_implicit_reexport`` and
    every ``from repro.x import *`` consumer trust ``__all__``; a stale
    entry raises ``AttributeError`` at import-star time, a missing one
    silently hides API.  Entries must be bound, unique, and sorted, and
    an ``__init__.py``'s public from-imports must all be listed.
    """

    rule_id = "RL006"
    title = "__all__ must match actual module exports"
    invariant = "truthful re-export surface (no_implicit_reexport)"

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Cross-check ``__all__`` against the module's real bindings."""
        entries = _all_entries(context.tree)
        if entries is None:
            if context.is_package_init and any(
                isinstance(node, ast.ImportFrom)
                for node in context.tree.body
            ):
                yield self.violation(
                    context, context.tree.body[0]
                    if context.tree.body else context.tree,
                    "package __init__ re-exports names but defines no "
                    "__all__",
                )
            return
        bound = _toplevel_bindings(context.tree)
        names = [entry.value for entry in entries]
        seen: Set[str] = set()
        for entry in entries:
            if entry.value in seen:
                yield self.violation(
                    context, entry,
                    f"duplicate __all__ entry {entry.value!r}",
                )
            seen.add(entry.value)
            if entry.value not in bound and entry.value != "__version__":
                yield self.violation(
                    context, entry,
                    f"__all__ lists {entry.value!r} but the module does not "
                    "bind it",
                )
        if names != sorted(names):
            yield self.violation(
                context, entries[0],
                "__all__ is not sorted; keep it sorted so diffs stay "
                "reviewable",
                severity=Severity.WARNING,
            )
        if context.is_package_init:
            listed = set(names)
            for node in context.tree.body:
                if not isinstance(node, ast.ImportFrom):
                    continue
                for alias in node.names:
                    bound_name = alias.asname or alias.name
                    if bound_name.startswith("_"):
                        continue
                    if bound_name not in listed:
                        yield self.violation(
                            context, node,
                            f"__init__ imports {bound_name!r} but __all__ "
                            "does not list it (add it or alias with a "
                            "leading underscore)",
                        )


@register
class OverbroadExceptRule(Rule):
    """RL007: no bare or overbroad ``except`` in the sketch core.

    Invariant (Section 3/4 correctness): the sketch update and query
    paths must never swallow a counter-arithmetic error — a silently
    corrupted signature poisons every later singleton decode and merge.
    ``except:``/``except Exception`` in ``repro.sketch`` or
    ``repro.hashing`` is an error; elsewhere it is a warning.
    """

    rule_id = "RL007"
    title = "no bare/overbroad except in sketch update/query paths"
    invariant = "counter errors must surface, not be swallowed (Section 3)"

    CORE_MODULES: Tuple[str, ...] = ("repro.sketch", "repro.hashing")
    BROAD: FrozenSet[str] = frozenset({"Exception", "BaseException"})

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Flag handlers that catch everything."""
        in_core = context.in_module(*self.CORE_MODULES)
        severity = Severity.ERROR if in_core else Severity.WARNING
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    context, node,
                    "bare except swallows every error including "
                    "KeyboardInterrupt; catch the specific ReproError "
                    "subclass",
                    severity=severity,
                )
                continue
            broad = self._broad_names(node.type)
            for name in broad:
                yield self.violation(
                    context, node,
                    f"except {name} is overbroad here; catch the specific "
                    "exception type so counter corruption surfaces",
                    severity=severity,
                )

    def _broad_names(self, node: ast.expr) -> List[str]:
        candidates = (
            list(node.elts) if isinstance(node, ast.Tuple) else [node]
        )
        found: List[str] = []
        for candidate in candidates:
            dotted = _dotted(candidate)
            if dotted is not None and dotted.split(".")[-1] in self.BROAD:
                found.append(dotted)
        return found


@register
class HotPathDisciplineRule(Rule):
    """RL008: functions marked ``# hot-path`` must stay allocation-lean.

    Invariant (Section 3 performance claim): the sketch's ``O(r log m)``
    per-update cost only holds in practice if the update path does no
    per-item heap allocation and no metric-child lookup.  A function in
    ``repro.sketch`` / ``repro.hashing`` carrying a ``# hot-path``
    marker (on its ``def`` line, its signature's closing line, or the
    line directly above) promises exactly that; this rule enforces the
    promise:

    * no ``.labels(...)`` calls anywhere in the function — metric
      children must be pre-bound at construction time;
    * no container displays (``[...]``/``{...}``), comprehensions, or
      CamelCase constructor calls inside a loop — per-item objects on
      the update path are the overhead the packed arenas exist to
      remove.

    Functions without the marker (e.g. the reference backend's
    per-update path, which deliberately materializes
    ``CountSignature`` objects) are not checked.
    """

    rule_id = "RL008"
    title = "hot-path functions: no labels() calls, no per-item allocation"
    invariant = "O(r log m) update cost without allocation churn (Section 3)"

    CORE_MODULES: Tuple[str, ...] = ("repro.sketch", "repro.hashing")
    MARKER = "# hot-path"

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Check every ``# hot-path``-marked function in core modules."""
        if not context.in_module(*self.CORE_MODULES):
            return
        lines = context.source.splitlines()
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_marked(node, lines):
                    yield from self._check_function(context, node)

    def _is_marked(
        self,
        node: "Union[ast.FunctionDef, ast.AsyncFunctionDef]",
        lines: List[str],
    ) -> bool:
        """Marker on the line above ``def`` or any signature line."""
        if not node.body:
            return False
        start = max(0, node.lineno - 2)
        end = min(len(lines), node.body[0].lineno - 1)
        if end <= start:
            end = min(len(lines), start + 1)
        return any(
            self.MARKER in line for line in lines[start:end]
        )

    def _check_function(
        self,
        context: LintContext,
        function: "Union[ast.FunctionDef, ast.AsyncFunctionDef]",
    ) -> Iterator[Violation]:
        seen: Set[Tuple[int, int]] = set()
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "labels"
            ):
                key = (node.lineno, node.col_offset)
                if key not in seen:
                    seen.add(key)
                    yield self.violation(
                        context, node,
                        f".labels() lookup inside hot-path function "
                        f"{function.name}(); pre-bind the metric child at "
                        "construction time",
                    )
        for loop in ast.walk(function):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in ast.walk(loop):
                if node is loop:
                    continue
                what = self._allocation(node)
                if what is None:
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield self.violation(
                    context, node,
                    f"{what} inside a loop of hot-path function "
                    f"{function.name}(); hoist it out of the loop or "
                    "restructure to reuse one object",
                )

    @staticmethod
    def _allocation(node: ast.AST) -> Optional[str]:
        """Name the per-item allocation ``node`` performs, if any."""
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return "container display"
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return "comprehension"
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                name = dotted.split(".")[-1]
                if name[:1].isupper() and not name.isupper():
                    return f"constructor call {name}()"
        return None
