"""Whole-program rules RL009-RL013: process, resource, durability.

These rules consume the :mod:`repro.lint.project` symbol table / call
graph and the :mod:`repro.lint.dataflow` abstract interpretation.  Each
protects an invariant that PR 3 (multiprocess sharding) and PR 4
(WAL + checkpoints) introduced and that no per-file AST rule can see:

* **RL009** — nothing unpicklable crosses a process boundary;
* **RL010** — acquired OS resources reach ``close()``/``unlink()`` on
  every explicit path;
* **RL011** — atomic writes follow write→flush→fsync→rename→dirsync,
  and disk bytes are CRC-verified before deserialization;
* **RL012** — supervision-critical exceptions are never swallowed;
* **RL013** — ``# linear``-marked functions stay exactly linear.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from .dataflow import (
    Acquisition,
    Kind,
    UNPICKLABLE_KINDS,
    ValueAnalysis,
    ValueState,
    classify_call,
    iter_header_nodes,
)
from .engine import LintContext, Rule, Severity, Violation, register
from .project import FunctionSymbol, ProjectIndex

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


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


def _iter_functions(tree: ast.Module) -> Iterator[FunctionNode]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _marker_present(
    node: FunctionNode, lines: List[str], marker: str
) -> bool:
    """Marker on the line above ``def`` or any signature line."""
    if not node.body:
        return False
    start = max(0, node.lineno - 2)
    end = min(len(lines), node.body[0].lineno - 1)
    if end <= start:
        end = min(len(lines), start + 1)
    return any(marker in line for line in lines[start:end])


def _free_names(function: FunctionNode) -> Set[str]:
    """Names a nested function reads but does not bind (closure vars)."""
    bound: Set[str] = set()
    args = function.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        bound.add(arg.arg)
    for star in (args.vararg, args.kwarg):
        if star is not None:
            bound.add(star.arg)
    loaded: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
    return loaded - bound


class ProgramRule(Rule):
    """Base for rules that need the whole-program index."""

    requires_project = True
    cross_file = True

    def analyses(
        self, context: LintContext
    ) -> Iterator[Tuple[FunctionNode, ValueAnalysis]]:
        """One solved :class:`ValueAnalysis` per function in the module."""
        for function in _iter_functions(context.tree):
            yield function, ValueAnalysis(function).run()


@register
class ProcessBoundaryRule(ProgramRule):
    """RL009: nothing unpicklable crosses a process boundary.

    Invariant (Section 3 merge linearity, PR 3 sharding): a worker's
    sketch merges bit-exactly only because everything that reaches it
    travels as plain data.  A lock, open handle, or live RNG object
    shipped through ``Connection.send`` or captured into a spawn target
    either fails to pickle at runtime (spawn) or silently *diverges*
    after fork (a forked RNG replays the parent's stream; a forked lock
    deadlocks).  This rule tracks value kinds through each function and
    flags banned kinds at ``send(...)`` / ``Process(...)`` sites, plus
    lambda targets and closures over banned values.
    """

    rule_id = "RL009"
    title = "no unpicklable state across process boundaries"
    invariant = "workers receive plain data only (Section 3 linearity)"

    SEND_METHODS: FrozenSet[str] = frozenset({"send", "put"})
    SPAWN_CALLS: FrozenSet[str] = frozenset({"Process", "Pool"})

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Flag banned kinds at send/spawn sites in every function."""
        if context.in_module("repro.lint"):
            return
        for function, analysis in self.analyses(context):
            yield from self._check_function(context, function, analysis)

    def _check_function(
        self,
        context: LintContext,
        function: FunctionNode,
        analysis: ValueAnalysis,
    ) -> Iterator[Violation]:
        nested = {
            child.name: child
            for child in ast.walk(function)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not function
        }
        for cfg_node in analysis.cfg.statement_nodes():
            statement = cfg_node.statement
            if statement is None:
                continue
            state = analysis.state_before(cfg_node.node_id)
            for call in iter_header_nodes(statement):
                if not isinstance(call, ast.Call):
                    continue
                yield from self._check_send(context, call, state)
                yield from self._check_spawn(
                    context, call, state, nested, function
                )

    def _banned_kind(
        self, expr: ast.expr, state: ValueState
    ) -> Optional[Tuple[str, Kind]]:
        """A (name, kind) in ``expr`` that must not cross the boundary."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                kind = state.kinds.get(node.id, Kind.OTHER)
                if kind in UNPICKLABLE_KINDS:
                    return node.id, kind
            elif isinstance(node, ast.Call):
                kind = classify_call(node)
                if kind in UNPICKLABLE_KINDS:
                    return _dotted(node.func) or "<call>", kind
        return None

    def _check_send(
        self, context: LintContext, call: ast.Call, state: ValueState
    ) -> Iterator[Violation]:
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in self.SEND_METHODS
        ):
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            banned = self._banned_kind(arg, state)
            if banned is not None:
                name, kind = banned
                yield self.violation(
                    context, call,
                    f"{name!r} ({kind.value}) is sent across a process "
                    f"boundary via .{func.attr}(); ship plain data "
                    "(ints, strs, bytes, tuples) instead",
                )

    def _check_spawn(
        self,
        context: LintContext,
        call: ast.Call,
        state: ValueState,
        nested: Dict[str, FunctionNode],
        enclosing: FunctionNode,
    ) -> Iterator[Violation]:
        dotted = _dotted(call.func)
        if dotted is None or dotted.split(".")[-1] not in self.SPAWN_CALLS:
            return
        target: Optional[ast.expr] = None
        spawn_args: List[ast.expr] = []
        for keyword in call.keywords:
            if keyword.arg == "target":
                target = keyword.value
            elif keyword.arg == "args":
                spawn_args.append(keyword.value)
        for arg in spawn_args:
            banned = self._banned_kind(arg, state)
            if banned is not None:
                name, kind = banned
                yield self.violation(
                    context, call,
                    f"{name!r} ({kind.value}) passed as a worker spawn "
                    "argument cannot cross the process boundary; pass "
                    "plain data and reconstruct it in the worker",
                )
        if isinstance(target, ast.Lambda):
            yield self.violation(
                context, call,
                "lambda as a worker target is unpicklable under spawn "
                "and hides its captures; use a module-level function",
            )
        elif isinstance(target, ast.Name) and target.id in nested:
            for free in sorted(_free_names(nested[target.id])):
                kind = state.kinds.get(free, Kind.OTHER)
                if kind in UNPICKLABLE_KINDS:
                    yield self.violation(
                        context, call,
                        f"worker target {target.id!r} closes over "
                        f"{free!r} ({kind.value}); a closure-captured "
                        "lock/handle/RNG diverges or deadlocks after "
                        "fork — pass plain data through args=",
                    )


@register
class ResourceLifecycleRule(ProgramRule):
    """RL010: acquired resources must be released on every path.

    Invariant (PR 3/PR 4 operational correctness): a leaked pipe end
    keeps a dead worker's buffers alive, a leaked WAL segment handle
    defeats ``os.replace`` durability on Windows.  Every ``open()`` /
    ``Pipe()`` acquisition bound to a local must reach ``close()`` /
    ``unlink()`` or a ``with`` block on **all** explicit paths —
    including the ``raise`` inside an except handler that converts the
    error, the classic spot where cleanup is forgotten.  Escaping values (returned,
    stored on ``self``, passed to a callee) transfer ownership and are
    not flagged.
    """

    rule_id = "RL010"
    title = "resource acquisitions reach close()/unlink() on all paths"
    invariant = "no leaked handles/segments across crash-recovery paths"

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Flag (maybe-)open resources at explicit function exits."""
        if context.in_module("repro.lint"):
            return
        project = context.project
        for function, analysis in self.analyses(context):
            if project is not None:
                self._apply_return_summaries(context, project, analysis)
            for cfg_node, acquisition in analysis.exit_leaks():
                where = (
                    "raise"
                    if cfg_node.exit_kind == "raise"
                    else (cfg_node.exit_kind or "fall-through")
                )
                anchor = cfg_node.statement or function
                yield self.violation(
                    context, anchor,
                    f"{acquisition.name!r} ({acquisition.kind.value}, "
                    f"acquired at line {acquisition.line}) may still be "
                    f"open at this {where} exit of {function.name}(); "
                    "close it on this path or manage it with a `with` "
                    "block",
                )

    def _apply_return_summaries(
        self,
        context: LintContext,
        project: ProjectIndex,
        analysis: ValueAnalysis,
    ) -> None:
        """Interprocedural step: a call to an in-project function that
        *returns* fresh resources counts as an acquisition here.

        This is what lets the rule see through a private ``_spawn()``
        helper that opens a pipe and hands both ends back.
        """
        function = analysis.function
        owner = self._owner_of(context, function)
        reruns = False
        for cfg_node in analysis.cfg.statement_nodes():
            statement = cfg_node.statement
            if not isinstance(statement, ast.Assign):
                continue
            if len(statement.targets) != 1 or not isinstance(
                statement.value, ast.Call
            ):
                continue
            dotted = _dotted(statement.value.func)
            if dotted is None:
                continue
            symbol = project.resolve_call(context.module, owner, dotted)
            if symbol is None:
                continue
            kinds = _returned_resource_kinds(project, symbol)
            if not kinds:
                continue
            target = statement.targets[0]
            names: List[Optional[str]] = []
            if isinstance(target, ast.Name):
                names = [target.id]
            elif isinstance(target, ast.Tuple):
                names = [
                    element.id if isinstance(element, ast.Name) else None
                    for element in target.elts
                ]
            call = statement.value
            for position, name in enumerate(names):
                if name is None:
                    continue
                kind = kinds.get(position)
                if kind is None:
                    continue
                analysis.interprocedural_acquisitions[
                    (cfg_node.node_id, name)
                ] = Acquisition(name, kind, call.lineno, call.col_offset)
                reruns = True
        if reruns:
            analysis.run()

    @staticmethod
    def _owner_of(context: LintContext, function: FunctionNode) -> str:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                if function in node.body:
                    return node.name
        return ""


def _returned_resource_kinds(
    project: ProjectIndex, symbol: FunctionSymbol
) -> Dict[int, Kind]:
    """Per-tuple-position resource kinds a function's returns carry.

    ``{0: CONNECTION}`` means the first element of the returned tuple
    (or the sole return value) is a freshly acquired resource on at
    least one return path.  Summaries are cached on the per-run
    :class:`ProjectIndex`, keyed by qualname, so they cannot go stale
    across runs.
    """
    cache: Dict[str, Dict[int, Kind]] = getattr(
        project, "_return_summaries", {}
    )
    if not hasattr(project, "_return_summaries"):
        project._return_summaries = cache  # type: ignore[attr-defined]
    cached = cache.get(symbol.qualname)
    if cached is not None:
        return cached
    analysis = ValueAnalysis(symbol.node).run()
    kinds: Dict[int, Kind] = {}
    from .dataflow import RESOURCE_KINDS

    for cfg_node in analysis.cfg.statement_nodes():
        statement = cfg_node.statement
        if not isinstance(statement, ast.Return) or statement.value is None:
            continue
        state = analysis.state_before(cfg_node.node_id)
        elements: List[ast.expr]
        if isinstance(statement.value, ast.Tuple):
            elements = list(statement.value.elts)
        else:
            elements = [statement.value]
        for position, element in enumerate(elements):
            if isinstance(element, ast.Name):
                kind = state.kinds.get(element.id, Kind.OTHER)
                if kind in RESOURCE_KINDS:
                    kinds[position] = kind
    cache[symbol.qualname] = kinds
    return kinds


@register
class DurabilityProtocolRule(ProgramRule):
    """RL011: atomic writes and checkpoint reads follow the protocol.

    Invariant (PR 4 crash-safety): recovery is *exact* only if (a) an
    atomic-write site performs write → flush → fsync → ``os.replace``
    → **directory fsync** — without the file fsync the rename can
    publish an empty file after power loss, and without the directory
    fsync the rename itself may vanish; and (b) bytes read back from
    disk are CRC-verified before deserialization — a torn checkpoint
    must fall back to an older generation, not poison the sketch.
    """

    rule_id = "RL011"
    title = "atomic writes fsync before+after rename; reads CRC-verify"
    invariant = "exact recovery after power loss (PR 4 protocol)"

    RENAME_CALLS: FrozenSet[str] = frozenset(
        {"os.replace", "os.rename", "replace", "rename"}
    )
    LOADS_CALLS: FrozenSet[str] = frozenset({"loads", "load"})

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Check every function containing a rename or a loads call."""
        if context.in_module("repro.lint"):
            return
        for function, analysis in self.analyses(context):
            yield from self._check_atomic_write(context, function)
            yield from self._check_crc(context, function, analysis)

    # -- (a) write → flush → fsync → rename → dirsync -----------------------

    def _call_events(
        self, context: LintContext, function: FunctionNode, depth: int = 1
    ) -> List[Tuple[str, int]]:
        """(dotted_call, line) events in the function, inlining direct
        in-project callees one level deep (so an ``_fsync_write``-style
        helper satisfies the protocol at its call site)."""
        events: List[Tuple[str, int]] = []
        project = context.project
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            events.append((dotted, node.lineno))
            if depth > 0 and project is not None:
                owner = ResourceLifecycleRule._owner_of(context, function)
                symbol = project.resolve_call(
                    context.module, owner, dotted
                )
                if symbol is not None and symbol.node is not function:
                    events.extend(
                        (inner, node.lineno)
                        for inner, _ in self._call_events(
                            context, symbol.node, depth - 1
                        )
                    )
        return sorted(events, key=lambda event: event[1])

    def _check_atomic_write(
        self, context: LintContext, function: FunctionNode
    ) -> Iterator[Violation]:
        events = None
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted not in ("os.replace", "os.rename"):
                continue
            if events is None:
                events = self._call_events(context, function)
            line = node.lineno
            flush_before = any(
                name.split(".")[-1] == "flush" and at <= line
                for name, at in events
            )
            fsync_before = any(
                name.split(".")[-1] == "fsync" and at <= line
                for name, at in events
            )
            writes_before = any(
                name.split(".")[-1] in ("write", "writelines")
                and at <= line
                for name, at in events
            )
            fsync_after = any(
                name.split(".")[-1] in ("fsync", "fsync_dir", "fdatasync")
                and at > line
                for name, at in events
            )
            if writes_before and not (flush_before and fsync_before):
                yield self.violation(
                    context, node,
                    f"{dotted}() publishes a file written in this "
                    "function without flush+fsync first; after power "
                    "loss the rename can expose an empty or torn file",
                )
            if writes_before and not fsync_after:
                yield self.violation(
                    context, node,
                    f"{dotted}() is not followed by a directory fsync; "
                    "the rename itself is not durable until the parent "
                    "directory entry is synced (fsync an O_RDONLY fd of "
                    "the directory after the rename)",
                )

    # -- (b) CRC-verify before deserializing --------------------------------

    def _check_crc(
        self,
        context: LintContext,
        function: FunctionNode,
        analysis: ValueAnalysis,
    ) -> Iterator[Violation]:
        for cfg_node in analysis.cfg.statement_nodes():
            statement = cfg_node.statement
            if statement is None:
                continue
            state = analysis.state_before(cfg_node.node_id)
            for call in iter_header_nodes(statement):
                if not isinstance(call, ast.Call):
                    continue
                dotted = _dotted(call.func)
                if (
                    dotted is None
                    or dotted.split(".")[-1] not in self.LOADS_CALLS
                ):
                    continue
                for arg in call.args:
                    if isinstance(arg, ast.Name):
                        if state.kinds.get(arg.id) is Kind.DISK_BYTES:
                            yield self.violation(
                                context, call,
                                f"{dotted}({arg.id}) deserializes bytes "
                                "read from disk without a CRC check; "
                                "verify zlib.crc32 against the manifest "
                                "first so torn checkpoints fall back "
                                "instead of poisoning state",
                            )
                    elif isinstance(arg, ast.Call):
                        if classify_call(arg) is Kind.DISK_BYTES:
                            yield self.violation(
                                context, call,
                                f"{dotted}() deserializes raw disk bytes "
                                "inline; read, CRC-verify, then "
                                "deserialize",
                            )


@register
class ExceptionIntegrityRule(ProgramRule):
    """RL012: supervision-critical exceptions are never swallowed.

    Invariant (PR 4 recovery): ``WorkerDied`` and ``WalCorruption`` are
    the *only* signals that a shard's synopsis diverged from the
    stream; a handler that catches one and does nothing turns exact
    recovery into silent data loss.  ``BrokenPipeError`` /
    ``PoolUnavailable`` may be swallowed only inside best-effort
    teardown functions (close/cleanup/shutdown), where the process is
    already on its way out.
    """

    rule_id = "RL012"
    title = "WorkerDied/WalCorruption handled or re-raised, never dropped"
    invariant = "worker death must trigger recovery, not silence (PR 4)"

    CRITICAL: FrozenSet[str] = frozenset({"WorkerDied", "WalCorruption"})
    TEARDOWN_ONLY: FrozenSet[str] = frozenset(
        {"BrokenPipeError", "PoolUnavailable"}
    )
    TEARDOWN_MARKERS: Tuple[str, ...] = (
        "close", "cleanup", "shutdown", "teardown", "__del__", "__exit__",
        "stop",
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Flag pass-only handlers and suppress() of critical types."""
        for function in _iter_functions(context.tree):
            teardown = any(
                marker in function.name.lower()
                for marker in self.TEARDOWN_MARKERS
            )
            for node in ast.walk(function):
                if isinstance(node, ast.ExceptHandler):
                    yield from self._check_handler(context, node, teardown)
                elif isinstance(node, ast.Call):
                    yield from self._check_suppress(context, node, teardown)

    def _caught_names(self, handler: ast.ExceptHandler) -> List[str]:
        if handler.type is None:
            return []
        types = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names = []
        for expr in types:
            dotted = _dotted(expr)
            if dotted is not None:
                names.append(dotted.split(".")[-1])
        return names

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        """True when the handler body does nothing observable."""
        body = list(handler.body)
        if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant
        ) and isinstance(body[0].value.value, str):
            body = body[1:]  # docstring-style comment
        return all(
            isinstance(statement, ast.Pass)
            or (
                isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
            )
            for statement in body
        )

    def _check_handler(
        self,
        context: LintContext,
        handler: ast.ExceptHandler,
        teardown: bool,
    ) -> Iterator[Violation]:
        if not self._swallows(handler):
            return
        for name in self._caught_names(handler):
            if name in self.CRITICAL:
                yield self.violation(
                    context, handler,
                    f"except {name}: pass swallows a supervision-"
                    "critical failure; respawn/recover the shard or "
                    "re-raise so the supervisor can",
                )
            elif name in self.TEARDOWN_ONLY and not teardown:
                yield self.violation(
                    context, handler,
                    f"except {name}: pass outside a teardown function "
                    "hides a dead worker; handle it (recover/degrade) "
                    "or re-raise",
                )

    def _check_suppress(
        self, context: LintContext, call: ast.Call, teardown: bool
    ) -> Iterator[Violation]:
        dotted = _dotted(call.func)
        if dotted is None or dotted.split(".")[-1] != "suppress":
            return
        for arg in call.args:
            name = (_dotted(arg) or "").split(".")[-1]
            if name in self.CRITICAL or (
                name in self.TEARDOWN_ONLY and not teardown
            ):
                yield self.violation(
                    context, call,
                    f"contextlib.suppress({name}) silences a "
                    "supervision-critical failure; handle it explicitly",
                )


@register
class LinearityGuardRule(ProgramRule):
    """RL013: ``# linear``-marked functions stay exactly linear.

    Invariant (Section 3): merge, subtract, and delta propagation are
    correct *because* the sketch is a linear map over integer counter
    vectors — ``sketch(A) + sketch(B) = sketch(A ⊎ B)`` exactly.  One
    float (rounding), one truncation (``int()``, ``//``, ``round``),
    or one sign-dependent branch (``if count > 0``) inside such a
    function breaks exactness silently: merges stop being associative
    and WAL-replay recovery stops being bit-identical.  The marker is a
    promise; this rule enforces it, in the marked function and — via
    the call graph — in its resolved in-project callees.
    """

    rule_id = "RL013"
    title = "# linear functions: no floats, truncation, or sign branches"
    invariant = "merge/subtract exactness: sketch(A)+sketch(B)=sketch(A⊎B)"

    MARKER = "# linear"
    TRUNCATING_CALLS: FrozenSet[str] = frozenset(
        {"int", "round", "trunc", "floor", "ceil", "float"}
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        """Check every ``# linear``-marked function (and its callees)."""
        lines = context.source.splitlines()
        marked = [
            function
            for function in _iter_functions(context.tree)
            if _marker_present(function, lines, self.MARKER)
        ]
        if not marked:
            return
        marked_names = {function.name for function in marked}
        for function in marked:
            yield from self._check_body(context, function, function.name)
            yield from self._check_callees(
                context, function, marked_names
            )

    def _check_body(
        self, context: LintContext, function: FunctionNode, label: str
    ) -> Iterator[Violation]:
        for node in ast.walk(function):
            if node is function:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Constant) and isinstance(
                node.value, float
            ):
                yield self.violation(
                    context, node,
                    f"float literal {node.value!r} in # linear function "
                    f"{label}(); linearity requires exact integers",
                )
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and (
                isinstance(node.op, (ast.Div, ast.FloorDiv))
            ):
                kind = (
                    "true division"
                    if isinstance(node.op, ast.Div)
                    else "floor division (truncation)"
                )
                yield self.violation(
                    context, node,
                    f"{kind} in # linear function {label}(); "
                    "merge/subtract must add counters, never scale or "
                    "truncate them",
                )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is not None and (
                    dotted.split(".")[-1] in self.TRUNCATING_CALLS
                ):
                    yield self.violation(
                        context, node,
                        f"{dotted}() in # linear function {label}() "
                        "truncates or converts counters; linear paths "
                        "must keep exact integer values",
                    )
            elif isinstance(node, (ast.If, ast.While)):
                yield from self._check_sign_branch(
                    context, node.test, label
                )
            elif isinstance(node, ast.IfExp):
                yield from self._check_sign_branch(
                    context, node.test, label
                )

    def _check_sign_branch(
        self, context: LintContext, test: ast.expr, label: str
    ) -> Iterator[Violation]:
        """Sign comparisons (``x > 0``) in branch conditions.

        Zero/equality tests (``x == 0``, ``x != 0``) are fine — skipping
        a zero delta preserves linearity; *ordering* against zero is
        what leaks sign information into control flow.  Comparisons of
        call results (``len(xs) > 0``) are structural, not counter
        sign, and are allowed.
        """
        for node in ast.walk(test):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(
                node.ops, operands, operands[1:]
            ):
                if not isinstance(op, (ast.Lt, ast.Gt, ast.LtE, ast.GtE)):
                    continue
                for value, other in ((left, right), (right, left)):
                    if (
                        isinstance(value, ast.Constant)
                        and value.value == 0
                        and isinstance(
                            other,
                            (ast.Name, ast.Attribute, ast.Subscript),
                        )
                    ):
                        yield self.violation(
                            context, node,
                            "branch on counter sign in # linear "
                            f"function {label}(); sign-dependent "
                            "control flow breaks merge associativity "
                            "(handle negatives by arithmetic, not "
                            "branching)",
                        )
                        break

    def _check_callees(
        self,
        context: LintContext,
        function: FunctionNode,
        marked_names: Set[str],
    ) -> Iterator[Violation]:
        """Float/division leaks one call level down, at the call site."""
        project = context.project
        if project is None:
            return
        owner = ResourceLifecycleRule._owner_of(context, function)
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            symbol = project.resolve_call(context.module, owner, dotted)
            if symbol is None or symbol.node is function:
                continue
            if symbol.name in marked_names:
                continue  # checked under its own marker
            callee_lines = self._symbol_lines(context, symbol)
            if callee_lines is not None and _marker_present(
                symbol.node, callee_lines, self.MARKER
            ):
                continue
            for inner in ast.walk(symbol.node):
                if isinstance(inner, ast.Constant) and isinstance(
                    inner.value, float
                ):
                    yield self.violation(
                        context, node,
                        f"# linear function {function.name}() calls "
                        f"{symbol.qualname}(), which contains float "
                        f"arithmetic (line {inner.lineno}); mark the "
                        "callee # linear and fix it, or keep it off "
                        "the linear path",
                    )
                    break
                if isinstance(inner, (ast.BinOp, ast.AugAssign)) and (
                    isinstance(inner.op, ast.Div)
                ):
                    yield self.violation(
                        context, node,
                        f"# linear function {function.name}() calls "
                        f"{symbol.qualname}(), which performs true "
                        f"division (line {inner.lineno}); linearity "
                        "does not survive the call",
                    )
                    break

    @staticmethod
    def _symbol_lines(
        context: LintContext, symbol: FunctionSymbol
    ) -> Optional[List[str]]:
        if symbol.module == context.module:
            return context.source.splitlines()
        if context.project is None:
            return None
        module_symbols = context.project.module(symbol.module)
        if module_symbols is None:
            return None
        info = context.index.get(symbol.module)
        if info is None:
            return None
        return info.source.splitlines()
