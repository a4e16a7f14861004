"""Intraprocedural dataflow for reprolint's program rules.

Three layers, each usable on its own:

1. :func:`build_cfg` — a statement-level control-flow graph of one
   function.  Every simple statement is a node; edges follow the
   Python semantics reprolint cares about (``if``/``while``/``for``
   branches and loop-back edges, ``break``/``continue``, ``try``
   bodies with conservative edges into their handlers, ``finally``
   blocks on both the normal and the exceptional route, ``return`` /
   ``raise`` edges into dedicated exit nodes).

2. :func:`solve_forward` — a worklist fixed-point solver for any
   forward analysis expressed as (initial state, transfer function,
   join).  :func:`reaching_definitions` is the classic instance: for
   every statement, which assignments of each name may reach it.

3. :class:`ValueState` / :func:`analyse_values` — the abstract
   interpretation the RL009-RL013 rules consume: every local name is
   tagged with a :class:`Kind` (lock, open handle, live RNG,
   raw-bytes-from-disk, CRC-verified bytes, ...) and every
   acquired resource with a lifecycle state (open / closed / escaped),
   joined across paths.  The rules then ask questions like "does any
   name of kind ``LOCK`` flow into this ``send()``?" or "is this
   resource still (maybe) open at an explicit ``raise`` exit?".

Everything here is pure AST analysis: no imports of the linted code,
no execution.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

# ---------------------------------------------------------------------------
# Control-flow graph
# ---------------------------------------------------------------------------

#: Node ids are dense ints; ENTRY/EXIT/RAISE are dedicated pseudo-nodes.
ENTRY = 0
EXIT = 1
RAISE_EXIT = 2
_FIRST_REAL = 3


@dataclass
class CfgNode:
    """One CFG node: a simple statement (or a pseudo entry/exit)."""

    node_id: int
    statement: Optional[ast.stmt]
    successors: List[int] = field(default_factory=list)
    #: kind of exit this node performs, if any ("return" / "raise").
    exit_kind: Optional[str] = None


class ControlFlowGraph:
    """Statement-level CFG of one function body."""

    def __init__(self, function: FunctionNode) -> None:
        self.function = function
        self.nodes: Dict[int, CfgNode] = {
            ENTRY: CfgNode(ENTRY, None),
            EXIT: CfgNode(EXIT, None),
            RAISE_EXIT: CfgNode(RAISE_EXIT, None),
        }
        self._next_id = _FIRST_REAL

    def new_node(self, statement: ast.stmt) -> int:
        """Allocate a node for one simple statement."""
        node_id = self._next_id
        self._next_id += 1
        self.nodes[node_id] = CfgNode(node_id, statement)
        return node_id

    def add_edge(self, source: int, target: int) -> None:
        """Add a directed edge (idempotent)."""
        successors = self.nodes[source].successors
        if target not in successors:
            successors.append(target)

    def predecessors(self, node_id: int) -> List[int]:
        """All nodes with an edge into ``node_id``."""
        return [
            nid
            for nid, node in self.nodes.items()
            if node_id in node.successors
        ]

    def statement_nodes(self) -> List[CfgNode]:
        """Real statement nodes in allocation (roughly source) order."""
        return [
            self.nodes[nid]
            for nid in sorted(self.nodes)
            if nid >= _FIRST_REAL
        ]


@dataclass
class _Frontier:
    """Loose ends while building: nodes whose next edge is pending."""

    dangling: List[int]
    breaks: List[int] = field(default_factory=list)
    continues: List[int] = field(default_factory=list)


def build_cfg(function: FunctionNode) -> ControlFlowGraph:
    """Build the statement-level CFG of ``function``."""
    cfg = ControlFlowGraph(function)
    frontier = _build_block(
        cfg, function.body, [ENTRY], handlers=(), loop=None
    )
    for nid in frontier.dangling:
        cfg.add_edge(nid, EXIT)
    return cfg


def _build_block(
    cfg: ControlFlowGraph,
    statements: Sequence[ast.stmt],
    incoming: List[int],
    handlers: Tuple[int, ...],
    loop: Optional[_Frontier],
) -> _Frontier:
    """Wire one statement list; returns the block's loose ends.

    ``handlers`` are the entry nodes of enclosing except-handlers: every
    statement inside a ``try`` body gets a conservative edge to each
    (any statement may raise).  ``loop`` collects break/continue nodes
    of the innermost enclosing loop.
    """
    current = list(incoming)
    result = _Frontier(dangling=[])
    for statement in statements:
        if not current:
            break  # unreachable code after return/raise/break
        if isinstance(statement, (ast.If,)):
            head = cfg.new_node(statement)
            _link(cfg, current, head, handlers)
            then = _build_block(
                cfg, statement.body, [head], handlers, loop
            )
            orelse = _build_block(
                cfg, statement.orelse, [head], handlers, loop
            ) if statement.orelse else _Frontier(dangling=[head])
            current = then.dangling + orelse.dangling
            _merge_loop_exits(result, then, orelse)
        elif isinstance(statement, (ast.While, ast.For, ast.AsyncFor)):
            head = cfg.new_node(statement)
            _link(cfg, current, head, handlers)
            inner = _Frontier(dangling=[])
            body = _build_block(
                cfg, statement.body, [head], handlers, inner
            )
            for nid in body.dangling + inner.continues:
                cfg.add_edge(nid, head)  # loop back edge
            after = [head] + inner.breaks
            if statement.orelse:
                orelse = _build_block(
                    cfg, statement.orelse, [head], handlers, loop
                )
                after = orelse.dangling + inner.breaks
            current = after
        elif isinstance(statement, ast.Try):
            handler_heads: List[int] = []
            for handler in statement.handlers:
                handler_heads.append(cfg.new_node(handler))
            try_handlers = handlers + tuple(handler_heads)
            body = _build_block(
                cfg, statement.body, current, try_handlers, loop
            )
            tails = list(body.dangling)
            if statement.orelse:
                orelse = _build_block(
                    cfg, statement.orelse, body.dangling, handlers, loop
                )
                tails = orelse.dangling
            handler_tails: List[int] = []
            for head, handler in zip(handler_heads, statement.handlers):
                caught = _build_block(
                    cfg, handler.body, [head], handlers, loop
                )
                handler_tails.extend(caught.dangling)
            current = tails + handler_tails
            if statement.finalbody:
                final = _build_block(
                    cfg, statement.finalbody, current, handlers, loop
                )
                current = final.dangling
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            head = cfg.new_node(statement)
            _link(cfg, current, head, handlers)
            body = _build_block(
                cfg, statement.body, [head], handlers, loop
            )
            current = body.dangling
        elif isinstance(statement, ast.Return):
            node = cfg.new_node(statement)
            node_obj = cfg.nodes[node]
            node_obj.exit_kind = "return"
            _link(cfg, current, node, handlers)
            cfg.add_edge(node, EXIT)
            current = []
        elif isinstance(statement, ast.Raise):
            node = cfg.new_node(statement)
            cfg.nodes[node].exit_kind = "raise"
            _link(cfg, current, node, handlers)
            cfg.add_edge(node, RAISE_EXIT)
            current = []
        elif isinstance(statement, ast.Break):
            node = cfg.new_node(statement)
            _link(cfg, current, node, handlers)
            if loop is not None:
                loop.breaks.append(node)
            current = []
        elif isinstance(statement, ast.Continue):
            node = cfg.new_node(statement)
            _link(cfg, current, node, handlers)
            if loop is not None:
                loop.continues.append(node)
            current = []
        elif isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            node = cfg.new_node(statement)
            _link(cfg, current, node, handlers)
            current = [node]
        else:
            node = cfg.new_node(statement)
            _link(cfg, current, node, handlers)
            current = [node]
    result.dangling = current
    return result


def _link(
    cfg: ControlFlowGraph,
    sources: List[int],
    target: int,
    handlers: Tuple[int, ...],
) -> None:
    """Wire ``sources`` to ``target``, plus exception edges.

    Exception edges leave from the statement *boundary* (each source),
    not from the statement node itself: if a statement raises, its
    effects — in particular a resource-acquiring binding — did not
    happen, so the handler must observe the pre-statement state.  The
    last statement of a ``try`` body needs no special casing: its
    boundary edge was added when it was wired as a target.
    """
    for source in sources:
        cfg.add_edge(source, target)
        for handler in handlers:
            cfg.add_edge(source, handler)


def _merge_loop_exits(
    result: _Frontier, *branches: _Frontier
) -> None:
    for branch in branches:
        result.breaks.extend(branch.breaks)
        result.continues.extend(branch.continues)


# ---------------------------------------------------------------------------
# Generic forward fixed-point solver
# ---------------------------------------------------------------------------

S = TypeVar("S")


def solve_forward(
    cfg: ControlFlowGraph,
    initial: S,
    bottom: S,
    transfer: Callable[[CfgNode, S], S],
    join: Callable[[S, S], S],
    equals: Callable[[S, S], bool],
) -> Dict[int, S]:
    """Run a forward dataflow analysis to fixed point.

    Returns the state *entering* each node.  ``initial`` seeds ENTRY;
    every other node starts at ``bottom``.
    """
    states: Dict[int, S] = {nid: bottom for nid in cfg.nodes}
    states[ENTRY] = initial
    # Seed with every node (ENTRY last, so it pops first): when
    # ``initial`` equals ``bottom`` no join would ever "change" a
    # successor, and a worklist seeded with ENTRY alone would never
    # visit anything.
    worklist = sorted(cfg.nodes, reverse=True)
    iterations = 0
    limit = 50 * max(1, len(cfg.nodes)) * max(1, len(cfg.nodes))
    while worklist:
        iterations += 1
        if iterations > limit:  # defensive: malformed CFG
            break
        nid = worklist.pop()
        node = cfg.nodes[nid]
        out_state = transfer(node, states[nid])
        for successor in node.successors:
            merged = join(states[successor], out_state)
            if not equals(merged, states[successor]):
                states[successor] = merged
                worklist.append(successor)
    return states


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------

#: A definition site: (name, node id of the defining statement).
Definition = Tuple[str, int]


def assigned_names(statement: ast.stmt) -> Set[str]:
    """Names (re)bound by one statement (assignment targets, loop
    variables, with-as bindings, except-as bindings, aug-assign)."""
    names: Set[str] = set()

    def target_names(target: ast.expr) -> Iterator[str]:
        for child in ast.walk(target):
            if isinstance(child, ast.Name) and isinstance(
                child.ctx, (ast.Store,)
            ):
                yield child.id

    if isinstance(statement, ast.Assign):
        for target in statement.targets:
            names.update(target_names(target))
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        names.update(target_names(statement.target))
    elif isinstance(statement, (ast.For, ast.AsyncFor)):
        names.update(target_names(statement.target))
    elif isinstance(statement, (ast.With, ast.AsyncWith)):
        for item in statement.items:
            if item.optional_vars is not None:
                names.update(target_names(item.optional_vars))
    elif isinstance(statement, ast.ExceptHandler):
        if statement.name:
            names.add(statement.name)
    elif isinstance(
        statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        names.add(statement.name)
    return names


def reaching_definitions(
    cfg: ControlFlowGraph,
) -> Dict[int, FrozenSet[Definition]]:
    """Classic reaching definitions over the CFG.

    Returns, for each node id, the set of ``(name, defining_node_id)``
    pairs that may reach the *entry* of that node.  Function parameters
    reach everything as ``(name, ENTRY)``.
    """
    args = cfg.function.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    for star in (args.vararg, args.kwarg):
        if star is not None:
            params.append(star.arg)
    initial: FrozenSet[Definition] = frozenset(
        (name, ENTRY) for name in params
    )

    def transfer(
        node: CfgNode, state: FrozenSet[Definition]
    ) -> FrozenSet[Definition]:
        if node.statement is None:
            return state
        killed = assigned_names(node.statement)
        if not killed:
            return state
        kept = {d for d in state if d[0] not in killed}
        kept.update((name, node.node_id) for name in killed)
        return frozenset(kept)

    return solve_forward(
        cfg,
        initial=initial,
        bottom=frozenset(),
        transfer=transfer,
        join=lambda a, b: a | b,
        equals=lambda a, b: a == b,
    )


# ---------------------------------------------------------------------------
# Value kinds and resource lifecycle
# ---------------------------------------------------------------------------


class Kind(enum.Enum):
    """Abstract classification of a local value."""

    OTHER = "other"
    LOCK = "lock"
    FILE = "file"
    RNG = "rng"
    CONNECTION = "connection"
    DISK_BYTES = "disk-bytes"
    CRC_CHECKED = "crc-checked-bytes"


#: Kinds that must never cross a process boundary (RL009).
UNPICKLABLE_KINDS: FrozenSet[Kind] = frozenset(
    {Kind.LOCK, Kind.FILE, Kind.RNG}
)

#: Kinds whose values own an OS resource that must be released (RL010).
RESOURCE_KINDS: FrozenSet[Kind] = frozenset(
    {Kind.FILE, Kind.CONNECTION}
)


class Resource(enum.Enum):
    """Lifecycle state of an acquired resource."""

    OPEN = "open"
    CLOSED = "closed"
    ESCAPED = "escaped"
    MAYBE_OPEN = "maybe-open"  # join of OPEN with CLOSED/ESCAPED


def _join_resource(a: Resource, b: Resource) -> Resource:
    if a is b:
        return a
    if Resource.ESCAPED in (a, b):
        # Escaping on any path transfers ownership; not our leak.
        return Resource.ESCAPED
    return Resource.MAYBE_OPEN


_LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
     "Event", "Barrier"}
)
_RNG_CONSTRUCTORS = frozenset({"Random", "default_rng", "Generator"})
_READ_METHODS = frozenset({"read_bytes", "read", "recv_bytes"})
_CLOSE_METHODS = frozenset({"close", "unlink", "shutdown", "release"})


def classify_call(node: ast.Call) -> Kind:
    """The :class:`Kind` a call expression's result has, if special."""
    parts: List[str] = []
    current: ast.AST = node.func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    if not parts:
        return Kind.OTHER
    last = parts[0]  # attribute chains were collected innermost-last
    if last in _LOCK_CONSTRUCTORS:
        return Kind.LOCK
    if last in _RNG_CONSTRUCTORS:
        return Kind.RNG
    if last == "open":
        return Kind.FILE
    if last == "socket":
        return Kind.FILE
    if last in _READ_METHODS:
        return Kind.DISK_BYTES
    return Kind.OTHER


@dataclass(frozen=True)
class Acquisition:
    """One tracked resource acquisition site."""

    name: str
    kind: Kind
    line: int
    column: int


@dataclass
class ValueState:
    """Abstract state: name -> kind, acquisition -> lifecycle.

    ``reachable`` distinguishes the solver's bottom element (a node not
    yet reached along any path) from a genuinely empty state: joining
    with bottom must be the identity, not a decay-to-OTHER.
    """

    kinds: Dict[str, Kind] = field(default_factory=dict)
    resources: Dict[Acquisition, Resource] = field(default_factory=dict)
    reachable: bool = True

    def copy(self) -> "ValueState":
        """Independent copy of this state."""
        return ValueState(
            dict(self.kinds), dict(self.resources), self.reachable
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueState):
            return NotImplemented
        return (
            self.kinds == other.kinds
            and self.resources == other.resources
            and self.reachable == other.reachable
        )


def join_states(a: ValueState, b: ValueState) -> ValueState:
    """Pointwise join: conflicting kinds decay to OTHER (but a
    CRC-checked/raw-bytes conflict stays raw — the unverified path is
    the one that matters), resources join via :func:`_join_resource`.
    Bottom (unreachable) is the identity element."""
    if not a.reachable:
        return b.copy()
    if not b.reachable:
        return a.copy()
    kinds: Dict[str, Kind] = {}
    for name in set(a.kinds) | set(b.kinds):
        ka = a.kinds.get(name, Kind.OTHER)
        kb = b.kinds.get(name, Kind.OTHER)
        if ka is kb:
            kinds[name] = ka
        elif {ka, kb} == {Kind.DISK_BYTES, Kind.CRC_CHECKED}:
            kinds[name] = Kind.DISK_BYTES
        else:
            kinds[name] = Kind.OTHER
    resources: Dict[Acquisition, Resource] = {}
    for acq in set(a.resources) | set(b.resources):
        if acq in a.resources and acq in b.resources:
            resources[acq] = _join_resource(
                a.resources[acq], b.resources[acq]
            )
        else:
            # Acquired on one path only: keep that path's state.
            resources[acq] = a.resources.get(acq) or b.resources[acq]
    return ValueState(kinds, resources)


def iter_header_nodes(statement: ast.stmt) -> Iterator[ast.AST]:
    """AST nodes of a statement's *own* expressions, excluding nested
    statement bodies.

    Compound statements (``if``, ``while``, ``for``, ``try`` handlers,
    ``with``) are CFG nodes whose ``ast.walk`` would also visit the
    statements nested inside them — but those statements have CFG nodes
    of their own, so applying their effects at the head would count
    everything twice (and smear branch-local effects onto both paths).
    """
    if isinstance(statement, (ast.If, ast.While)):
        yield from ast.walk(statement.test)
    elif isinstance(statement, (ast.For, ast.AsyncFor)):
        yield from ast.walk(statement.iter)
    elif isinstance(statement, ast.ExceptHandler):
        if statement.type is not None:
            yield from ast.walk(statement.type)
    elif isinstance(statement, (ast.With, ast.AsyncWith)):
        for item in statement.items:
            yield from ast.walk(item.context_expr)
    elif isinstance(statement, ast.Try):
        return
    elif isinstance(
        statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return
    else:
        yield from ast.walk(statement)


def _names_in(expr: ast.AST) -> Set[str]:
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


class ValueAnalysis:
    """Runs the kind/resource analysis over one function's CFG.

    After :meth:`run`, ``entry_states[nid]`` is the :class:`ValueState`
    at the *entry* of CFG node ``nid`` and :attr:`exit_leaks` lists
    ``(exit_node, acquisition)`` pairs where a tracked resource was
    (maybe) still open at an explicit ``return``/``raise`` or at
    function fall-through.
    """

    def __init__(self, function: FunctionNode) -> None:
        self.function = function
        self.cfg = build_cfg(function)
        self.entry_states: Dict[int, ValueState] = {}
        #: Interprocedural hook: ``(node_id, name) -> Acquisition``.  A
        #: rule that resolved a call (``parent, worker = self._spawn()``)
        #: to an in-project function returning fresh resources registers
        #: the acquisition here and re-runs the analysis; the transfer
        #: function applies it after the statement's own effects.
        self.interprocedural_acquisitions: Dict[
            Tuple[int, str], Acquisition
        ] = {}

    # -- transfer -----------------------------------------------------------

    def transfer(self, node: CfgNode, state: ValueState) -> ValueState:
        """Apply one statement to the abstract state."""
        statement = node.statement
        state = state.copy()
        if statement is None:
            return state
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            # with-managed resources are closed by construction; names
            # bound by `as` are OTHER/CLOSED from our perspective.
            for item in statement.items:
                if item.optional_vars is not None:
                    for name in assigned_names(statement):
                        state.kinds[name] = Kind.OTHER
            return state
        self._apply_calls(statement, state)
        if isinstance(statement, ast.Assign) and len(
            statement.targets
        ) == 1:
            self._apply_assign(
                statement.targets[0], statement.value, statement, state
            )
        elif isinstance(statement, ast.AnnAssign) and (
            statement.value is not None
        ):
            self._apply_assign(
                statement.target, statement.value, statement, state
            )
        else:
            for name in assigned_names(statement):
                state.kinds[name] = Kind.OTHER
        if self.interprocedural_acquisitions:
            for (nid, name), acquisition in (
                self.interprocedural_acquisitions.items()
            ):
                if nid == node.node_id:
                    state.kinds[name] = acquisition.kind
                    state.resources[acquisition] = Resource.OPEN
        return state

    def _apply_assign(
        self,
        target: ast.expr,
        value: ast.expr,
        statement: ast.stmt,
        state: ValueState,
    ) -> None:
        # Rebinding a name kills its old kind first.
        for name in assigned_names(statement):
            state.kinds[name] = Kind.OTHER
        if isinstance(target, ast.Name):
            if isinstance(value, ast.Call):
                kind = classify_call(value)
                state.kinds[target.id] = kind
                if kind in RESOURCE_KINDS:
                    acquisition = Acquisition(
                        target.id, kind, value.lineno, value.col_offset
                    )
                    state.resources[acquisition] = Resource.OPEN
            elif isinstance(value, ast.Name):
                state.kinds[target.id] = state.kinds.get(
                    value.id, Kind.OTHER
                )
                # Aliasing transfers ownership out of our view.
                self._mark(state, value.id, Resource.ESCAPED)
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Call):
            # `a, b = Pipe()` — both ends are connections to track.
            kind = self._tuple_call_kind(value)
            if kind is not None:
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        state.kinds[element.id] = kind
                        state.resources[
                            Acquisition(
                                element.id,
                                kind,
                                value.lineno,
                                value.col_offset,
                            )
                        ] = Resource.OPEN
        elif not isinstance(target, ast.Name):
            # Storing into self.x / container[x]: sources escape.
            for name in _names_in(value):
                self._mark(state, name, Resource.ESCAPED)

    @staticmethod
    def _tuple_call_kind(value: ast.Call) -> Optional[Kind]:
        parts: List[str] = []
        current: ast.AST = value.func
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
        if parts and parts[0] in ("Pipe", "socketpair"):
            return Kind.CONNECTION
        return None

    def _apply_calls(self, statement: ast.stmt, state: ValueState) -> None:
        for node in iter_header_nodes(statement):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                receiver = func.value.id
                if func.attr in _CLOSE_METHODS:
                    self._mark(state, receiver, Resource.CLOSED)
                    continue
            # zlib.crc32(payload) upgrades raw disk bytes.
            target_parts: List[str] = []
            current: ast.AST = func
            while isinstance(current, ast.Attribute):
                target_parts.append(current.attr)
                current = current.value
            if isinstance(current, ast.Name):
                target_parts.append(current.id)
            if target_parts and target_parts[0] == "crc32":
                for arg in node.args:
                    for name in _names_in(arg):
                        if state.kinds.get(name) is Kind.DISK_BYTES:
                            state.kinds[name] = Kind.CRC_CHECKED
                continue
            # Passing a tracked resource to any other call transfers
            # ownership (helper may close/register it) — escape.
            callee_name = target_parts[0] if target_parts else ""
            if callee_name in _CLOSE_METHODS:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for name in _names_in(arg):
                    if self._holds_resource(state, name):
                        self._mark(state, name, Resource.ESCAPED)
        # return value / yield expressions escape their names too.
        if isinstance(statement, ast.Return) and statement.value is not None:
            for name in _names_in(statement.value):
                self._mark(state, name, Resource.ESCAPED)
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, (ast.Yield, ast.YieldFrom)
        ):
            for name in _names_in(statement.value):
                self._mark(state, name, Resource.ESCAPED)

    @staticmethod
    def _holds_resource(state: ValueState, name: str) -> bool:
        return any(
            acq.name == name and resource is not Resource.CLOSED
            for acq, resource in state.resources.items()
        )

    @staticmethod
    def _mark(state: ValueState, name: str, new: Resource) -> None:
        for acq in list(state.resources):
            if acq.name == name:
                if state.resources[acq] is Resource.ESCAPED and (
                    new is Resource.CLOSED
                ):
                    continue
                state.resources[acq] = new

    # -- driving ------------------------------------------------------------

    def run(self) -> "ValueAnalysis":
        """Solve to fixed point; then inspect :attr:`entry_states`."""
        self.entry_states = solve_forward(
            self.cfg,
            initial=ValueState(),
            bottom=ValueState(reachable=False),
            transfer=self.transfer,
            join=join_states,
            equals=lambda a, b: a == b,
        )
        return self

    def state_before(self, node_id: int) -> ValueState:
        """State at the entry of one CFG node."""
        return self.entry_states.get(node_id, ValueState())

    def exit_leaks(self) -> List[Tuple[CfgNode, Acquisition]]:
        """Resources (maybe) open at explicit exits.

        Reported at ``return`` statements, explicit ``raise``
        statements, and function fall-through — NOT at implicit
        exception propagation, which nearly every statement can cause
        and which ``with`` blocks already guard in idiomatic code.
        """
        leaks: List[Tuple[CfgNode, Acquisition]] = []
        for node in self.cfg.statement_nodes():
            if node.exit_kind is None:
                continue
            state = self.transfer(node, self.state_before(node.node_id))
            for acq, resource in state.resources.items():
                if resource in (Resource.OPEN, Resource.MAYBE_OPEN):
                    leaks.append((node, acq))
        # Fall-through exit: join of all EXIT predecessors that are not
        # explicit returns.
        for pred in self.cfg.predecessors(EXIT):
            node = self.cfg.nodes[pred]
            if node.exit_kind is not None or node.statement is None:
                continue
            state = self.transfer(node, self.state_before(pred))
            for acq, resource in state.resources.items():
                if resource in (Resource.OPEN, Resource.MAYBE_OPEN):
                    leaks.append((node, acq))
        deduped: Dict[Tuple[int, Acquisition], Tuple[CfgNode, Acquisition]]
        deduped = {}
        for node, acq in leaks:
            deduped[(node.node_id, acq)] = (node, acq)
        return list(deduped.values())
