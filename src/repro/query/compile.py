"""Compile a parsed query program into a vectorized operator plan.

The compiler lowers the AST into a flat, topologically ordered list of
:class:`PlanNode`\\ s — the operator DAG.  Lowering does real work:

* **name resolution** — a :class:`~repro.query.parser.Ref` is another
  definition in the program (its DAG is shared, not duplicated) or,
  failing that, a *source signal*;
* **cycle detection** — definitions may reference each other in any
  order, but a reference cycle (``a = b; b = a``) is a compile error;
* **constant folding** — any all-constant subexpression collapses to a
  literal (folded with the same numpy scalar ops the runtime uses, so
  ``x / 0`` and ``x / (1 - 1)`` behave identically);
* **parameter extraction** — operator parameters (filter alpha, window
  and resample periods, trigger level) must fold to constants and are
  validated here, not at run time;
* **hash-consing** — structurally identical subexpressions become one
  shared node, so ``ewma(q, .9) - (q - ewma(q, .9))`` computes the
  filter once;
* **fusion** — a binary op with one constant side becomes a single
  elementwise map node; only signal-with-signal ops need the
  time-aligning join operator.

After lowering, a second **fusion pass** (:func:`fuse_plan`) collapses
maximal chains of elementwise and simple stateful operators (``map1``,
``maps``, ``clip``, ``ewma``, ``rate``, ``delta``) into single
``fused`` nodes executed in one pass per batch by
:mod:`repro.query.kernels` — generated C through the
:mod:`repro.core.native` seam, or the original per-operator numpy
chain as the always-on fallback and oracle.  Fusion never crosses a *barrier* (``source``, ``join``,
``window``, ``resample``, ``edges``): those operators change the
timeline or need cross-input alignment and always keep their own
nodes.  A node consumed by more than one downstream operator, or
published as an output, ends its chain — its emission is shared.
``REPRO_NATIVE=0`` disables the pass entirely, restoring the pure
per-operator numpy plan; fusion choice never changes output bytes.

The :class:`Plan` is immutable and stateless; each execution
(incremental or batch) instantiates fresh operator state from it via
:class:`~repro.query.ops.Runtime`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

import repro.query.kernels as kernels
from repro.core import native
from repro.core.aggregate import AggregateKind
from repro.core.cells import OBS_PREFIX, is_reserved
from repro.core.trigger import Edge
from repro.query.errors import QueryCompileError
from repro.query.ops import BINARY_FNS
from repro.query.parser import (
    Binary,
    Call,
    Expr,
    Num,
    Program,
    Ref,
    Unary,
    parse,
)

#: Binary-operator names the runtime's elementwise table understands.
ARITH_OPS = ("add", "sub", "mul", "div", "min", "max")
CMP_OPS = ("lt", "le", "gt", "ge", "eq", "ne")

#: The seven windowed aggregates, mapped onto Section 4.2's kinds.
WINDOW_FUNCS = {
    "sum_over": AggregateKind.SUM,
    "min_over": AggregateKind.MINIMUM,
    "max_over": AggregateKind.MAXIMUM,
    "avg_over": AggregateKind.AVERAGE,
    "rate_over": AggregateKind.RATE,
    "events_over": AggregateKind.EVENTS,
    "any_over": AggregateKind.ANY_EVENT,
}

_EDGE_KINDS = {"rising": Edge.RISING, "falling": Edge.FALLING, "either": Edge.EITHER}


@dataclass(frozen=True)
class PlanNode:
    """One operator in the compiled DAG.

    ``op`` selects the operator class (see :mod:`repro.query.ops`),
    ``params`` carries its compile-time constants, and ``inputs`` are
    upstream node ids.  Nodes are listed in topological order, so an
    input id is always smaller than the node's own id.
    """

    id: int
    op: str
    params: Tuple
    inputs: Tuple[int, ...]


@dataclass(frozen=True)
class Plan:
    """A compiled, stateless operator DAG.

    ``sources`` maps each required input signal name to its source node;
    ``outputs`` maps each derived-signal name to the node whose emissions
    it publishes.  Definitions whose names start with ``_`` are
    intermediates: shared inside the DAG but not published.
    """

    nodes: Tuple[PlanNode, ...]
    sources: Dict[str, int]
    outputs: Dict[str, int]
    text: str

    @property
    def source_names(self) -> List[str]:
        """Required input signals, in first-reference order."""
        return list(self.sources)

    @property
    def output_names(self) -> List[str]:
        """Published derived signals, in definition order."""
        return list(self.outputs)

    def explain(self) -> str:
        """Human-readable plan listing (``python -m repro query --explain``).

        Shows every node, its inputs, and — for ``fused`` nodes — the
        collapsed operator chain and which backend will execute it.
        """
        source_of = {node_id: name for name, node_id in self.sources.items()}
        outputs_of: Dict[int, List[str]] = {}
        for name, node_id in self.outputs.items():
            outputs_of.setdefault(node_id, []).append(name)
        lines = [
            f"plan: {len(self.nodes)} node(s), backend={native.mode()}, "
            f"fusion={'on' if any(n.op == 'fused' for n in self.nodes) else 'off'}"
        ]
        for node in self.nodes:
            if node.op == "source":
                desc = f"source {source_of.get(node.id, node.params[0])!r}"
            elif node.op == "fused":
                steps = node.params[0]
                chain = " | ".join(_step_text(op, params) for op, params in steps)
                kernel = kernels.get_fused(steps)
                backend = kernel.backend if kernel is not None else "numpy"
                desc = f"fused[{backend}] {chain}"
            else:
                desc = _step_text(node.op, node.params)
            arrow = (
                " <- " + ", ".join(f"n{i}" for i in node.inputs)
                if node.inputs
                else ""
            )
            names = outputs_of.get(node.id)
            suffix = f"   => {', '.join(names)}" if names else ""
            lines.append(f"  n{node.id}: {desc}{arrow}{suffix}")
        return "\n".join(lines)


#: Compile-time value: a folded constant or a DAG node id.
_Value = Union[float, int]


class _Const(float):
    """Marker type so a folded constant is distinguishable from an id."""


def _numpy_fold(op: str, a: float, b: float) -> float:
    """Fold a constant binary op with the runtime's own numpy semantics."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(BINARY_FNS[op](np.float64(a), np.float64(b)))


class _Compiler:
    def __init__(self, program: Program, default_name: str) -> None:
        self.program = program
        self.default_name = default_name
        self.nodes: List[PlanNode] = []
        self.sources: Dict[str, int] = {}
        self.outputs: Dict[str, int] = {}
        self._memo: Dict[Tuple, int] = {}  # hash-consing: structure -> id
        self._defs: Dict[str, Expr] = {}
        self._def_value: Dict[str, _Value] = {}
        self._building: List[str] = []  # definition DFS stack for cycles

    # -- node construction --------------------------------------------
    def _node(self, op: str, params: Tuple, inputs: Tuple[int, ...]) -> int:
        key = (op, params, inputs)
        found = self._memo.get(key)
        if found is not None:
            return found
        node = PlanNode(id=len(self.nodes), op=op, params=params, inputs=inputs)
        self.nodes.append(node)
        self._memo[key] = node.id
        return node.id

    def _source(self, name: str) -> int:
        node_id = self.sources.get(name)
        if node_id is None:
            node_id = self._node("source", (name,), ())
            self.sources[name] = node_id
        return node_id

    # -- program ------------------------------------------------------
    def compile(self) -> Plan:
        anonymous = 0
        ordered: List[str] = []
        for stmt in self.program.stmts:
            name = stmt.name
            if name is None:
                anonymous += 1
                if anonymous > 1:
                    raise QueryCompileError(
                        "a program may hold at most one anonymous expression; "
                        "name the others (e.g. 'load = ewma(cpu, 0.9)')"
                    )
                name = self.default_name
            if is_reserved(name):
                # Reading `__obs.*` sources is the point of the obs
                # plane; *defining* into it is forbidden — a definition
                # resolves def-first, shadowing the live telemetry
                # signal, and a published output would feed derived
                # values back into the reserved namespace the publisher
                # owns (a self-loop).
                raise QueryCompileError(
                    f"derived signal {name!r} lands in the reserved "
                    f"{OBS_PREFIX!r} namespace; queries may read "
                    f"{OBS_PREFIX}* signals but never define them"
                )
            if name in self._defs:
                raise QueryCompileError(f"duplicate definition of {name!r}")
            self._defs[name] = stmt.expr
            ordered.append(name)
        for name in ordered:
            value = self._resolve_def(name)
            if name.startswith("_"):
                continue  # intermediate: shared in the DAG, not published
            if isinstance(value, _Const):
                raise QueryCompileError(
                    f"derived signal {name!r} is a constant ({float(value)}); "
                    "a query must read at least one signal"
                )
            self.outputs[name] = value
        if not self.outputs:
            raise QueryCompileError(
                "query publishes nothing: every definition is an "
                "underscore-prefixed intermediate"
            )
        # Note: an output can never shadow one of its own sources — every
        # definition name (the anonymous one included) resolves def-first,
        # so `rate(query)` under default name "query" is caught as the
        # cycle `query -> query` rather than silently looping a live tap.
        return Plan(
            nodes=tuple(self.nodes),
            sources=self.sources,
            outputs=self.outputs,
            text=self.program.text,
        )

    def _resolve_def(self, name: str) -> _Value:
        cached = self._def_value.get(name)
        if cached is not None:
            return cached
        if name in self._building:
            chain = " -> ".join(self._building[self._building.index(name):] + [name])
            raise QueryCompileError(f"cyclic definition: {chain}")
        self._building.append(name)
        try:
            value = self._build(self._defs[name])
        finally:
            self._building.pop()
        self._def_value[name] = value
        return value

    # -- expressions ---------------------------------------------------
    def _build(self, expr: Expr) -> _Value:
        if isinstance(expr, Num):
            return _Const(expr.value)
        if isinstance(expr, Ref):
            if expr.name in self._defs:
                return self._resolve_def(expr.name)
            return self._source(expr.name)
        if isinstance(expr, Unary):
            operand = self._build(expr.operand)
            if isinstance(operand, _Const):
                return _Const(-float(operand))
            return self._node("map1", ("neg",), (operand,))
        if isinstance(expr, Binary):
            return self._binary(expr.op, expr.left, expr.right)
        if isinstance(expr, Call):
            return self._call(expr)
        raise QueryCompileError(f"unhandled expression node: {expr!r}")

    def _binary(self, op: str, left_expr: Expr, right_expr: Expr) -> _Value:
        left = self._build(left_expr)
        right = self._build(right_expr)
        if isinstance(left, _Const) and isinstance(right, _Const):
            return _Const(_numpy_fold(op, float(left), float(right)))
        if isinstance(right, _Const):
            return self._node("maps", (op, float(right), False), (left,))
        if isinstance(left, _Const):
            return self._node("maps", (op, float(left), True), (right,))
        return self._node("join", (op,), (left, right))

    # -- function calls ------------------------------------------------
    def _call(self, call: Call) -> _Value:
        name, args = call.func, call.args
        builder = _FUNCTIONS.get(name)
        if builder is None:
            raise QueryCompileError(
                f"unknown function {name!r} (available: "
                f"{', '.join(sorted(_FUNCTIONS))})"
            )
        return builder(self, call)

    def _arity(self, call: Call, low: int, high: Optional[int] = None) -> None:
        high = low if high is None else high
        n = len(call.args)
        if not low <= n <= high:
            want = str(low) if low == high else f"{low}-{high}"
            raise QueryCompileError(
                f"{call.func}() takes {want} argument(s), got {n}"
            )

    def _stream_arg(self, call: Call, index: int) -> int:
        value = self._build(call.args[index])
        if isinstance(value, _Const):
            raise QueryCompileError(
                f"{call.func}() argument {index + 1} must be a signal "
                f"expression, got the constant {float(value)}"
            )
        return value

    def _const_arg(self, call: Call, index: int, what: str) -> float:
        value = self._build(call.args[index])
        if not isinstance(value, _Const):
            raise QueryCompileError(
                f"{call.func}() {what} (argument {index + 1}) must be a "
                "constant expression"
            )
        return float(value)


# ----------------------------------------------------------------------
# Function table
# ----------------------------------------------------------------------
def _fn_abs(c: _Compiler, call: Call) -> _Value:
    c._arity(call, 1)
    value = c._build(call.args[0])
    if isinstance(value, _Const):
        return _Const(abs(float(value)))
    return c._node("map1", ("abs",), (value,))


def _fn_minmax(op: str):
    def build(c: _Compiler, call: Call) -> _Value:
        c._arity(call, 2)
        return c._binary(op, call.args[0], call.args[1])

    return build


def _fn_clip(c: _Compiler, call: Call) -> _Value:
    c._arity(call, 3)
    stream = c._stream_arg(call, 0)
    lo = c._const_arg(call, 1, "lower bound")
    hi = c._const_arg(call, 2, "upper bound")
    if hi < lo:
        raise QueryCompileError(f"clip() bounds are inverted: [{lo}, {hi}]")
    return c._node("clip", (lo, hi), (stream,))


def _fn_rate(c: _Compiler, call: Call) -> _Value:
    c._arity(call, 1)
    return c._node("rate", (), (c._stream_arg(call, 0),))


def _fn_delta(c: _Compiler, call: Call) -> _Value:
    c._arity(call, 1)
    return c._node("delta", (), (c._stream_arg(call, 0),))


def _fn_ewma(c: _Compiler, call: Call) -> _Value:
    c._arity(call, 2)
    stream = c._stream_arg(call, 0)
    alpha = c._const_arg(call, 1, "filter alpha")
    if not 0.0 <= alpha <= 1.0:
        raise QueryCompileError(f"{call.func}() alpha must be in [0, 1]: {alpha}")
    return c._node("ewma", (alpha,), (stream,))


def _fn_resample(c: _Compiler, call: Call) -> _Value:
    c._arity(call, 2)
    stream = c._stream_arg(call, 0)
    period = c._const_arg(call, 1, "period")
    if not period > 0:
        raise QueryCompileError(f"resample() period must be positive: {period}")
    return c._node("resample", (period,), (stream,))


def _fn_window(kind: AggregateKind):
    def build(c: _Compiler, call: Call) -> _Value:
        c._arity(call, 2)
        stream = c._stream_arg(call, 0)
        window = c._const_arg(call, 1, "window")
        if not window > 0:
            raise QueryCompileError(
                f"{call.func}() window must be positive: {window}"
            )
        return c._node("window", (kind.value, window), (stream,))

    return build


def _fn_edges(c: _Compiler, call: Call) -> _Value:
    c._arity(call, 2, 3)
    stream = c._stream_arg(call, 0)
    level = c._const_arg(call, 1, "trigger level")
    edge = "rising"
    if len(call.args) == 3:
        arg = call.args[2]
        if not isinstance(arg, Ref) or arg.name not in _EDGE_KINDS:
            raise QueryCompileError(
                "edges() direction must be one of: "
                + ", ".join(sorted(_EDGE_KINDS))
            )
        edge = arg.name
    return c._node("edges", (level, edge), (stream,))


_FUNCTIONS = {
    "abs": _fn_abs,
    "min": _fn_minmax("min"),
    "max": _fn_minmax("max"),
    "clip": _fn_clip,
    "rate": _fn_rate,
    "delta": _fn_delta,
    "ewma": _fn_ewma,
    "lowpass": _fn_ewma,  # the Section 3.1 name for the same one-pole IIR
    "resample": _fn_resample,
    "edges": _fn_edges,
    **{name: _fn_window(kind) for name, kind in WINDOW_FUNCS.items()},
}


def _step_text(op: str, params: Tuple) -> str:
    """One operator rendered compactly for :meth:`Plan.explain`."""
    if op == "map1":
        return params[0]
    if op == "maps":
        fn, scalar, on_left = params
        return f"{scalar!r} {fn} ." if on_left else f". {fn} {scalar!r}"
    if op == "clip":
        return f"clip[{params[0]!r}, {params[1]!r}]"
    if op == "ewma":
        return f"ewma[{params[0]!r}]"
    if op == "join":
        return f"join[{params[0]}]"
    if op == "window":
        return f"window[{params[0]}, {params[1]!r}]"
    if op == "resample":
        return f"resample[{params[0]!r}]"
    if op == "edges":
        return f"edges[{params[0]!r}, {params[1]}]"
    return op if not params else f"{op}{params!r}"


def fuse_plan(plan: Plan) -> Plan:
    """Collapse maximal fusable chains into single ``fused`` nodes.

    A chain is a path of fusable operators (see
    :data:`repro.query.kernels.FUSABLE_OPS`) where every interior node
    has exactly one consumer and is not a published output — its
    emission is private to the next step, so the intermediate column
    never needs to exist.  Barriers (``source``, ``join``, ``window``,
    ``resample``, ``edges``) are never absorbed; a shared or published
    node ends its chain.  Even single-operator "chains" become fused
    nodes so the whole elementwise tier runs through one backend.

    The rewrite preserves topological order and renumbers node ids
    densely.  It is purely structural: whether a fused node later runs
    a compiled kernel or the original numpy operator chain is decided
    per-signature at runtime (:func:`repro.query.kernels.get_fused`).
    """
    consumers: Dict[int, int] = {node.id: 0 for node in plan.nodes}
    for node in plan.nodes:
        for input_id in node.inputs:
            consumers[input_id] += 1
    published = set(plan.outputs.values())
    fusable = {node.id for node in plan.nodes if node.op in kernels.FUSABLE_OPS}
    consumer_of: Dict[int, int] = {}
    for node in plan.nodes:
        if node.id in fusable:
            for input_id in node.inputs:
                consumer_of[input_id] = node.id
    # A node is absorbed into its single fusable consumer when nothing
    # else (another node or a published name) observes its emission.
    absorbed = {
        node.id
        for node in plan.nodes
        if node.id in fusable
        and node.id not in published
        and consumers[node.id] == 1
        and consumer_of.get(node.id) is not None
    }

    nodes_by_id = {node.id: node for node in plan.nodes}
    new_nodes: List[PlanNode] = []
    id_map: Dict[int, int] = {}
    for node in plan.nodes:
        if node.id in absorbed:
            continue  # represented by its chain's tail node
        if node.id in fusable:
            chain = [node]
            while chain[0].inputs[0] in absorbed:
                chain.insert(0, nodes_by_id[chain[0].inputs[0]])
            steps = tuple((n.op, n.params) for n in chain)
            new_id = len(new_nodes)
            new_nodes.append(
                PlanNode(
                    id=new_id,
                    op="fused",
                    params=(steps,),
                    inputs=(id_map[chain[0].inputs[0]],),
                )
            )
        else:
            new_id = len(new_nodes)
            new_nodes.append(
                PlanNode(
                    id=new_id,
                    op=node.op,
                    params=node.params,
                    inputs=tuple(id_map[i] for i in node.inputs),
                )
            )
        id_map[node.id] = new_id
    return Plan(
        nodes=tuple(new_nodes),
        sources={name: id_map[i] for name, i in plan.sources.items()},
        outputs={name: id_map[i] for name, i in plan.outputs.items()},
        text=plan.text,
    )


def compile_query(
    query: Union[str, Program],
    default_name: str = "query",
    fuse: Optional[bool] = None,
) -> Plan:
    """Compile query text (or a parsed :class:`Program`) into a :class:`Plan`.

    ``default_name`` names the program's single anonymous expression, if
    it has one.  ``fuse`` controls the fusion pass: None (default)
    follows the environment (:func:`repro.core.native.fusion_enabled`,
    i.e. on unless ``REPRO_NATIVE=0``), True/False force it.
    """
    program = parse(query) if isinstance(query, str) else query
    plan = _Compiler(program, default_name).compile()
    if fuse is None:
        fuse = native.fusion_enabled()
    return fuse_plan(plan) if fuse else plan


# ----------------------------------------------------------------------
# Bind-time parameters and the canonical plan key (the subscribe plane)
# ----------------------------------------------------------------------

#: ``$name`` placeholders in query text, bound before compilation.
_PARAM_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")


def bind_params(
    text: str, params: Optional[Mapping[str, float]] = None
) -> str:
    """Substitute ``$name`` placeholders with numeric literals.

    One query template serves many per-user instantiations:
    ``"smooth = ewma(load, $alpha)"`` bound with ``{"alpha": 0.9}``
    becomes ordinary query text.  Values must be finite numbers — they
    land where the compiler demands constants (operator parameters,
    thresholds), and constant folding erases any arithmetic around
    them.  Binding is purely textual and happens *before* the lexer, so
    an unbound ``$`` can never reach it; a missing or unused parameter
    is a :class:`~repro.query.errors.QueryCompileError` (catching both
    typo directions).
    """
    supplied = dict(params or {})
    used = set()

    def _sub(match: "re.Match[str]") -> str:
        name = match.group(1)
        if name not in supplied:
            raise QueryCompileError(f"unbound query parameter ${name}")
        used.add(name)
        try:
            value = float(supplied[name])
        except (TypeError, ValueError):
            raise QueryCompileError(
                f"query parameter ${name} must be a number: "
                f"{supplied[name]!r}"
            ) from None
        if not math.isfinite(value):
            raise QueryCompileError(
                f"query parameter ${name} must be finite: {value!r}"
            )
        # Parenthesized so a negative value keeps its sign regardless
        # of the surrounding expression; folding erases the parens.
        return f"({value!r})"

    bound = _PARAM_RE.sub(_sub, text)
    unused = sorted(set(supplied) - used)
    if unused:
        raise QueryCompileError(
            f"unused query parameter(s): {', '.join(unused)}"
        )
    return bound


def plan_key(plan: Plan) -> Tuple:
    """Canonical identity of a compiled plan (the dedup key).

    Two queries share a key exactly when they compiled to the same DAG
    publishing the same outputs from the same sources — whitespace,
    comments, intermediate naming and parameter spelling differences
    all vanish in compilation, while different bound parameter values
    yield different folded constants and therefore different keys.  The
    subscription plane keys shared evaluations on this, so N
    subscribers to one derived view cost one
    :class:`~repro.query.live.LiveQuery`.
    """
    return (
        plan.nodes,
        tuple(sorted(plan.sources.items())),
        tuple(sorted(plan.outputs.items())),
    )
