"""Expression compilation and evaluation.

Expressions are compiled once per plan into trees of closures.  The engine
supplies a *binder* that resolves variable references to runtime accessors,
so the same expression AST serves the distributed engine (values come from
execution-context slots and local vertex reads) and the single-machine
baselines (values come from a plain ``{var: vertex}`` dict).  Either way a
compiled expression is called with an :class:`EvalState` whose ``ctx`` holds
the context slots or the binding dict.

``None`` follows SQL ``NULL`` semantics for filters: any comparison against
``None`` is false, arithmetic propagates ``None``, and boolean connectives
treat ``None`` as false.
"""

from ..errors import PlanningError
from .ast import (
    Aggregate,
    Binary,
    FuncCall,
    InList,
    IsNull,
    Literal,
    PropRef,
    Unary,
    VarRef,
)


class EvalState:
    """What a compiled expression reads: ``ctx`` (the context slot list, or
    a ``{var: id}`` binding), ``edge`` (the edge being scanned by a hop
    filter) and ``partition`` (the machine-local graph view)."""

    __slots__ = ("ctx", "edge", "partition")

    def __init__(self, partition=None, ctx=None):
        self.ctx = ctx
        self.edge = -1
        self.partition = partition


class Binder:
    """Resolves expression variables to runtime accessor closures.

    Engines subclass this.  Each method returns ``callable(state) -> value``
    where ``state`` is whatever the engine passes to the compiled expression
    at evaluation time.
    """

    def vertex(self, var):
        """Accessor for the vertex id bound to ``var``."""
        raise NotImplementedError

    def prop(self, var, prop):
        """Accessor for property ``prop`` of the element bound to ``var``."""
        raise NotImplementedError

    def label(self, var):
        """Accessor for the (primary) label name of ``var``."""
        raise NotImplementedError


def _cmp(op):
    def compare(a, b):
        if a is None or b is None:
            return False
        try:
            return op(a, b)
        except TypeError:
            return False

    return compare


_BINARY_OPS = {
    "=": _cmp(lambda a, b: a == b),
    "<>": _cmp(lambda a, b: a != b),
    "<": _cmp(lambda a, b: a < b),
    "<=": _cmp(lambda a, b: a <= b),
    ">": _cmp(lambda a, b: a > b),
    ">=": _cmp(lambda a, b: a >= b),
}


def _arith(op):
    def apply(a, b):
        if a is None or b is None:
            return None
        try:
            return op(a, b)
        except (TypeError, ZeroDivisionError):
            return None

    return apply


_ARITH_OPS = {
    "+": _arith(lambda a, b: a + b),
    "-": _arith(lambda a, b: a - b),
    "*": _arith(lambda a, b: a * b),
    "/": _arith(lambda a, b: a / b),
    "%": _arith(lambda a, b: a % b),
}

_SCALAR_FUNCS = {
    "abs": lambda v: None if v is None else abs(v),
    "lower": lambda v: None if v is None else str(v).lower(),
    "upper": lambda v: None if v is None else str(v).upper(),
    "length": lambda v: None if v is None else len(v),
    "floor": lambda v: None if v is None else int(v // 1),
    "ceil": lambda v: None if v is None else -int(-v // 1),
}


def compare_values(op, a, b):
    """Apply comparison ``op`` with SQL NULL semantics (used by deferred
    cross-filter checks in the planner)."""
    return _BINARY_OPS[op](a, b)


def compile_expr(node, binder):
    """Compile ``node`` into ``callable(state) -> value`` using ``binder``."""
    if isinstance(node, Literal):
        value = node.value
        return lambda state: value

    if isinstance(node, PropRef):
        return binder.prop(node.var, node.prop)

    if isinstance(node, VarRef):
        return binder.vertex(node.var)

    if isinstance(node, Unary):
        inner = compile_expr(node.operand, binder)
        if node.op == "not":
            return lambda state: not inner(state)
        if node.op == "-":
            def negate(state):
                v = inner(state)
                return None if v is None else -v

            return negate
        raise PlanningError(f"unknown unary operator {node.op!r}")

    if isinstance(node, Binary):
        if node.op == "and":
            left = compile_expr(node.left, binder)
            right = compile_expr(node.right, binder)
            return lambda state: bool(left(state)) and bool(right(state))
        if node.op == "or":
            left = compile_expr(node.left, binder)
            right = compile_expr(node.right, binder)
            return lambda state: bool(left(state)) or bool(right(state))
        fn = _BINARY_OPS.get(node.op) or _ARITH_OPS.get(node.op)
        if fn is None:
            raise PlanningError(f"unknown binary operator {node.op!r}")
        left = compile_expr(node.left, binder)
        right = compile_expr(node.right, binder)
        return lambda state: fn(left(state), right(state))

    if isinstance(node, FuncCall):
        if node.name == "id":
            if len(node.args) != 1 or not isinstance(node.args[0], VarRef):
                raise PlanningError("ID() takes a single pattern variable")
            return binder.vertex(node.args[0].var)
        if node.name in ("label", "labels"):
            if len(node.args) != 1 or not isinstance(node.args[0], VarRef):
                raise PlanningError(f"{node.name.upper()}() takes a single pattern variable")
            return binder.label(node.args[0].var)
        if node.name == "all_different":
            # PGQL's ALL_DIFFERENT(v1, v2, ...): pairwise-distinct vertices,
            # the standard tool for isomorphic-style matching on top of the
            # engine's homomorphic semantics.
            if len(node.args) < 2 or not all(
                isinstance(a, VarRef) for a in node.args
            ):
                raise PlanningError(
                    "ALL_DIFFERENT() takes two or more pattern variables"
                )
            readers = [binder.vertex(a.var) for a in node.args]

            def all_different(state):
                values = [r(state) for r in readers]
                if any(v is None for v in values):
                    return False
                return len(set(values)) == len(values)

            return all_different
        if node.name == "coalesce":
            parts = [compile_expr(a, binder) for a in node.args]

            def coalesce(state):
                for p in parts:
                    v = p(state)
                    if v is not None:
                        return v
                return None

            return coalesce
        fn = _SCALAR_FUNCS.get(node.name)
        if fn is None:
            raise PlanningError(f"unknown function {node.name!r}")
        if len(node.args) != 1:
            raise PlanningError(f"{node.name}() takes exactly one argument")
        inner = compile_expr(node.args[0], binder)
        return lambda state: fn(inner(state))

    if isinstance(node, InList):
        inner = compile_expr(node.operand, binder)
        values = frozenset(v for v in node.values if v is not None)
        if node.negated:
            def not_in(state):
                v = inner(state)
                return v is not None and v not in values

            return not_in

        def in_list(state):
            v = inner(state)
            return v is not None and v in values

        return in_list

    if isinstance(node, IsNull):
        inner = compile_expr(node.operand, binder)
        if node.negated:
            return lambda state: inner(state) is not None
        return lambda state: inner(state) is None

    if isinstance(node, Aggregate):
        raise PlanningError(
            "aggregates are only allowed in SELECT items, not in filters"
        )

    raise PlanningError(f"cannot compile expression node {node!r}")


class DictBinder(Binder):
    """Binder over a ``{var: id}`` binding in ``state.ctx``, plus a graph.

    Used by the single-machine baselines, the planner's scouting and
    witness-path reconstruction.  ``edge_vars`` names the variables bound
    to *edge ids*, whose property reads go to the edge store instead of the
    vertex store.
    """

    def __init__(self, graph, edge_vars=frozenset()):
        self.graph = graph
        self.edge_vars = edge_vars

    def vertex(self, var):
        return lambda state: state.ctx.get(var)

    def prop(self, var, prop):
        store = self.graph.eprops if var in self.edge_vars else self.graph.vprops

        def read(state):
            element = state.ctx.get(var)
            if element is None:
                return None
            return store.get(prop, element)

        return read

    def label(self, var):
        graph = self.graph

        def read(state):
            vid = state.ctx.get(var)
            if vid is None:
                return None
            return graph.vertex_label_name(vid)

        return read
