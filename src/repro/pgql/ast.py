"""AST node definitions for the PGQL subset.

The grammar covers what the paper's workloads need (Sections 1–3):

* ``PATH name AS <pattern> [WHERE <expr>]`` macros,
* ``SELECT [DISTINCT] items`` with aggregates,
* ``FROM MATCH`` over linear and non-linear patterns,
* regular-path segments ``-/:name<quant>/->`` with quantifiers
  ``* + ? {n} {n,} {n,m}``,
* ``WHERE`` filters, including *cross filters* that mix RPQ path variables
  with outer pattern variables,
* ``GROUP BY`` / ``ORDER BY`` / ``LIMIT``.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from ..graph.types import Direction

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    def variables(self):
        """Return the set of pattern variables referenced by this expression."""
        out = set()
        self._collect_vars(out)
        return out

    def prop_refs(self):
        """Return the set of ``(var, prop)`` pairs this expression reads."""
        out = set()
        self._collect_props(out)
        return out

    def _collect_vars(self, out):
        pass

    def _collect_props(self, out):
        pass

    def children(self):
        return ()

    def contains_aggregate(self):
        if isinstance(self, Aggregate):
            return True
        return any(c.contains_aggregate() for c in self.children())


@dataclass(frozen=True)
class Literal(Expr):
    value: object

    def __str__(self):
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


@dataclass(frozen=True)
class PropRef(Expr):
    """``var.prop`` — a property of a matched vertex (or edge)."""

    var: str
    prop: str

    def _collect_vars(self, out):
        out.add(self.var)

    def _collect_props(self, out):
        out.add((self.var, self.prop))

    def __str__(self):
        return f"{self.var}.{self.prop}"


@dataclass(frozen=True)
class VarRef(Expr):
    """A bare variable reference (vertex identity, or a SELECT alias)."""

    var: str

    def _collect_vars(self, out):
        out.add(self.var)

    def __str__(self):
        return self.var


@dataclass(frozen=True)
class FuncCall(Expr):
    """Builtin scalar function: ``ID(v)``, ``LABEL(v)``, ``ABS(x)``, ...)."""

    name: str
    args: Tuple[Expr, ...]

    def children(self):
        return self.args

    def _collect_vars(self, out):
        for a in self.args:
            a._collect_vars(out)

    def _collect_props(self, out):
        for a in self.args:
            a._collect_props(out)

    def __str__(self):
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-" | "not"
    operand: Expr

    def children(self):
        return (self.operand,)

    def _collect_vars(self, out):
        self.operand._collect_vars(out)

    def _collect_props(self, out):
        self.operand._collect_props(out)

    def __str__(self):
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # comparison, arithmetic, "and", "or"
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    def _collect_vars(self, out):
        self.left._collect_vars(out)
        self.right._collect_vars(out)

    def _collect_props(self, out):
        self.left._collect_props(out)
        self.right._collect_props(out)

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class InList(Expr):
    """``expr IN (v1, v2, ...)`` / ``expr NOT IN (...)`` over literals."""

    operand: Expr
    values: Tuple[object, ...]
    negated: bool = False

    def children(self):
        return (self.operand,)

    def _collect_vars(self, out):
        self.operand._collect_vars(out)

    def _collect_props(self, out):
        self.operand._collect_props(out)

    def __str__(self):
        items = ", ".join(str(Literal(v)) for v in self.values)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {keyword} ({items}))"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def children(self):
        return (self.operand,)

    def _collect_vars(self, out):
        self.operand._collect_vars(out)

    def _collect_props(self, out):
        self.operand._collect_props(out)

    def __str__(self):
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {keyword})"


@dataclass(frozen=True)
class Aggregate(Expr):
    """``COUNT/SUM/MIN/MAX/AVG`` over an expression (or ``*`` for COUNT)."""

    func: str
    arg: Optional[Expr]  # None means COUNT(*)
    distinct: bool = False

    def children(self):
        return (self.arg,) if self.arg is not None else ()

    def _collect_vars(self, out):
        if self.arg is not None:
            self.arg._collect_vars(out)

    def _collect_props(self, out):
        if self.arg is not None:
            self.arg._collect_props(out)

    def __str__(self):
        inner = "*" if self.arg is None else str(self.arg)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func.upper()}({inner})"


def rename_vars(expr, mapping):
    """Return a copy of ``expr`` with variables renamed per ``mapping``.

    Used when the same PATH macro is instantiated by several RPQ segments:
    each instance gets its own variable namespace.
    """
    if isinstance(expr, PropRef):
        return PropRef(mapping.get(expr.var, expr.var), expr.prop)
    if isinstance(expr, VarRef):
        return VarRef(mapping.get(expr.var, expr.var))
    if isinstance(expr, Unary):
        return Unary(expr.op, rename_vars(expr.operand, mapping))
    if isinstance(expr, Binary):
        return Binary(
            expr.op, rename_vars(expr.left, mapping), rename_vars(expr.right, mapping)
        )
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(rename_vars(a, mapping) for a in expr.args))
    if isinstance(expr, Aggregate):
        arg = None if expr.arg is None else rename_vars(expr.arg, mapping)
        return Aggregate(expr.func, arg, expr.distinct)
    if isinstance(expr, InList):
        return InList(rename_vars(expr.operand, mapping), expr.values, expr.negated)
    if isinstance(expr, IsNull):
        return IsNull(rename_vars(expr.operand, mapping), expr.negated)
    return expr


def split_conjuncts(expr):
    """Flatten an expression into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quantifier:
    """Repetition bounds for an RPQ segment; ``max=None`` means unbounded."""

    min: int
    max: Optional[int]

    def __str__(self):
        if self.min == 0 and self.max is None:
            return "*"
        if self.min == 1 and self.max is None:
            return "+"
        if self.min == 0 and self.max == 1:
            return "?"
        if self.max is None:
            return f"{{{self.min},}}"
        if self.min == self.max:
            return f"{{{self.min}}}"
        return f"{{{self.min},{self.max}}}"


@dataclass(frozen=True)
class VertexPattern:
    """``(var:LabelA|LabelB)`` — var and labels both optional."""

    var: Optional[str]
    labels: Tuple[str, ...] = ()

    def __str__(self):
        inner = self.var or ""
        if self.labels:
            inner += ":" + "|".join(self.labels)
        return f"({inner})"


@dataclass(frozen=True)
class EdgePattern:
    """``-[var:Label]->`` / ``<-[...]-`` / undirected ``-[...]-``."""

    var: Optional[str]
    labels: Tuple[str, ...]
    direction: Direction

    def __str__(self):
        inner = self.var or ""
        if self.labels:
            inner += ":" + "|".join(self.labels)
        body = f"[{inner}]" if inner else ""
        if self.direction is Direction.OUT:
            return f"-{body}->"
        if self.direction is Direction.IN:
            return f"<-{body}-"
        return f"-{body}-"


@dataclass(frozen=True)
class RpqPattern:
    """``-/:name<quantifier>/->`` — a regular-path segment.

    ``name`` is resolved against the query's PATH macros first; if absent it
    is treated as a single edge label (so ``-/:KNOWS+/->`` works without a
    macro).
    """

    name: str
    quantifier: Quantifier
    direction: Direction

    def __str__(self):
        body = f"/:{self.name}{self.quantifier}/"
        if self.direction is Direction.OUT:
            return f"-{body}->"
        if self.direction is Direction.IN:
            return f"<-{body}-"
        return f"-{body}-"


@dataclass(frozen=True)
class PathPattern:
    """Alternating vertices and connectors: ``v (conn v)*``.

    ``elements[0]`` is a :class:`VertexPattern`; even indexes are vertices,
    odd indexes are :class:`EdgePattern` or :class:`RpqPattern`.
    """

    elements: Tuple[object, ...]

    @property
    def vertices(self):
        return self.elements[0::2]

    @property
    def connectors(self):
        return self.elements[1::2]

    def __str__(self):
        return "".join(str(e) for e in self.elements)


@dataclass(frozen=True)
class PathMacro:
    """``PATH name AS pattern [WHERE filter]``."""

    name: str
    pattern: PathPattern
    where: Optional[Expr] = None

    def __str__(self):
        s = f"PATH {self.name} AS {self.pattern}"
        if self.where is not None:
            s += f" WHERE {self.where}"
        return s


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None

    def __str__(self):
        return f"{self.expr} AS {self.alias}" if self.alias else str(self.expr)


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Query:
    """A parsed PGQL query."""

    select: Tuple[SelectItem, ...]
    distinct: bool
    match_patterns: Tuple[PathPattern, ...]
    where: Optional[Expr] = None
    path_macros: Tuple[PathMacro, ...] = ()
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None

    def macro(self, name):
        for m in self.path_macros:
            if m.name.lower() == name.lower():
                return m
        return None

    def __str__(self):
        parts = [str(m) for m in self.path_macros]
        sel = "SELECT " + ("DISTINCT " if self.distinct else "")
        sel += ", ".join(str(i) for i in self.select)
        parts.append(sel)
        parts.append("FROM " + ", ".join("MATCH " + str(p) for p in self.match_patterns))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(map(str, self.group_by)))
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        if self.order_by:
            parts.append(
                "ORDER BY "
                + ", ".join(
                    f"{o.expr} {'DESC' if o.descending else 'ASC'}" for o in self.order_by
                )
            )
        if self.limit is not None:
            suffix = f" OFFSET {self.offset}" if self.offset is not None else ""
            parts.append(f"LIMIT {self.limit}{suffix}")
        return "\n".join(parts)
