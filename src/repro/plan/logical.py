"""Logical plan operators (paper Table 1) and the pattern graph.

The planner first normalizes the parsed query into a *pattern graph*
(variables as nodes, connectors as edges), then orders a sequence of logical
operators:

* :class:`VertexMatchOp` — match vertices without following edges,
* :class:`NeighborMatchOp` — expand to neighbors of the current vertex,
* :class:`EdgeMatchOp` — verify an edge to an already-matched vertex
  (``O(log degree)``),
* :class:`RpqMatchOp` — a regular-path segment (expanded later into an RPQ
  control stage plus path stages),
* :class:`InspectOp` — transfer execution back to an already-matched vertex
  so the traversal can branch from it (non-linear patterns),
* :class:`OutputOp` — store results.

The logical plan is deliberately linear: it is the operator order the
distributed automaton will execute depth-first.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import PlanningError
from ..graph.types import Direction
from ..pgql.ast import Quantifier, RpqPattern


@dataclass
class PatternVertex:
    """A merged pattern variable: all label constraints and local filters."""

    var: str  # unique name (anonymous vertices get synthetic names)
    label_groups: Tuple[Tuple[str, ...], ...] = ()  # each group is OR-ed; groups AND-ed
    filters: tuple = ()  # single-variable WHERE conjuncts (Expr nodes)
    explicit: bool = True  # False for synthetic/anonymous variables
    single_match: bool = False  # an `id(v) = const` conjunct exists
    single_match_id: Optional[int] = None


@dataclass
class PatternConnector:
    """A connector between two pattern vertices (edge or RPQ segment)."""

    src: str
    dst: str
    connector: object  # EdgePattern | RpqPattern
    pattern_index: int  # which MATCH pattern it came from

    @property
    def is_rpq(self):
        return isinstance(self.connector, RpqPattern)

    def other(self, var):
        return self.dst if var == self.src else self.src

    def oriented(self, from_var):
        """Return the connector's direction as seen when traversing from
        ``from_var`` toward the other endpoint."""
        direction = self.connector.direction
        if from_var == self.src:
            return direction
        return direction.reverse()


@dataclass
class PatternGraph:
    """Variables and connectors extracted from all MATCH patterns."""

    vertices: dict  # var -> PatternVertex
    connectors: list  # [PatternConnector]

    def connectors_of(self, var):
        return [c for c in self.connectors if var in (c.src, c.dst)]


# ---------------------------------------------------------------------------
# Logical operators
# ---------------------------------------------------------------------------


@dataclass
class LogicalOp:
    """Base class; ``var`` is the pattern variable the op binds/uses."""

    var: str


@dataclass
class VertexMatchOp(LogicalOp):
    """Match vertices of ``var`` without following edges (bootstrap/exit)."""


@dataclass
class NeighborMatchOp(LogicalOp):
    """Expand from ``source`` to its neighbors, binding ``var``."""

    source: str = ""
    direction: Direction = Direction.OUT
    edge_labels: Tuple[str, ...] = ()
    edge_var: Optional[str] = None


@dataclass
class EdgeMatchOp(LogicalOp):
    """Verify an edge from ``source`` (current) to already-bound ``var``."""

    source: str = ""
    direction: Direction = Direction.OUT
    edge_labels: Tuple[str, ...] = ()
    edge_var: Optional[str] = None


@dataclass
class InspectOp(LogicalOp):
    """Transfer execution back to already-bound ``var`` to branch from it."""


@dataclass
class RpqMatchOp(LogicalOp):
    """A regular-path segment from ``source``, binding ``var`` at its end.

    ``macro_name`` resolves against the query's PATH macros (falling back to
    a single edge label); ``reversed_macro`` is set when the planner decided
    to traverse the segment from its destination endpoint.
    """

    source: str = ""
    macro_name: str = ""
    quantifier: Quantifier = Quantifier(1, 1)
    direction: Direction = Direction.OUT
    reversed_macro: bool = False


@dataclass
class OutputOp(LogicalOp):
    """Store projections; always the final operator (``var`` unused)."""


@dataclass
class LogicalPlan:
    """Ordered logical operators plus filter/projection bookkeeping."""

    ops: list = field(default_factory=list)
    # WHERE conjuncts to evaluate as soon as their variables are all bound;
    # mapping op-index -> [Expr].
    attached_filters: dict = field(default_factory=dict)
    # Cross filters involving RPQ path variables, keyed by the op index of
    # the owning RpqMatchOp.
    rpq_cross_filters: dict = field(default_factory=dict)

    def describe(self):
        lines = []
        for i, op in enumerate(self.ops):
            name = type(op).__name__.replace("Op", "")
            detail = op.var
            if isinstance(op, (NeighborMatchOp, EdgeMatchOp)):
                arrow = {
                    Direction.OUT: "->",
                    Direction.IN: "<-",
                    Direction.BOTH: "--",
                }[op.direction]
                labels = "|".join(op.edge_labels) or "*"
                detail = f"{op.source} {arrow}[:{labels}] {op.var}"
            elif isinstance(op, RpqMatchOp):
                detail = (
                    f"{op.source} -/:{op.macro_name}{op.quantifier}/- {op.var}"
                    f"{' (reversed)' if op.reversed_macro else ''}"
                )
            filters = self.attached_filters.get(i, ())
            suffix = f"  WHERE {' AND '.join(map(str, filters))}" if filters else ""
            lines.append(f"{i}: {name}({detail}){suffix}")
        return "\n".join(lines)


def validate_pattern_graph(pg):
    """Sanity checks: connected pattern, endpoints exist."""
    if not pg.vertices:
        raise PlanningError("query matches no vertices")
    for c in pg.connectors:
        if c.src not in pg.vertices or c.dst not in pg.vertices:
            raise PlanningError(f"connector references unknown variable {c.src}/{c.dst}")
    # Connectivity check (disconnected patterns would need a cartesian
    # product, which the distributed DFT engine does not support).
    if pg.connectors:
        seen = set()
        stack = [next(iter(pg.vertices))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            for c in pg.connectors_of(v):
                stack.append(c.other(v))
        if seen != set(pg.vertices):
            missing = sorted(set(pg.vertices) - seen)
            raise PlanningError(
                "disconnected MATCH pattern (cartesian products unsupported); "
                f"unreached variables: {missing}"
            )
    elif len(pg.vertices) > 1:
        raise PlanningError(
            "multiple vertices without connectors form a cartesian product, "
            "which is unsupported"
        )
