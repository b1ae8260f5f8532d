"""Cost-based query planning: query AST -> logical plan.

Implements the paper's Section 3.1 heuristics:

(i)   prefer single-match vertices (``ID(v) = <const>``) as starting points;
(ii)  prioritize vertices with heavy filtering in the early stages: a
      vertex is priced at the fraction of the graph its labels cover (the
      graph's cached label histogram, :attr:`PropertyGraph.statistics`)
      times its filters' selectivities;
(iii) prefer edge matches over neighbor matches (edge match cost is
      logarithmic); a *functional* neighbor hop from the current vertex —
      one label whose maximum fan-out in the walked direction is <= 1
      (:meth:`GraphStatistics.functional`), so it never multiplies the
      frontier — is priced the same and taken before any pending RPQ;
(iv)  prefer RPQ matches over neighbor matches so RPQs run early.
"""

import itertools

from ..errors import PlanningError
from ..pgql.ast import (
    Binary,
    EdgePattern,
    FuncCall,
    Literal,
    VarRef,
    split_conjuncts,
)
from .logical import (
    EdgeMatchOp,
    InspectOp,
    LogicalPlan,
    NeighborMatchOp,
    OutputOp,
    PatternConnector,
    PatternGraph,
    PatternVertex,
    RpqMatchOp,
    VertexMatchOp,
    validate_pattern_graph,
)


def build_pattern_graph(query):
    """Merge MATCH patterns into a :class:`PatternGraph`.

    Variables with the same name across patterns refer to the same vertex;
    anonymous vertices get synthetic unique names (``__anon0`` ...).
    """
    vertices = {}
    connectors = []
    anon = itertools.count()

    def ensure_vertex(vp):
        var = vp.var or f"__anon{next(anon)}"
        pv = vertices.get(var)
        if pv is None:
            pv = PatternVertex(var=var, explicit=vp.var is not None)
            vertices[var] = pv
        if vp.labels:
            pv.label_groups = pv.label_groups + (vp.labels,)
        return var

    for pat_idx, pattern in enumerate(query.match_patterns):
        elems = pattern.elements
        prev_var = ensure_vertex(elems[0])
        for i in range(1, len(elems), 2):
            connector = elems[i]
            next_var = ensure_vertex(elems[i + 1])
            connectors.append(
                PatternConnector(
                    src=prev_var, dst=next_var, connector=connector, pattern_index=pat_idx
                )
            )
            prev_var = next_var

    pg = PatternGraph(vertices=vertices, connectors=connectors)
    validate_pattern_graph(pg)
    return pg


def query_expressions(query):
    """Every expression a query evaluates over matched elements: SELECT,
    GROUP BY and ORDER BY items, WHERE and the PATH macros' WHERE.  (HAVING
    reads result columns only.)"""
    for item in query.select:
        yield item.expr
    yield from query.group_by
    for item in query.order_by:
        yield item.expr
    if query.where is not None:
        yield query.where
    for macro in query.path_macros:
        if macro.where is not None:
            yield macro.where


def collect_label_refs(expr, out):
    """Add to ``out`` the variables whose ``LABEL()`` / ``LABELS()`` ``expr``
    reads."""
    if isinstance(expr, FuncCall) and expr.name in ("label", "labels"):
        if expr.args and isinstance(expr.args[0], VarRef):
            out.add(expr.args[0].var)
    for child in expr.children():
        collect_label_refs(child, out)


def extract_single_match(conjunct):
    """Detect ``ID(v) = <int literal>``; return ``(var, vid)`` or ``None``."""
    if not isinstance(conjunct, Binary) or conjunct.op != "=":
        return None
    left, right = conjunct.left, conjunct.right
    for a, b in ((left, right), (right, left)):
        if (
            isinstance(a, FuncCall)
            and a.name == "id"
            and len(a.args) == 1
            and isinstance(a.args[0], VarRef)
            and isinstance(b, Literal)
            and isinstance(b.value, int)
        ):
            return a.args[0].var, b.value
    return None


def conjunct_selectivity(conjunct):
    """Crude selectivity estimate in ``(0, 1]`` (lower = more selective)."""
    if extract_single_match(conjunct) is not None:
        return 0.0001
    if isinstance(conjunct, Binary):
        if conjunct.op == "=":
            return 0.05
        if conjunct.op in ("<", "<=", ">", ">="):
            return 0.4
        if conjunct.op == "and":
            return conjunct_selectivity(conjunct.left) * conjunct_selectivity(
                conjunct.right
            )
        if conjunct.op == "or":
            return min(
                1.0,
                conjunct_selectivity(conjunct.left)
                + conjunct_selectivity(conjunct.right),
            )
    return 0.5


#: Fraction priced per label group when the planner has no graph.
DEFAULT_LABEL_FRACTION = 0.3


def label_fractions(graph):
    """``group -> fraction`` of ``graph``'s vertices carrying any label of
    the OR-group, read off the cached label histogram (no graph scan).

    The sum over the group's labels is capped at 1 and floored at
    ``1/(2n)``: a label the graph lacks still prices above a single-match
    vertex, so heuristic (i) keeps winning outright.
    """
    stats = graph.statistics
    n = max(1, stats.num_vertices)
    count = stats.vertices_per_label.get
    id_of = graph.vertex_labels.id_of

    def fraction(group):
        matched = sum(count(id_of(name), 0) for name in group)
        return max(min(1.0, matched / n), 0.5 / n)

    return fraction


def vertex_score(pv, label_fraction=None):
    """Start-vertex score; lower is better (heuristics i and ii).

    ``label_fraction`` prices one label group (see :func:`label_fractions`);
    without one every group is priced at :data:`DEFAULT_LABEL_FRACTION`.
    """
    if pv.single_match:
        return 0.0
    score = 1.0
    for group in pv.label_groups:
        score *= DEFAULT_LABEL_FRACTION if label_fraction is None else label_fraction(group)
    for conjunct in pv.filters:
        score *= conjunct_selectivity(conjunct)
    return score


def functional_hops(graph):
    """``(edge label names, direction) -> bool`` over ``graph``'s cached
    fan-out statistic (:meth:`GraphStatistics.functional`; no graph scan)."""
    stats = graph.statistics
    id_of = graph.edge_labels.id_of
    return lambda labels, direction: stats.functional(tuple(map(id_of, labels)), direction)


class Planner:
    """Builds a :class:`LogicalPlan` from a parsed query.

    With ``scout`` set (a :class:`repro.plan.scouting.Scout`), start-vertex
    and expansion-target choices use *measured* sampled selectivities
    instead of the static heuristics — the paper's scouting-queries
    direction.  Single-match vertices (heuristic i) still win outright.
    Without a scout, ``graph`` (when given) prices label groups from its
    label histogram (:func:`label_fractions`); with or without one, it
    marks functional hops (:func:`functional_hops`).
    """

    def __init__(self, query, scout=None, graph=None):
        self.query = query
        self.scout = scout
        self._label_fraction = None if graph is None else label_fractions(graph)
        self._functional = None if graph is None else functional_hops(graph)
        self.pattern_graph = build_pattern_graph(query)
        self.macro_vars = self._collect_macro_vars()
        self.edge_vars = self._collect_edge_vars()
        self._reject_edge_labels()
        self._classify_filters()

    def _score(self, pv):
        if self.scout is not None and not pv.single_match:
            return self.scout.selectivity(pv)
        return vertex_score(pv, self._label_fraction)

    # -- filter classification -----------------------------------------
    def _collect_macro_vars(self):
        """Map macro name (lowered) -> set of its pattern variable names."""
        macro_vars = {}
        for macro in self.query.path_macros:
            names = set()
            for vp in macro.pattern.vertices:
                if vp.var:
                    names.add(vp.var)
            for ep in macro.pattern.connectors:
                if isinstance(ep, EdgePattern) and ep.var:
                    names.add(ep.var)
            macro_vars[macro.name.lower()] = names
        return macro_vars

    def _collect_edge_vars(self):
        """Edge-variable names of the MATCH patterns and the PATH macros."""
        connectors = [c.connector for c in self.pattern_graph.connectors]
        for macro in self.query.path_macros:
            connectors.extend(macro.pattern.connectors)
        return frozenset(
            e.var for e in connectors if isinstance(e, EdgePattern) and e.var
        )

    def _reject_edge_labels(self):
        """``LABEL()`` / ``LABELS()`` take a vertex variable: no engine
        captures an edge's label, so an edge variable there is refused
        instead of evaluating to NULL or to some vertex's label."""
        names = set(self.pattern_graph.vertices)
        for macro in self.query.path_macros:
            names.update(vp.var for vp in macro.pattern.vertices if vp.var)
        edges_only = self.edge_vars - names
        if not edges_only:
            return
        refs = set()
        for expr in query_expressions(self.query):
            collect_label_refs(expr, refs)
        if refs & edges_only:
            raise PlanningError(
                f"LABEL() takes a vertex variable; {min(refs & edges_only)} is "
                "an edge variable"
            )

    def _used_macros(self):
        used = set()
        for c in self.pattern_graph.connectors:
            if c.is_rpq:
                used.add(c.connector.name.lower())
        return used

    def _classify_filters(self):
        """Split WHERE conjuncts into per-vertex filters, multi-var filters,
        and cross filters (those touching RPQ macro variables)."""
        pg = self.pattern_graph
        all_macro_vars = set()
        for name in self._used_macros():
            all_macro_vars |= self.macro_vars.get(name, set())
        overlap = all_macro_vars & set(pg.vertices)
        if overlap:
            raise PlanningError(
                f"PATH macro variables shadow MATCH variables: {sorted(overlap)}"
            )

        self.multi_var_filters = []
        self.cross_filters = []
        for conjunct in split_conjuncts(self.query.where):
            variables = conjunct.variables()
            macro_touch = variables & all_macro_vars
            if macro_touch:
                self.cross_filters.append(conjunct)
                continue
            pattern_vars = variables & set(pg.vertices)
            if len(pattern_vars) == 1 and variables == pattern_vars:
                var = next(iter(pattern_vars))
                single = extract_single_match(conjunct)
                if single is not None:
                    pg.vertices[var].single_match = True
                    pg.vertices[var].single_match_id = single[1]
                pg.vertices[var].filters = pg.vertices[var].filters + (conjunct,)
            else:
                self.multi_var_filters.append(conjunct)

    # -- operator ordering ----------------------------------------------
    def choose_start(self):
        pg = self.pattern_graph
        best = None
        best_key = None
        for var, pv in pg.vertices.items():
            key = (self._score(pv), 0 if pv.explicit else 1, var)
            if best_key is None or key < best_key:
                best, best_key = var, key
        return best

    def plan(self):
        """Produce the ordered :class:`LogicalPlan`."""
        pg = self.pattern_graph
        start = self.choose_start()
        plan = LogicalPlan()
        plan.ops.append(VertexMatchOp(var=start))

        bound = {start}
        current = start  # variable whose vertex holds the execution
        remaining = list(pg.connectors)

        while remaining:
            step = self._pick_step(remaining, bound, current)
            if step is None:
                raise PlanningError("could not order pattern connectors (bug)")
            connector, kind, source = step
            remaining.remove(connector)

            if source != current and kind in ("neighbor", "rpq"):
                # Non-linear branch: go back to an already-matched vertex.
                plan.ops.append(InspectOp(var=source))
                current = source

            target = connector.other(source)
            direction = connector.oriented(source)
            if kind == "edge_check":
                if current not in (connector.src, connector.dst):
                    plan.ops.append(InspectOp(var=source))
                    current = source
                else:
                    source = current
                    target = connector.other(source)
                    direction = connector.oriented(source)
                plan.ops.append(
                    EdgeMatchOp(
                        var=target,
                        source=source,
                        direction=direction,
                        edge_labels=connector.connector.labels,
                        edge_var=connector.connector.var,
                    )
                )
                # Execution stays at `source`'s vertex after a pure check.
                current = source
            elif kind == "rpq":
                seg = connector.connector
                plan.ops.append(
                    RpqMatchOp(
                        var=target,
                        source=source,
                        macro_name=seg.name,
                        quantifier=seg.quantifier,
                        direction=direction,
                        reversed_macro=source != connector.src,
                    )
                )
                bound.add(target)
                current = target
            else:
                plan.ops.append(
                    NeighborMatchOp(
                        var=target,
                        source=source,
                        direction=direction,
                        edge_labels=connector.connector.labels,
                        edge_var=connector.connector.var,
                    )
                )
                bound.add(target)
                current = target

        plan.ops.append(OutputOp(var=""))
        return plan

    def _pick_step(self, remaining, bound, current):
        """Greedy choice of the next connector (heuristics ii, iii, iv).

        Returns ``(connector, kind, source_var)``.
        """
        edge_checks = []
        rpqs = []
        neighbors = []
        for c in remaining:
            src_bound = c.src in bound
            dst_bound = c.dst in bound
            if not (src_bound or dst_bound):
                continue
            if src_bound and dst_bound:
                if c.is_rpq:
                    # An RPQ between two bound vertices still expands from
                    # one side; anchor at src for determinism.
                    rpqs.append((c, c.src))
                else:
                    edge_checks.append((c, c.src if current == c.src else c.dst
                                        if current == c.dst else c.src))
            elif c.is_rpq:
                rpqs.append((c, c.src if src_bound else c.dst))
            else:
                neighbors.append((c, c.src if src_bound else c.dst))

        if edge_checks:
            # Heuristic (iii): close cycles with O(log d) edge checks first.
            edge_checks.sort(key=lambda p: (p[0].pattern_index,))
            c, source = edge_checks[0]
            return c, "edge_check", source
        if self._functional is not None:
            for c, source in neighbors:
                if source == current and self._functional(c.connector.labels, c.oriented(source)):
                    # Priced like (iii): at most one neighbor per context.
                    return c, "neighbor", source
        if rpqs:
            # Heuristic (iv): run RPQ matches early.
            rpqs.sort(key=lambda p: (0 if p[1] == current else 1, p[0].pattern_index))
            c, source = rpqs[0]
            return c, "rpq", source
        if neighbors:
            # Heuristic (ii): expand toward the most selective target next;
            # prefer continuing from the current vertex to avoid inspects.
            def key(pair):
                c, source = pair
                target = c.other(source)
                return (
                    self._score(self.pattern_graph.vertices[target]),
                    0 if source == current else 1,
                    c.pattern_index,
                )

            neighbors.sort(key=key)
            c, source = neighbors[0]
            return c, "neighbor", source
        return None
