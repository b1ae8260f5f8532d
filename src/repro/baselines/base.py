"""Shared machinery for the single-machine baseline engines.

The baselines share RPQd's front end: the PGQL parser, the planner (and
with it the logical operator order), the expression compiler over a
:class:`~repro.pgql.expressions.DictBinder`, and
:func:`~repro.plan.compiler.result_shape` with the result sink behind it
(projections, GROUP BY, HAVING, ORDER BY, LIMIT).  They share none of the
evaluation: bindings are dictionaries ``{var: vertex}`` expanded operator
by operator, and each engine expands variable-length (RPQ) segments its own
way — BFS frontier expansion for the Neo4j-like engine, semi-naive
relational iteration for the PostgreSQL-like engine, supersteps for the
distributed BFT.  So a comparison isolates the *evaluation strategy*, and
the baselines stay an independent check on pattern matching and RPQ
expansion.

Each engine accumulates abstract *cost units* comparable to the distributed
engine's (edge traversals, tuple materializations, visited-set probes);
``stats.virtual_time`` divides by the same per-round quantum so latencies
are directly comparable to RPQd's virtual makespan.
"""

import time
from types import SimpleNamespace

from ..config import EngineConfig
from ..engine.result import MachineSink, QueryResult, assemble_results
from ..errors import PlanningError
from ..pgql.ast import Query
from ..pgql.expressions import DictBinder, EvalState, compile_expr
from ..pgql.parser import parse
from ..plan.compiler import resolve_macro_elements, result_shape
from ..plan.logical import (
    EdgeMatchOp,
    InspectOp,
    NeighborMatchOp,
    OutputOp,
    RpqMatchOp,
    VertexMatchOp,
)
from ..plan.planner import Planner


class UnsupportedQueryError(PlanningError):
    """The baseline cannot express this query.

    Notably, cross filters between RPQ path variables and *later-bound*
    outer variables are an RPQd-only feature (paper Section 1): Neo4j and
    PostgreSQL have no equivalent, so the baselines refuse them.
    """


class BaselineStats:
    """Cost accounting for one baseline run."""

    def __init__(self, quantum):
        self.quantum = quantum
        self.cost_units = 0.0
        self.edges_traversed = 0
        self.visited_checks = 0
        self.tuples_materialized = 0
        self.peak_frontier = 0
        self.peak_relation = 0
        self.outputs = 0
        self.wall_seconds = 0.0

    @property
    def virtual_time(self):
        """Latency in the same round units as the distributed engine."""
        return self.cost_units / self.quantum

    def summary(self):
        return {
            "virtual_time": round(self.virtual_time, 2),
            "wall_seconds": round(self.wall_seconds, 4),
            "edges_traversed": self.edges_traversed,
            "tuples_materialized": self.tuples_materialized,
            "peak_frontier": self.peak_frontier,
            "peak_relation": self.peak_relation,
            "outputs": self.outputs,
        }


class BaselineEngine:
    """Common evaluator; subclasses provide :meth:`expand_rpq`."""

    #: Human-readable engine name for benchmark tables.
    name = "baseline"

    def __init__(self, graph, quantum=None):
        self.graph = graph
        self.quantum = quantum if quantum is not None else EngineConfig().quantum

    # -- cost knobs (overridden per engine) ------------------------------
    edge_cost = 1.0
    filter_cost = 0.2
    binding_cost = 0.5  # materializing one extended binding
    visited_cost = 0.3  # visited-set / dedup probe

    def execute(self, query):
        if isinstance(query, str):
            query = parse(query)
        if not isinstance(query, Query):
            raise PlanningError(f"cannot execute {query!r}")
        started = time.perf_counter()
        stats = BaselineStats(self.quantum)
        planner = Planner(query, graph=self.graph)
        ops = planner.plan().ops

        binder = DictBinder(self.graph, planner.edge_vars)
        spec = SimpleNamespace(**result_shape(query, binder))
        sink = MachineSink(spec)

        vertex_filters = {
            var: [compile_expr(c, binder) for c in pv.filters]
            for var, pv in planner.pattern_graph.vertices.items()
        }
        pending = [
            (compile_expr(c, binder), c.variables())
            for c in planner.multi_var_filters
        ]
        cross_filters = list(planner.cross_filters)

        state = EvalState()
        bound = set()
        bindings = [{}]
        for op in ops:
            if isinstance(op, VertexMatchOp):
                bindings = self._match_start(
                    op, planner, vertex_filters, state, stats, bindings
                )
                bound.add(op.var)
            elif isinstance(op, NeighborMatchOp):
                bindings = self._expand_neighbors(
                    op, planner, vertex_filters, state, stats, bindings
                )
                bound.add(op.var)
                if op.edge_var:
                    bound.add(op.edge_var)
            elif isinstance(op, EdgeMatchOp):
                bindings = self._check_edges(op, stats, bindings)
                if op.edge_var:
                    bound.add(op.edge_var)
            elif isinstance(op, InspectOp):
                continue  # no meaning on a single machine
            elif isinstance(op, RpqMatchOp):
                bindings = self._expand_rpq_op(
                    op, query, planner, vertex_filters, cross_filters,
                    state, stats, bindings, bound,
                )
                bound.add(op.var)
            elif isinstance(op, OutputOp):
                for binding in bindings:
                    state.ctx = binding
                    sink.add(binding)
                    stats.outputs += 1
                    stats.cost_units += self.binding_cost
            else:
                raise PlanningError(f"unknown logical op {op!r}")
            # Apply multi-variable filters as soon as variables are bound.
            ready = [p for p in pending if p[1] <= bound]
            pending = [p for p in pending if not p[1] <= bound]
            for fn, _vars in ready:
                kept = []
                for binding in bindings:
                    state.ctx = binding
                    stats.cost_units += self.filter_cost
                    if fn(state):
                        kept.append(binding)
                bindings = kept

        if pending:
            unresolved = [sorted(vars_) for _fn, vars_ in pending]
            raise PlanningError(
                f"filters reference unbound variables: {unresolved}"
            )
        result_set = assemble_results(spec, [sink])
        stats.wall_seconds = time.perf_counter() - started
        return QueryResult(result_set, stats, plan=None)

    def _passes(self, var, vertex, planner, vertex_filters, state, stats, binding):
        graph = self.graph
        pv = planner.pattern_graph.vertices.get(var)
        if pv is not None:
            for group in pv.label_groups:
                ids = [graph.vertex_labels.id_of(name) for name in group]
                if not any(
                    lid is not None and graph.vertex_has_label(vertex, lid)
                    for lid in ids
                ):
                    return False
        binding[var] = vertex
        for fn in vertex_filters.get(var, ()):
            state.ctx = binding
            stats.cost_units += self.filter_cost
            if not fn(state):
                del binding[var]
                return False
        return True

    def _match_start(self, op, planner, vertex_filters, state, stats, bindings):
        pv = planner.pattern_graph.vertices[op.var]
        if pv.single_match and pv.single_match_id is not None:
            candidates = (
                [pv.single_match_id]
                if 0 <= pv.single_match_id < self.graph.num_vertices
                else []
            )
        else:
            candidates = self.graph.vertices()
        out = []
        for v in candidates:
            stats.cost_units += 0.5
            binding = {}
            if self._passes(op.var, v, planner, vertex_filters, state, stats, binding):
                out.append(binding)
                stats.tuples_materialized += 1
        return out

    def _edge_label_ids(self, labels):
        ids = []
        for name in labels:
            lid = self.graph.edge_labels.id_of(name)
            if lid is not None:
                ids.append(lid)
        return ids if labels else [None]

    def _expand_neighbors(self, op, planner, vertex_filters, state, stats, bindings):
        graph = self.graph
        out = []
        label_ids = self._edge_label_ids(op.edge_labels)
        for binding in bindings:
            src = binding[op.source]
            for label_id in label_ids:
                for nbr, eid in graph.neighbors(src, op.direction, label_id):
                    stats.edges_traversed += 1
                    stats.cost_units += self.edge_cost
                    new_binding = dict(binding)
                    if op.edge_var:
                        new_binding[op.edge_var] = eid
                    if self._passes(
                        op.var, nbr, planner, vertex_filters, state, stats, new_binding
                    ):
                        out.append(new_binding)
                        stats.tuples_materialized += 1
                        stats.cost_units += self.binding_cost
        return out

    def _check_edges(self, op, stats, bindings):
        graph = self.graph
        out = []
        label_ids = self._edge_label_ids(op.edge_labels)
        from ..graph.types import NO_EDGE

        for binding in bindings:
            src = binding[op.source]
            dst = binding[op.var]
            stats.cost_units += self.edge_cost
            eid = NO_EDGE
            for lid in label_ids:
                eid = graph.find_edge(src, dst, op.direction, lid)
                if eid != NO_EDGE:
                    break
            if eid != NO_EDGE:
                if op.edge_var:
                    binding = dict(binding)
                    binding[op.edge_var] = eid
                out.append(binding)
        return out

    # ------------------------------------------------------------------
    # RPQ expansion
    # ------------------------------------------------------------------
    def _segment(self, op, query, planner, cross_filters, bound):
        """An RPQ segment's oriented macro elements, its per-repetition
        filters (the macro's WHERE plus the cross filters it claims from
        ``cross_filters``) and the outer variables those filters read."""
        elements, macro_where = resolve_macro_elements(query, op)
        macro_edge_vars = frozenset(e.var for e in elements[1::2] if e.var)
        macro_vertex_vars = {vp.var for vp in elements[0::2] if vp.var}
        macro_vars = macro_vertex_vars | macro_edge_vars
        # A filter may read the macro's edges and the outer MATCH edges
        # alike; a macro vertex shadows an outer edge of the same name.
        binder = DictBinder(self.graph, planner.edge_vars - macro_vertex_vars)
        hop_filters = [compile_expr(c, binder) for c in macro_where]
        outer_refs = set()
        for conjunct in list(cross_filters):
            variables = conjunct.variables()
            if not (variables & macro_vars):
                continue
            if variables - macro_vars - bound:
                raise UnsupportedQueryError(
                    f"cross filter {conjunct} references variables bound after "
                    f"the RPQ segment; only RPQd supports deferred cross filters"
                )
            outer_refs |= variables - macro_vars
            hop_filters.append(compile_expr(conjunct, binder))
            cross_filters.remove(conjunct)
        return elements, hop_filters, outer_refs

    def _expand_rpq_op(
        self, op, query, planner, vertex_filters, cross_filters, state, stats,
        bindings, bound,
    ):
        elements, hop_filters, _outer = self._segment(op, query, planner, cross_filters, bound)
        quant = op.quantifier
        out = []
        already_bound = op.var in bound
        for binding in bindings:
            src = binding[op.source]
            for dst in self.expand_rpq(
                src, elements, hop_filters, quant, binding, state, stats,
                planner, vertex_filters,
            ):
                if already_bound:
                    # RPQ between two already-bound vertices: verify only.
                    if binding[op.var] == dst:
                        out.append(binding)
                    continue
                new_binding = dict(binding)
                if self._passes(
                    op.var, dst, planner, vertex_filters, state, stats, new_binding
                ):
                    out.append(new_binding)
                    stats.tuples_materialized += 1
                    stats.cost_units += self.binding_cost
        return out

    def _macro_successors(
        self, frontier, elements, hop_filters, binding, state, stats,
        planner, vertex_filters,
    ):
        """All vertices reachable from ``frontier`` via ONE macro repetition.

        Yields successor frontiers; evaluates macro vertex labels, per-hop
        filters, and inline cross filters with the macro variables
        temporarily added to the binding.
        """
        graph = self.graph
        vertices = elements[0::2]
        connectors = elements[1::2]

        added = []

        def assign(var, vertex):
            if var:
                binding[var] = vertex
                added.append(var)

        def labels_ok(vp, vertex):
            for name in vp.labels:
                lid = graph.vertex_labels.id_of(name)
                if lid is None or not graph.vertex_has_label(vertex, lid):
                    return False
            return True

        results = []

        def walk(i, vertex):
            vp = vertices[i]
            if not labels_ok(vp, vertex):
                return
            assign(vp.var, vertex)
            if i == len(vertices) - 1:
                state.ctx = binding
                ok = True
                for fn in hop_filters:
                    stats.cost_units += self.filter_cost
                    if not fn(state):
                        ok = False
                        break
                if ok:
                    results.append(vertex)
                return
            edge = connectors[i]
            label_ids = self._edge_label_ids(edge.labels)
            for label_id in label_ids:
                for nbr, eid in graph.neighbors(vertex, edge.direction, label_id):
                    stats.edges_traversed += 1
                    stats.cost_units += self.edge_cost
                    if edge.var:
                        assign(edge.var, eid)
                    walk(i + 1, nbr)

        walk(0, frontier)
        for var in added:
            binding.pop(var, None)
        return results

    def expand_rpq(
        self, src, elements, hop_filters, quant, binding, state, stats,
        planner, vertex_filters,
    ):
        """Return destination vertices reachable within the quantifier."""
        raise NotImplementedError
