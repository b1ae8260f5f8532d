"""PostgreSQL-like baseline: semi-naive recursive-CTE evaluation.

Models ``WITH RECURSIVE``: the reachability relation is computed by
iterated joins — each iteration joins the previous delta with the edge
relation, materializes the new tuples, and UNION-dedups them against the
whole accumulated relation.  Unlike the BFS engine, the *entire* recursive
relation stays materialized (``stats.peak_relation``), and every produced
tuple pays join/materialization/dedup costs — the cost profile of a
relational engine without a graph index.

Sources sharing the same correlated filter values are batched into one
recursive evaluation, the way a single recursive CTE serves all rows of the
outer query.
"""

from collections import defaultdict

from .base import BaselineEngine


class RecursiveEngine(BaselineEngine):
    """Single-machine semi-naive recursive engine (PostgreSQL-like)."""

    name = "recursive"

    # Relational evaluation: every join output tuple is materialized and
    # hashed for UNION dedup; per-tuple costs dominate.  Calibration: the
    # paper reports RPQd-4 at ~16x PostgreSQL on the full workload and two
    # orders of magnitude on the deep original queries — a relational engine
    # without a graph index pays full tuple materialization (MVCC headers,
    # hash joins) per expansion, roughly an order of magnitude over a CSR
    # pointer chase.
    edge_cost = 8.0  # join probe against the edge relation
    tuple_cost = 6.0  # materializing a result tuple
    dedup_cost = 4.0  # hashing into the UNION-ed relation
    binding_cost = 4.0
    filter_cost = 1.0

    def _expand_rpq_op(
        self, op, query, planner, vertex_filters, cross_filters, state, stats,
        bindings, bound,
    ):
        elements, hop_filters, outer_refs = self._segment(
            op, query, planner, cross_filters, bound
        )

        # One recursive evaluation per distinct (source, correlated values)
        # group — the CTE is shared by all outer rows it serves.
        groups = defaultdict(list)
        for binding in bindings:
            key = (binding[op.source],) + tuple(
                binding.get(v) for v in sorted(outer_refs)
            )
            groups[key].append(binding)

        out = []
        already_bound = op.var in bound
        for key, members in groups.items():
            src = key[0]
            representative = members[0]
            destinations = self.expand_rpq(
                src, elements, hop_filters, op.quantifier, representative,
                state, stats, planner, vertex_filters,
            )
            for binding in members:
                if already_bound:
                    if binding[op.var] in destinations:
                        out.append(binding)
                    continue
                for dst in destinations:
                    new_binding = dict(binding)
                    if self._passes(
                        op.var, dst, planner, vertex_filters, state, stats, new_binding
                    ):
                        out.append(new_binding)
                        stats.tuples_materialized += 1
                        stats.cost_units += self.tuple_cost
        return out

    def expand_rpq(
        self, src, elements, hop_filters, quant, binding, state, stats,
        planner, vertex_filters,
    ):
        # Semi-naive iteration over (vertex, depth) rows, the way a
        # ``WITH RECURSIVE r(v, d)`` accumulates UNION-distinct rows with a
        # depth column.  Bounded quantifiers recurse to ``max`` and project
        # rows with ``d BETWEEN min AND max``; unbounded quantifiers recurse
        # to depth ``min`` on (v, d) rows and then switch to vertex-distinct
        # rows (any longer suffix reaches no new vertex).  This keeps walk
        # semantics identical to RPQd for min >= 2.
        relation = {(src, 0)}
        delta = {src}
        results = set()
        if quant.min == 0:
            results.add(src)
        depth = 0
        while delta and (quant.max is None or depth < quant.max):
            if quant.max is None and depth >= quant.min:
                break
            depth += 1
            new_delta = set()
            for vertex in delta:
                for successor in self._macro_successors(
                    vertex, elements, hop_filters, binding, state, stats,
                    planner, vertex_filters,
                ):
                    stats.cost_units += self.tuple_cost + self.dedup_cost
                    stats.tuples_materialized += 1
                    row = (successor, depth)
                    if row in relation:
                        continue
                    relation.add(row)
                    new_delta.add(successor)
            delta = new_delta
            if depth >= quant.min:
                results |= delta
            if len(relation) > stats.peak_relation:
                stats.peak_relation = len(relation)
        if quant.max is None:
            # Vertex-distinct closure over the exact-min frontier.
            visited = set(delta)
            results |= delta
            frontier = delta
            while frontier:
                nxt = set()
                for vertex in frontier:
                    for successor in self._macro_successors(
                        vertex, elements, hop_filters, binding, state, stats,
                        planner, vertex_filters,
                    ):
                        stats.cost_units += self.tuple_cost + self.dedup_cost
                        stats.tuples_materialized += 1
                        if successor not in visited:
                            visited.add(successor)
                            nxt.add(successor)
                frontier = nxt
                results |= frontier
                if len(relation) + len(visited) > stats.peak_relation:
                    stats.peak_relation = len(relation) + len(visited)
        return sorted(results)
