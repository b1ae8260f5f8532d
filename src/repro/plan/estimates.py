"""Static cardinality estimates for EXPLAIN / EXPLAIN ANALYZE.

:func:`annotate_estimates` walks a compiled :class:`~repro.plan.stages.
DistributedPlan` and fills ``Stage.estimated_matches`` with the planner's
expected number of successful matches per stage, from the same crude
statistics the planner's heuristics use: the graph's cached label
histograms and average degree (:class:`~repro.graph.statistics.
GraphStatistics`, scanned once per graph — a compile never touches
per-vertex or per-edge data), and per-conjunct selectivities (recorded on
``Stage.filter_selectivity`` at compile time).  EXPLAIN renders these next
to the execution's *actual* ``stage_matches`` counters with their q-error,
the per-operator actual-vs-estimated convention of EXPLAIN ANALYZE.

The model is deliberately simple — these are order-of-magnitude numbers
for spotting misestimates, not a cost model:

* a stage's matches = inflow x label selectivity x filter selectivity;
* ``NEIGHBOR`` hops multiply flow by the (label-restricted) average
  out-degree, ``EDGE`` hops by the probability such an edge exists, and
  ``INSPECT``/``TRANSITION`` hops forward flow unchanged;
* an RPQ segment is modelled geometrically: with per-iteration gain ``g``
  (the product of the path stages' selectivities and hop fan-outs), the
  control stage sees ``f0 * (1 + g + ... + g^D)`` arrivals for depth
  bound ``D`` (capped at :data:`DEPTH_CAP` for unbounded quantifiers —
  beyond that the reachability index's duplicate elimination dominates),
  and the exit stage receives the arrivals whose depth lies within the
  quantifier bounds.  Totals are capped at ``TOTAL_CAP_FACTOR x |V|``,
  the regime where the index bounds reachable state.
"""

from ..graph.types import ANY_LABEL, Direction
from .stages import HopKind, StageKind

#: Modelled repetition depth for unbounded RPQ quantifiers.
DEPTH_CAP = 6
#: Per-stage estimate ceiling, as a multiple of the vertex count.
TOTAL_CAP_FACTOR = 100.0
#: Assumed selectivity of an opaque (already-compiled) edge filter.
EDGE_FILTER_SELECTIVITY = 0.5


def annotate_estimates(plan, graph):
    """Fill ``stage.estimated_matches`` on every stage of ``plan``.

    Mutates the plan in place and returns it.  Estimates are floats; the
    cap keeps pathological geometric gains finite.
    """
    stats = graph.statistics
    n = max(1, stats.num_vertices)
    avg_degree = stats.num_edges / n
    cap = TOTAL_CAP_FACTOR * n
    label_count = stats.vertices_per_label.get
    edge_label_count = stats.edges_per_label.get

    def label_selectivity(groups):
        """AND of OR-groups of vertex label ids -> fraction of vertices."""
        sel = 1.0
        for group in groups:
            if any(lid == ANY_LABEL for lid in group):
                continue
            frac = min(1.0, sum(label_count(lid, 0) for lid in group) / n)
            sel *= frac
        return sel

    def edge_fanout(hop):
        """Expected out-neighbors per vertex through ``hop``."""
        if hop.edge_label_ids:
            fanout = sum(
                edge_label_count(lid, 0) for lid in hop.edge_label_ids
            ) / n
        else:
            fanout = avg_degree
        if hop.direction is Direction.BOTH:
            fanout *= 2.0
        if hop.edge_filter is not None:
            fanout *= EDGE_FILTER_SELECTIVITY
        return fanout

    def stage_selectivity(stage):
        return label_selectivity(stage.label_ids) * stage.filter_selectivity

    def hop_factor(hop):
        """Flow multiplier of a hop into its target stage."""
        if hop is None or hop.kind is HopKind.OUTPUT:
            return None
        if hop.kind is HopKind.NEIGHBOR:
            return edge_fanout(hop)
        if hop.kind is HopKind.EDGE:
            # Existence probe against an already-matched anchor vertex.
            return min(1.0, edge_fanout(hop) / n)
        return 1.0  # INSPECT / TRANSITION forward the context unchanged

    # Flow into each stage, accumulated in stage-index order (the compiler
    # emits stages in execution order; only RPQ path loops go backwards,
    # and those are folded into the geometric model below).
    inflow = {i: 0.0 for i in range(len(plan.stages))}
    if plan.stages:
        inflow[0] = 1.0 if plan.bootstrap_single_vertex is not None else float(n)

    rpq_path_stages = set()
    for spec in plan.rpq_specs():
        rpq_path_stages.update(spec.path_stages)

    for stage in plan.stages:
        flow = min(inflow[stage.index], cap)

        if stage.kind is StageKind.RPQ_CONTROL:
            spec = stage.rpq
            f0 = flow  # depth-0 arrivals (init transitions)
            # Per-iteration gain through the path-stage chain.
            g = 1.0
            path = [plan.stages[i] for i in spec.path_stages]
            for ps in path:
                g *= stage_selectivity(ps)
                factor = hop_factor(ps.hop)
                if factor is not None:
                    g *= factor
            depth = spec.max_hops if spec.max_hops is not None else DEPTH_CAP
            depth = min(depth, DEPTH_CAP)
            powers = [f0]
            for _ in range(depth):
                powers.append(min(powers[-1] * g, cap))
            arrivals = min(sum(powers), cap)
            stage.estimated_matches = arrivals
            # Path-chain estimates: departures re-entering the loop are the
            # arrivals below the depth bound; each path stage then thins
            # (or fans out) the flow cumulatively.
            departures = min(sum(powers[:-1]), cap)
            path_flow = departures
            for ps in path:
                path_flow = min(path_flow * stage_selectivity(ps), cap)
                ps.estimated_matches = path_flow
                factor = hop_factor(ps.hop)
                if factor is not None:
                    path_flow = min(path_flow * factor, cap)
            # Exit flow: arrivals whose depth satisfies the quantifier.
            lo = min(spec.min_hops, len(powers) - 1)
            exit_flow = min(sum(powers[lo:]), cap)
            inflow[spec.exit_stage] += exit_flow
            continue

        if stage.index in rpq_path_stages:
            continue  # estimated inside the segment's geometric model

        matched = min(flow * stage_selectivity(stage), cap)
        stage.estimated_matches = matched
        hop = stage.hop
        factor = hop_factor(hop)
        if factor is not None and hop.target >= 0:
            inflow[hop.target] += min(matched * factor, cap)

    return plan
