"""Per-graph statistics the planner's estimates read: a
:class:`~repro.graph.graph.PropertyGraph` is immutable, so they are scanned
once (lazily, ``PropertyGraph.statistics``) and never re-derived per query.
"""

from collections import Counter


class GraphStatistics:
    """Vertex/edge counts and per-label-id histograms of one graph —
    exactly what :func:`repro.plan.estimates.annotate_estimates` reads.

    ``vertices_per_label[label_id]`` counts the vertices carrying the label
    as primary *or* extra label (once each: ``vertex_has_label``);
    ``edges_per_label`` counts edges by their one label.  An id nobody
    carries is absent: read both with ``.get(label_id, 0)``.
    """

    __slots__ = ("num_vertices", "num_edges", "vertices_per_label", "edges_per_label")

    def __init__(self, vertex_label_ids, extra_label_ids, edge_label_ids):
        self.num_vertices = len(vertex_label_ids)
        self.num_edges = len(edge_label_ids)
        vertices = Counter(vertex_label_ids)
        for v, extra in extra_label_ids.items():
            primary = vertex_label_ids[v]
            for label_id in extra:
                if label_id != primary:
                    vertices[label_id] += 1
        self.vertices_per_label = dict(vertices)
        self.edges_per_label = dict(Counter(edge_label_ids))
