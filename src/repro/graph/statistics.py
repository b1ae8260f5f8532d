"""Per-graph statistics the planner's estimates read: a
:class:`~repro.graph.graph.PropertyGraph` is immutable, so they are scanned
once (lazily, ``PropertyGraph.statistics``) and never re-derived per query.
"""

from collections import Counter

import numpy as np

from .types import Direction


class GraphStatistics:
    """Vertex/edge counts and per-label-id histograms of one graph —
    exactly what :func:`repro.plan.estimates.annotate_estimates` reads —
    plus each edge label's maximum fan-out and whether its edges form a
    forest, which the planner reads.

    ``vertices_per_label[label_id]`` counts the vertices carrying the label
    as primary *or* extra label (once each: ``vertex_has_label``);
    ``edges_per_label`` counts edges by their one label.  An id nobody
    carries is absent: read both with ``.get(label_id, 0)``.
    ``max_fanout[(label_id, Direction.OUT)]`` is the most out-edges of that
    label at any one vertex (``IN``: in-edges); an absent key means 0.
    """

    __slots__ = ("num_vertices", "num_edges", "vertices_per_label", "edges_per_label",
                 "max_fanout", "_acyclic")

    def __init__(self, vertex_label_ids, extra_label_ids, edge_src, edge_dst, edge_label_ids):
        self.num_vertices = len(vertex_label_ids)
        self.num_edges = len(edge_label_ids)
        vertices = Counter(vertex_label_ids)
        # Extra-label sets repeat (every comment is also a Message): count
        # each distinct (primary, extras) pair once.
        shapes = Counter(zip(map(vertex_label_ids.__getitem__, extra_label_ids),
                             extra_label_ids.values()))
        for (primary, extra), count in shapes.items():
            for label_id in extra:
                if label_id != primary:
                    vertices[label_id] += count
        self.vertices_per_label = dict(vertices)
        labels = np.fromiter(edge_label_ids, dtype=np.int64, count=self.num_edges)
        per_label = np.bincount(labels).tolist()
        self.edges_per_label = {label_id: n for label_id, n in enumerate(per_label) if n}
        # Fan-out: one numpy pass per direction over (endpoint, label) pairs.
        self.max_fanout = {}
        num_labels = len(per_label)
        ends = []
        for direction, endpoints in ((Direction.OUT, edge_src), (Direction.IN, edge_dst)):
            ends.append(np.fromiter(endpoints, dtype=np.int64, count=self.num_edges))
            keys = ends[-1] * num_labels + labels
            pairs, counts = np.unique(keys, return_counts=True)
            most = np.zeros(num_labels, dtype=np.int64)
            np.maximum.at(most, pairs % num_labels, counts)
            self.max_fanout.update(
                ((label_id, direction), m) for label_id, m in enumerate(most.tolist()) if m
            )
            del keys, pairs, counts  # before the next pass allocates its own
        # Whether each label functional one way or the other is acyclic:
        # every vertex points along its one edge of the label.
        self._acyclic = {}
        for label_id in self.edges_per_label:
            out, into = [self.max_fanout[(label_id, d)] <= 1 for d in (Direction.OUT, Direction.IN)]
            if out or into:
                mine = labels == label_id
                children, parents = ends if out else ends[::-1]
                self._acyclic[label_id] = _acyclic(self.num_vertices, children[mine], parents[mine])

    def functional(self, label_ids, direction):
        """Whether a hop over ``label_ids`` walked in ``direction`` reaches at
        most one neighbor from any vertex: one label (a label no edge carries
        has fan-out 0) whose maximum fan-out that way is <= 1.  A ``BOTH``
        or multi-label hop never is."""
        if direction is Direction.BOTH or len(label_ids) != 1:
            return False
        return self.max_fanout.get((label_ids[0], direction), 0) <= 1

    def forest(self, label_ids, direction):
        """Whether a walk over ``label_ids`` in ``direction`` reaches each
        vertex at most once from any source: one label (one no edge carries
        qualifies) with fan-out <= 1 one way or the other and no cycle.
        Along the walk each walk is a chain; against it, two walks from one
        source never merge.  ``BOTH`` and multi-label hops never qualify."""
        if direction is Direction.BOTH or len(label_ids) != 1:
            return False
        return self._acyclic.get(label_ids[0], label_ids[0] not in self.edges_per_label)


def _acyclic(n, children, parents):
    """Pointer doubling over a parent array of ``n + 1`` ints, ``n`` the root:
    squared ``n.bit_length()`` times, every pointer has taken more than ``n``
    steps, so only one on a cycle is short of the root."""
    pointer = np.full(n + 1, n, dtype=np.int64)
    pointer[children] = parents
    for _ in range(n.bit_length()):
        pointer = pointer[pointer]
    return bool((pointer == n).all())
