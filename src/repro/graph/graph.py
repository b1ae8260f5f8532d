"""The in-memory property graph.

A :class:`PropertyGraph` is immutable after construction (build it with
:class:`repro.graph.builder.GraphBuilder`).  Vertices carry one primary label
plus optional extra labels (used, e.g., for the LDBC ``Message`` supertype of
``Post``/``Comment``); edges carry exactly one label.  Both can hold typed
key-value properties.
"""

from functools import cached_property

from .csr import Csr
from .labels import LabelTable
from .properties import DensePropertyStore, SparsePropertyStore
from .statistics import GraphStatistics
from .types import NO_EDGE, Direction


class PropertyGraph:
    """Immutable labelled property graph with out/in CSR adjacency."""

    def __init__(
        self,
        vertex_labels,
        edge_labels,
        vertex_label_ids,
        extra_label_ids,
        edge_src,
        edge_dst,
        edge_label_ids,
        vprops,
        eprops,
    ):
        self.vertex_labels: LabelTable = vertex_labels
        self.edge_labels: LabelTable = edge_labels
        self.vertex_label_ids = vertex_label_ids
        self._extra_label_ids = extra_label_ids
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.edge_label_ids = edge_label_ids
        self.vprops: DensePropertyStore = vprops
        self.eprops: SparsePropertyStore = eprops
        n = len(vertex_label_ids)
        self.out_csr = Csr.build(n, edge_src, edge_dst, edge_label_ids)
        self.in_csr = Csr.build(n, edge_dst, edge_src, edge_label_ids)

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self):
        return len(self.vertex_label_ids)

    @property
    def num_edges(self):
        return len(self.edge_src)

    def vertices(self):
        """Iterate all vertex ids."""
        return range(self.num_vertices)

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def vertex_has_label(self, v, label_id):
        """True iff vertex ``v`` carries ``label_id`` (primary or extra)."""
        if self.vertex_label_ids[v] == label_id:
            return True
        extra = self._extra_label_ids.get(v)
        return extra is not None and label_id in extra

    @cached_property
    def label_masks(self):
        """Per vertex, bit ``l`` set for its primary and extra label ids: the
        DFT loop's label test is one AND with a stage's group mask."""
        masks = [1 << label for label in self.vertex_label_ids]
        for v, extra in self._extra_label_ids.items():
            masks[v] |= sum(1 << label for label in extra)  # a frozenset
        return masks

    def vertex_label_name(self, v):
        return self.vertex_labels.name_of(self.vertex_label_ids[v])

    def vertex_label_names(self, v):
        names = [self.vertex_label_name(v)]
        for label_id in sorted(self._extra_label_ids.get(v, ())):
            names.append(self.vertex_labels.name_of(label_id))
        return names

    def edge_label_name(self, e):
        return self.edge_labels.name_of(self.edge_label_ids[e])

    def vertices_with_label(self, label_id):
        """Iterate vertex ids carrying ``label_id`` (linear scan)."""
        for v in range(self.num_vertices):
            if self.vertex_has_label(v, label_id):
                yield v

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def csr(self, direction):
        if direction is Direction.OUT:
            return self.out_csr
        if direction is Direction.IN:
            return self.in_csr
        raise ValueError("csr() needs OUT or IN; expand BOTH at the call site")

    def neighbor_runs(self, v, direction, edge_label_id=None):
        """Yield ``(csr, lo, hi)`` adjacency runs for ``v``.

        ``BOTH`` yields the out-run then the in-run; callers iterate
        ``csr.nbr[lo:hi]`` / ``csr.eid[lo:hi]`` directly.
        """
        if direction is not Direction.IN:
            lo, hi = self.out_csr.segment(v, edge_label_id)
            if lo < hi:
                yield self.out_csr, lo, hi
        if direction is not Direction.OUT:
            lo, hi = self.in_csr.segment(v, edge_label_id)
            if lo < hi:
                yield self.in_csr, lo, hi

    def neighbors(self, v, direction=Direction.OUT, edge_label_id=None):
        """Yield ``(neighbor, edge_id)`` pairs for ``v``."""
        for csr, lo, hi in self.neighbor_runs(v, direction, edge_label_id):
            nbr, eid = csr.nbr, csr.eid
            for i in range(lo, hi):
                yield nbr[i], eid[i]

    def degree(self, v, direction=Direction.OUT):
        if direction is Direction.OUT:
            return self.out_csr.degree(v)
        if direction is Direction.IN:
            return self.in_csr.degree(v)
        return self.out_csr.degree(v) + self.in_csr.degree(v)

    def find_edge(self, src, dst, direction=Direction.OUT, edge_label_id=None):
        """Return an edge id connecting ``src`` to ``dst`` or ``NO_EDGE``.

        Directionality is interpreted from ``src``'s point of view:
        ``OUT`` looks for ``src -> dst``, ``IN`` for ``dst -> src``, and
        ``BOTH`` for either.
        """
        if direction is not Direction.IN:
            e = self.out_csr.find_edge(src, dst, edge_label_id)
            if e != NO_EDGE:
                return e
        if direction is not Direction.OUT:
            e = self.in_csr.find_edge(src, dst, edge_label_id)
            if e != NO_EDGE:
                return e
        return NO_EDGE

    # ------------------------------------------------------------------
    # Stats / debugging
    # ------------------------------------------------------------------
    @cached_property
    def statistics(self):
        """The graph's :class:`GraphStatistics`, scanned on first use."""
        return GraphStatistics(
            self.vertex_label_ids, self._extra_label_ids, self.edge_label_ids
        )

    def label_histogram(self):
        """Return ``{label name: vertex count}`` over primary labels."""
        hist = {}
        for v in range(self.num_vertices):
            name = self.vertex_label_name(v)
            hist[name] = hist.get(name, 0) + 1
        return hist

    def __repr__(self):
        return (
            f"PropertyGraph(vertices={self.num_vertices}, edges={self.num_edges}, "
            f"vertex_labels={len(self.vertex_labels)}, edge_labels={len(self.edge_labels)})"
        )
