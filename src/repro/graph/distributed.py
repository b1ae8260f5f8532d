"""Partitioned view of a property graph for the simulated cluster.

Each simulated machine accesses the graph only through its
:class:`GraphPartition`, which restricts reads to locally-owned vertices —
mirroring the real system where a vertex's adjacency lists and properties
live on its owner machine.  Edges are stored with their source (out-CSR) and
destination (in-CSR), so a machine can enumerate the out-edges of its local
vertices (learning remote destination *ids*) but must ship the execution
context to the destination's owner to read that vertex's labels/properties.
"""

from ..errors import GraphError
from .partition import make_partitioner
from .types import Direction


class DistributedGraph:
    """A :class:`PropertyGraph` plus a partitioning over machines."""

    def __init__(self, graph, num_machines, partitioner="hash"):
        self.graph = graph
        self.num_machines = num_machines
        if isinstance(partitioner, str):
            partitioner = make_partitioner(
                partitioner, graph.num_vertices, num_machines, graph=graph
            )
        elif partitioner.num_machines != num_machines:
            raise GraphError(
                f"partitioner built for {partitioner.num_machines} machines "
                f"cannot partition for {num_machines}"
            )
        self.partitioner = partitioner
        # The owner of every vertex, read per hop by the DFT loop; static under
        # failover, and built before the process backend forks its workers.
        self.owners = [partitioner.owner(v) for v in range(graph.num_vertices)]
        self.partitions = [GraphPartition(self, m) for m in range(num_machines)]
        self._root_tables = {}

    def owner(self, vid):
        return self.owners[vid]

    def partition(self, machine):
        return self.partitions[machine]

    def root_table(self, machine, mask):
        """``machine``'s bootstrap queue for a stage 0 whose first label group
        is the bitmask ``mask``, and its number of roots: the local vertices
        in order, each run the group rejects as one entry ``-n`` (n roots).
        Built once per ``(machine, mask)``, since the graph and its
        partitioning never change."""
        key = (machine, mask)
        cached = self._root_tables.get(key)
        if cached is None:
            masks = self.graph.label_masks
            entries = []
            count = 0
            for v in self.partitioner.local_vertices(machine):
                count += 1
                if masks[v] & mask:
                    entries.append(v)
                elif entries and entries[-1] < 0:
                    entries[-1] -= 1
                else:
                    entries.append(-1)
            cached = self._root_tables[key] = (tuple(entries), count)
        return cached

    def rebuild_partition(self, machine):
        """A fresh partition view for ``machine`` (crash failover).

        The partitioner is deterministic, so a surviving host adopting a
        dead machine's logical id re-derives exactly the same vertex
        ownership — no data movement to model, just a new access surface.
        """
        partition = GraphPartition(self, machine)
        self.partitions[machine] = partition
        return partition

    def balance(self):
        """Return per-machine local vertex counts (for diagnostics)."""
        counts = [0] * self.num_machines
        for m in range(self.num_machines):
            counts[m] = sum(1 for _ in self.partitioner.local_vertices(m))
        return counts


class GraphPartition:
    """Machine-local access surface over the shared graph.

    All vertex-centric reads assert locality, so any accidental remote read
    in engine code fails loudly during tests instead of silently breaking
    the distribution model.
    """

    def __init__(self, dgraph, machine):
        self._dgraph = dgraph
        self.graph = dgraph.graph
        self.machine = machine

    # -- ownership -----------------------------------------------------
    def is_local(self, vid):
        return self._dgraph.owner(vid) == self.machine

    def owner(self, vid):
        return self._dgraph.owner(vid)

    def local_vertices(self):
        return self._dgraph.partitioner.local_vertices(self.machine)

    def check_local(self, vid):
        """Raise :class:`GraphError` unless this machine owns ``vid``."""
        if not self.is_local(vid):
            raise GraphError(
                f"machine {self.machine} accessed remote vertex {vid} "
                f"(owner {self._dgraph.owner(vid)})"
            )

    def raw_reads(self):
        """Unchecked reads for the DFT loop: ``(owner machine per vertex, label
        bitmask per vertex, (out CSR, in CSR), vertex property read, edge
        property read, the graph)``.

        None asserts locality: the loop only reads a vertex it knows to be
        local (a hop compares ``owners[v]`` with its machine, a batch is
        addressed to the vertex's owner) and, under ``sanitize=True``,
        re-checks every vertex entering it with :meth:`check_local`.
        """
        graph = self.graph
        return (
            self._dgraph.owners, graph.label_masks,
            (graph.out_csr, graph.in_csr),
            graph.vprops.get, graph.eprops.get, graph,
        )

    # -- local reads ---------------------------------------------------
    def vertex_has_label(self, vid, label_id):
        self.check_local(vid)
        return self.graph.vertex_has_label(vid, label_id)

    def vertex_property(self, vid, name):
        self.check_local(vid)
        return self.graph.vprops.get(name, vid)

    def vertex_label_name(self, vid):
        self.check_local(vid)
        return self.graph.vertex_label_name(vid)

    def neighbor_runs(self, vid, direction, edge_label_id=None):
        self.check_local(vid)
        return self.graph.neighbor_runs(vid, direction, edge_label_id)

    def degree(self, vid, direction=Direction.OUT):
        self.check_local(vid)
        return self.graph.degree(vid, direction)

    def find_edge(self, src, dst, direction=Direction.OUT, edge_label_id=None):
        """Edge lookup anchored at local vertex ``src`` (dst may be remote)."""
        self.check_local(src)
        return self.graph.find_edge(src, dst, direction, edge_label_id)

    def edge_property(self, eid, name):
        return self.graph.eprops.get(name, eid)
