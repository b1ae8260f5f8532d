"""The reachability index — paper Section 3.5.

A distributed map from ``rpid = (source path id, destination vertex)`` to
the smallest observed repetition depth.  It serves two purposes: duplicate
elimination (homomorphic reachability accounts each ``(source path,
destination)`` pair exactly once) and cycle avoidance (a path that returns
to a vertex at greater-or-equal depth is pruned, so unbounded RPQs
terminate on cyclic graphs).

The paper implements the first level as an array of atomic pointers over
the dense vertex-id range, with a parallel map per vertex as the second
level; we model the same two-level shape with a dict first level (Python
lists of 10^5+ mostly-``None`` slots would waste memory at our scales) and a
plain dict second level.  Atomicity is guaranteed by the cooperative
scheduler: an index check-and-update never spans a preemption point.

The index is partitioned by destination vertex: entries live on the
machine owning the destination, which is exactly where the RPQ control
stage executes for that frontier vertex — so all index operations are
machine-local, as in the paper.
"""

import enum

#: Modelled bytes per index entry (paper Section 4.4: 12 bytes).
ENTRY_BYTES = 12


class IndexOutcome(enum.Enum):
    """Result of an atomic check-and-update."""

    INSERTED = "inserted"  # first time this (source, destination) is seen
    ELIMINATED = "eliminated"  # already reached at a lower-or-equal depth
    DUPLICATED = "duplicated"  # already reached at a greater depth


#: Modelled bytes per preallocated first-level pointer slot.
POINTER_BYTES = 8


class ReachabilityIndex:
    """One machine's shard of one RPQ segment's reachability index.

    With ``preallocate_size`` set, the first-level pointer array is treated
    as bulk-allocated over the machine's local vertex range up front — the
    paper's "pre/bulk-allocating the index can trade memory for
    performance" future-work option: inserts skip the dynamic first-level
    allocation (cheaper, see the controller's cost accounting) in exchange
    for ``POINTER_BYTES`` per local vertex of up-front memory.
    """

    def __init__(
        self,
        machine_id,
        rpq_id,
        preallocate_size=None,
        sanitizer=None,
        query_id=0,
        prof=None,
    ):
        self.machine_id = machine_id
        self.rpq_id = rpq_id
        # Multi-query runtime: index shards are instantiated per query, so
        # entries are keyed by (query_id, rpq_id, rpid) across the cluster —
        # one query's reachability facts never prune another's traversal.
        self.query_id = query_id
        self._san = sanitizer
        self._first_level = {}  # {dst vertex: {source path id: depth}}
        self.preallocated = preallocate_size is not None
        self.prealloc_bytes = (
            POINTER_BYTES * preallocate_size if self.preallocated else 0
        )
        self.entries = 0
        self.inserts = 0
        self.updates = 0
        # Wall-clock profiling (:mod:`repro.obs.prof`): probes are the
        # hottest index path, so instead of a per-call ``if prof`` branch
        # the *instance* method is shadowed with the timed variant — the
        # disabled path is completely untouched.
        self.prof = prof
        if prof is not None:
            self.check_and_update = self._check_and_update_profiled

    def _check_and_update_profiled(self, source_path_id, dst_vertex, depth):
        prof = self.prof
        prof.enter("index.probe")
        outcome = ReachabilityIndex.check_and_update(
            self, source_path_id, dst_vertex, depth
        )
        prof.exit()
        return outcome

    def check_and_update(self, source_path_id, dst_vertex, depth):
        """Atomically consult and update the index for one control-stage visit.

        Returns an :class:`IndexOutcome`:

        * ``INSERTED`` — new entry at ``depth``; the match proceeds to the
          exit stage and (depth permitting) deeper exploration.
        * ``ELIMINATED`` — the destination was already reached at a
          lower-or-equal depth; the match is declined and the exploration
          backtracks (this is also the cycle guard).
        * ``DUPLICATED`` — the destination was already reached at a
          *greater* depth (depth-first work raced ahead); the stored depth
          is lowered, no new result is emitted, but deeper exploration may
          continue since the shallower arrival can reach further within a
          bounded quantifier.
        """
        second_level = self._first_level.get(dst_vertex)
        if second_level is None:
            self._first_level[dst_vertex] = {source_path_id: depth}
            self.entries += 1
            self.inserts += 1
            return IndexOutcome.INSERTED
        old = second_level.get(source_path_id)
        if old is None:
            second_level[source_path_id] = depth
            self.entries += 1
            self.inserts += 1
            return IndexOutcome.INSERTED
        if old <= depth:
            return IndexOutcome.ELIMINATED
        if self._san is not None:
            self._san.on_index_overwrite(self, source_path_id, dst_vertex, old, depth)
        second_level[source_path_id] = depth
        self.updates += 1
        return IndexOutcome.DUPLICATED

    # -- crash recovery (:mod:`repro.recovery`) -------------------------
    def checkpoint_state(self):
        """Snapshot this shard: the two-level map plus its counters."""
        return (
            {v: dict(seconds) for v, seconds in self._first_level.items()},
            self.entries,
            self.inserts,
            self.updates,
        )

    def restore_state(self, state):
        first_level, entries, inserts, updates = state
        self._first_level = {v: dict(s) for v, s in first_level.items()}
        self.entries = entries
        self.inserts = inserts
        self.updates = updates

    def depth_of(self, source_path_id, dst_vertex):
        second_level = self._first_level.get(dst_vertex)
        if second_level is None:
            return None
        return second_level.get(source_path_id)

    @property
    def modelled_bytes(self):
        return self.entries * ENTRY_BYTES + self.prealloc_bytes

    def __len__(self):
        return self.entries
