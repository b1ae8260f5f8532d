"""RPQ control-stage semantics — paper Sections 3.2 and 3.5.

The control stage is entered in one of two modes:

* ``init`` — a source path arrives from the preceding (non-RPQ) stage via a
  transition hop: depth is set to 0, a source path id (rpid) is allocated by
  the worker, and deferred cross-filter accumulators are reset;
* ``advance`` — the last path stage of a repetition transitions back:
  depth is incremented.

The control stage then decides, per the paper:

* ``depth < min_hop`` — continue path matching only;
* ``min_hop <= depth <= max_hop`` — atomically check/update the
  reachability index; on a fresh insert, transition to the exit stage
  (toward output) *and* to the path stages for larger depths; an
  ``ELIMINATED`` outcome declines the match and backtracks; a
  ``DUPLICATED`` outcome emits nothing but may keep exploring deeper;
* ``depth = max_hop`` stops deeper exploration (``depth > max_hop`` never
  occurs because continuation is cut at the boundary).

Every slot write that changes a value (depth, rpid, accumulator resets) is
returned as an undo pair, so backtracking over the control frame restores
the context of the enclosing repetition exactly.
"""

from .reachability import IndexOutcome

_ELIMINATED, _DUPLICATED = IndexOutcome.ELIMINATED, IndexOutcome.DUPLICATED

#: Control-stage actions, iterated in order by the worker's DFT frame.  The
#: exit transition comes first: materializing results early is what keeps
#: the engine's runtime memory low (paper Section 4.4).
ACTION_EXIT = "exit"
ACTION_PATH = "path"

#: The only four action sequences an entry can produce, shared by every
#: entry instead of a fresh list each.
NO_ACTIONS = ()
PATH_ONLY = (ACTION_PATH,)
EXIT_ONLY = (ACTION_EXIT,)
EXIT_THEN_PATH = (ACTION_EXIT, ACTION_PATH)


#: Base bookkeeping cost of a control-stage entry (no index interaction).
ENTRY_COST = 0.2


class RpqController:
    """Executes control-stage entries for one RPQ segment on one machine."""

    def __init__(self, spec, index, stats, tracker, cost=None,
                 machine_id=0, stage_index=-1, obs=None, sanitizer=None):
        self.spec = spec
        # What every entry reads of the spec, as plain attributes.
        self.depth_slot, self.rpid_slot = spec.depth_slot, spec.rpid_slot
        self.min_hops, self.max_hops = spec.min_hops, spec.max_hops
        self.index = index  # this machine's ReachabilityIndex shard (or None)
        self.stats = stats
        self.tracker = tracker
        self.machine_id = machine_id
        self.stage_index = stage_index
        self.obs = obs
        self._depths = {}  # entries per depth since the last flush()
        self.use_index = index is not None
        if sanitizer is not None and index is None and spec.forest:
            self._sanitizer = sanitizer  # checked at no cost, no branch when off
            self.on_entry = self._on_entry_sanitized
        insert = cost.index_insert if cost is not None else 1.4
        if self.use_index and index.preallocated:
            # Bulk-preallocated first level: inserts skip the dynamic
            # allocation (paper Section 4.5 future work).
            insert = cost.index_insert_prealloc if cost is not None else 0.7
        self._insert_cost = ENTRY_COST + insert
        self._hit_cost = ENTRY_COST + (cost.index_hit if cost is not None else 0.6)

    def on_entry(self, vertex, ctx, init, rpid_allocator):
        """Process a control-stage entry; returns ``(actions, cost, undo)``.

        ``init`` is true for a new source path (depth 0, fresh rpid,
        accumulators reset) and false when a repetition returns (depth + 1).
        ``actions`` is one of the four shared action tuples; ``undo`` holds
        a ``(slot, old value)`` pair for every slot whose value changed, to
        be replayed when the DFT backtracks over the control frame.  The
        cost reflects the index interaction: inserts (which dynamically
        allocate second-level entries — the Figure 3 overhead) cost more
        than probes that hit existing entries, and skipping the index is
        cheapest.
        """
        depth_slot = self.depth_slot
        old = ctx[depth_slot]
        if init:
            depth = 0
            undo = [(self.rpid_slot, ctx[self.rpid_slot])]
            ctx[self.rpid_slot] = rpid_allocator.allocate()
            if old != 0:
                undo.append((depth_slot, old))
                ctx[depth_slot] = 0
            for slot, _kind in self.spec.accumulator_inits:
                if ctx[slot] is not None:
                    undo.append((slot, ctx[slot]))
                    ctx[slot] = None
        else:
            depth = old + 1
            undo = ((depth_slot, old),)
            ctx[depth_slot] = depth

        depths = self._depths
        depths[depth] = depths.get(depth, 0) + 1

        can_deepen = self.max_hops is None or depth < self.max_hops
        if depth < self.min_hops:
            if self.obs is not None:
                self._record_entry(depth, "below_min")
            return (PATH_ONLY if can_deepen else NO_ACTIONS), ENTRY_COST, undo

        cost = ENTRY_COST
        if self.use_index:
            outcome = self.index.check_and_update(ctx[self.rpid_slot], vertex, depth)
            if outcome is _ELIMINATED:
                self.stats.record_eliminated(self.spec.rpq_id, depth)
                if self.obs is not None:
                    self._record_entry(depth, "eliminated")
                return NO_ACTIONS, self._hit_cost, undo
            if outcome is _DUPLICATED:
                self.stats.record_duplicated(self.spec.rpq_id, depth)
                if self.obs is not None:
                    self._record_entry(depth, "duplicated")
                return (PATH_ONLY if can_deepen else NO_ACTIONS), self._hit_cost, undo
            cost = self._insert_cost

        if self.obs is not None:
            self._record_entry(depth, "match")
        return (EXIT_THEN_PATH if can_deepen else EXIT_ONLY), cost, undo

    def _on_entry_sanitized(self, vertex, ctx, init, rpid_allocator):
        """:meth:`on_entry`, then the sanitizer's forest-segment check."""
        entry = RpqController.on_entry(self, vertex, ctx, init, rpid_allocator)
        self._sanitizer.on_forest_entry(self, ctx[self.rpid_slot], vertex)
        return entry

    def flush(self):
        """Hand the entries counted since the last flush to the per-depth
        matches and the tracker's maximum depth; the worker calls this when
        its slice ends, as nothing reads either while a slice runs."""
        depths = self._depths
        if depths:
            rpq_id = self.spec.rpq_id
            self.stats.record_control_matches(rpq_id, depths)
            self.tracker.observe_depth(rpq_id, max(depths))
            depths.clear()

    def _record_entry(self, depth, outcome):
        """Trace one control-stage decision (observability path only).

        Every entry emits exactly one ``rpq.control`` instant, so per-depth
        event counts reconcile with ``stats.depth_table()`` exactly:
        total events = matches; ``eliminated``/``duplicated`` outcomes =
        those columns.
        """
        self.obs.instant(
            self.machine_id,
            "rpq.control",
            args={"rpq": self.spec.rpq_id, "depth": depth,
                  "stage": self.stage_index, "outcome": outcome},
            cat="rpq",
        )
