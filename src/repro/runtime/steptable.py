"""The per-plan step table the DFT loop is driven by.

A :class:`~repro.plan.stages.DistributedPlan` describes stages and hops as
dataclasses, enums and tuples of label ids — convenient to compile and
explain, slow to interpret once per traversed vertex.  The first execution
of a plan resolves every stage, once, into one flat :class:`Step` the loop
in :mod:`repro.runtime.worker` indexes by ``stage_idx``: a small-int hop
opcode, a ``frozenset`` label test, captures split by kind, the adjacency
runs a neighbor hop iterates, the hop target and the target's depth slot.
The table is a pure function of the plan — nothing of the graph, the
partition or the cost model is in it — so it is cached on the plan and
shared by every machine, worker and (concurrent) query that executes it.
"""

from ..graph.types import Direction
from ..plan.stages import HopKind, StageKind

# Hop opcodes.  The three that can move execution to another vertex (and so
# to another machine) sort first: the loop tests for them with one
# comparison.  A control stage has no hop of its own, only its actions.
NBR_ONE, NBR_MANY, INSPECT, CONTROL_ACTIONS, TRANSITION, OUTPUT, EDGE = range(7)


class Step:
    """One stage of the plan, resolved for the DFT loop."""

    __slots__ = (
        "label_set", "label_groups", "cap_vid", "cap_prop", "cap_label",
        "filter", "acc_updates", "op", "target", "target_depth_slot", "init",
        "runs", "edge_labels", "direction", "anchor_slot", "edge_filter",
        "edge_captures", "exit_stage", "path_entry",
    )

    def __init__(self, plan, stage):
        # Only VERTEX / PATH stages test and capture anything: a NOOP re-match
        # and a control entry leave every match field empty.
        matches = stage.kind in (StageKind.VERTEX, StageKind.PATH)
        # AND of OR-groups; a label the graph lacks (negative id) matches
        # nothing.  A vertex whose primary label is in ``label_set`` (the
        # groups' intersection) passes outright; any other passes only if
        # its extra labels complete every group.
        groups = [
            frozenset(l for l in group if l >= 0)
            for group in (stage.label_ids if matches else ())
        ]
        self.label_groups = tuple(groups)
        self.label_set = frozenset.intersection(*groups) if groups else None
        captures = stage.captures if matches else ()
        self.cap_vid = tuple(c.slot for c in captures if c.kind == "vid")
        self.cap_prop = tuple((c.slot, c.prop) for c in captures if c.kind == "prop")
        self.cap_label = tuple(c.slot for c in captures if c.kind == "label")
        self.filter = stage.filter if matches else None
        self.acc_updates = stage.acc_updates if matches else ()
        self.target = self.target_depth_slot = self.anchor_slot = -1
        self.exit_stage = self.path_entry = -1
        self.init = False
        self.runs = self.edge_labels = self.edge_captures = ()
        self.direction = self.edge_filter = None
        if stage.kind is StageKind.RPQ_CONTROL:
            self.op = CONTROL_ACTIONS
            self.exit_stage = stage.rpq.exit_stage
            self.path_entry = stage.rpq.path_entry
            return
        hop = stage.hop
        self.target = hop.target
        if hop.target >= 0:
            self.target_depth_slot = plan.stages[hop.target].depth_slot
        self.init = hop.control_entry == "init"
        self.anchor_slot = hop.anchor_slot
        self.direction = hop.direction
        self.edge_filter = hop.edge_filter
        self.edge_captures = tuple((ec.slot, ec.prop) for ec in hop.edge_captures)
        # No label constraint iterates the whole segment (label ``None``).
        self.edge_labels = tuple(
            l for l in (hop.edge_label_ids or (None,)) if l is None or l >= 0
        )
        if hop.kind is HopKind.NEIGHBOR:
            # ``(csr index, label)`` in iteration order: per label the out-run
            # then the in-run (index 0 = out CSR, 1 = in CSR).
            self.runs = tuple(
                (d, label)
                for label in self.edge_labels
                for d in (0, 1)
                if hop.direction is not (Direction.IN, Direction.OUT)[d]
            )
            self.op = NBR_ONE if len(self.runs) == 1 else NBR_MANY
        else:
            self.op = {
                HopKind.EDGE: EDGE,
                HopKind.TRANSITION: TRANSITION,
                HopKind.INSPECT: INSPECT,
                HopKind.OUTPUT: OUTPUT,
            }[hop.kind]


def step_table(plan):
    """The plan's step table, built on first use and cached on the plan."""
    table = plan.step_table
    if table is None:
        table = plan.step_table = tuple(Step(plan, stage) for stage in plan.stages)
    return table
