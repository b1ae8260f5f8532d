"""The per-plan step table the DFT loop is driven by.

A :class:`~repro.plan.stages.DistributedPlan` describes stages and hops as
dataclasses, enums and tuples of label ids — convenient to compile and
explain, slow to interpret once per traversed vertex.  The first execution
of a plan resolves every stage, once, into one flat :class:`Step` the loop
in :mod:`repro.runtime.worker` indexes by ``stage_idx``: a small-int hop
opcode, label-group bitmasks, captures by kind, a neighbor hop's adjacency
runs, the hop target and its depth slot, whether a match is bare (vid
captures only), and on a transition into an RPQ control stage the fused
chain.  The table is a pure function of the plan —
nothing of the graph, the partition or the cost model is in it — so it is
cached on the plan and shared by every machine, worker and (concurrent)
query that executes it.
"""

from functools import reduce
from operator import or_

from ..graph.types import Direction
from ..plan.stages import HopKind, StageKind

# Hop opcodes.  The three that can move execution to another vertex (and so
# to another machine) sort first: the loop tests for them with one
# comparison.  A control stage has no hop of its own, only its actions.
NBR_ONE, NBR_MANY, INSPECT, CONTROL_ACTIONS, TRANSITION, OUTPUT, EDGE = range(7)
# What :class:`Step` reads of the plan's enums, looked up once; a neighbor
# hop's opcode (``None`` here) depends on its runs, and it has no in-run
# (index 1) when it goes out and no out-run (index 0) when it comes in.
_VERTEX, _PATH, _CONTROL = StageKind.VERTEX, StageKind.PATH, StageKind.RPQ_CONTROL
_OPS = {HopKind.NEIGHBOR: None, HopKind.EDGE: EDGE, HopKind.TRANSITION: TRANSITION,
        HopKind.INSPECT: INSPECT, HopKind.OUTPUT: OUTPUT}
_SKIPPED_RUN = {Direction.OUT: 1, Direction.IN: 0}


class Step:
    """One stage of the plan, resolved for the DFT loop."""

    __slots__ = (
        "label_mask", "label_rest", "cap_vid", "cap_prop", "cap_label",
        "filter", "acc_updates", "op", "target", "target_depth_slot", "init",
        "runs", "edge_labels", "direction", "anchor_slot", "edge_filter",
        "edge_captures", "exit_stage", "path_entry", "chain", "bare",
    )

    def __init__(self, plan, stage):
        kind = stage.kind
        # Only VERTEX / PATH stages test and capture anything: a NOOP re-match
        # and a control entry leave every match field empty.
        if kind is _VERTEX or kind is _PATH:
            # AND of OR-groups as bitmasks (an absent label's negative id sets
            # no bit): a vertex's label mask must meet ``label_mask`` and the
            # rare rest.
            masks = [reduce(or_, [1 << l for l in group if l >= 0], 0) for group in stage.label_ids]
            captures = stage.captures
            self.cap_vid = tuple([c.slot for c in captures if c.kind == "vid"])
            self.cap_prop = tuple([(c.slot, c.prop) for c in captures if c.kind == "prop"])
            self.cap_label = tuple([c.slot for c in captures if c.kind == "label"])
            self.filter, self.acc_updates = stage.filter, stage.acc_updates
        else:
            masks = ()
            self.cap_vid = self.cap_prop = self.cap_label = self.acc_updates = ()
            self.filter = None
        self.label_mask = masks[0] if masks else None
        self.label_rest = tuple(masks[1:])
        # A bare stage's match is its vid captures: no label test, filter or
        # accumulator (a fused chain's path stages and advance transition).
        self.bare = kind is not _CONTROL and self.label_mask is None and _bare(self)
        self.target = self.target_depth_slot = self.anchor_slot = -1
        self.exit_stage = self.path_entry = -1
        self.init = False
        self.runs = self.edge_labels = self.edge_captures = ()
        self.direction = self.edge_filter = self.chain = None
        if kind is _CONTROL:
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
        if hop.edge_captures:
            self.edge_captures = tuple([(ec.slot, ec.prop) for ec in hop.edge_captures])
        # No label constraint iterates the whole segment (label ``None``).
        self.edge_labels = tuple([
            l for l in (hop.edge_label_ids or (None,)) if l is None or l >= 0
        ])
        self.op = _OPS[hop.kind]
        if self.op is None:
            # ``(csr index, label)`` in iteration order: per label the out-run
            # then the in-run (index 0 = out CSR, 1 = in CSR).
            skip = _SKIPPED_RUN.get(hop.direction)
            self.runs = tuple([
                (d, label) for label in self.edge_labels for d in (0, 1) if d != skip
            ])
            self.op = NBR_ONE if len(self.runs) == 1 else NBR_MANY


def _bare(step):
    """A match of ``step`` captures the vertex id only: no filter or accumulator."""
    return step.filter is None and not (step.cap_prop or step.cap_label or step.acc_updates)


def _chain(steps, control):
    """The fused chain of a transition into ``control``, or ``None``.

    The RPQ's path must be one neighbor hop, without edge filter or edge
    captures, between two unlabelled :func:`_bare` path stages.  The chain
    is ``(control, exit stage, exit step, path entry, path entry's step,
    filtered)``; the exit step is ``None`` — the chain then stops at the
    exit action — unless the exit stage emits the row after a match of one
    label group, its vertex id and property captures and at most a vertex
    filter (``filtered``: that match then charges a filter evaluation).
    """
    entry, exit_stage = steps[control].path_entry, steps[control].exit_stage
    path, exit_step, last = steps[entry], steps[exit_stage], steps[steps[entry].target]
    if not (
        path.op in (NBR_ONE, NBR_MANY) and path.edge_filter is None and not path.edge_captures
        and last.op == TRANSITION and last.target == control
        and all(s.label_mask is None and _bare(s) for s in (path, last))
    ):
        return None
    if (exit_step.op != OUTPUT or exit_step.label_rest or exit_step.cap_label
            or exit_step.acc_updates):
        exit_step = None
    filtered = exit_step is not None and exit_step.filter is not None
    return (control, exit_stage, exit_step, entry, path, filtered)


def step_table(plan):
    """The plan's step table, built on first use and cached on the plan."""
    table = plan.step_table
    if table is None:
        table = tuple(Step(plan, stage) for stage in plan.stages)
        for step in table:
            if step.op == TRANSITION and table[step.target].op == CONTROL_ACTIONS:
                step.chain = _chain(table, step.target)
        plan.step_table = table
    return table
