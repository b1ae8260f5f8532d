"""The distributed query plan: a finite automaton of stages and hops.

This mirrors the paper's Section 3.1 "Logical Plan => Distributed Query
Plan" step: every operator becomes a *stage* (state); *hops* are the
transitions.  Stage kinds:

* ``VERTEX`` — match the current vertex (labels + filters), record captures;
* ``NOOP`` — a re-match of an already-matched vertex (after an edge or
  inspection hop): no label/filter evaluation, only the hop executes;
* ``RPQ_CONTROL`` — the RPQ control stage (Section 3.2/3.5 semantics live in
  :mod:`repro.rpq.control`);
* ``PATH`` — a vertex match inside an RPQ repetition;
* ``OUTPUT`` — terminal stage storing projections.

Hop kinds (paper Table 1):

* ``NEIGHBOR`` — follow edges of the current vertex (possibly remote);
* ``EDGE`` — verify an edge between the current vertex and an
  already-matched vertex, ``O(log degree)``, never leaves the machine;
* ``INSPECT`` — transfer execution to the machine of an already-matched
  vertex (non-linear patterns);
* ``TRANSITION`` — move between stages without touching the graph (used
  around RPQ control stages; enables 0-hop matching);
* ``OUTPUT`` — store the projection row (terminal).
"""

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..graph.types import Direction


class StageKind(enum.Enum):
    VERTEX = "vertex"
    NOOP = "noop"
    RPQ_CONTROL = "rpq_control"
    PATH = "path"
    OUTPUT = "output"


class HopKind(enum.Enum):
    NEIGHBOR = "neighbor"
    EDGE = "edge"
    INSPECT = "inspect"
    TRANSITION = "transition"
    OUTPUT = "output"


@dataclass
class Capture:
    """A value stored into the execution context at a stage.

    ``kind`` is ``"vid"`` (the current vertex id), ``"prop"`` (a vertex
    property), ``"label"`` (the vertex's primary label name), or
    ``"acc_min"``/``"acc_max"`` — running accumulators over RPQ repetitions
    used to evaluate deferred cross filters (see
    :mod:`repro.plan.planner`).
    """

    slot: int
    kind: str
    prop: Optional[str] = None


@dataclass
class EdgeCapture:
    """An edge property stored into the context while traversing a hop."""

    slot: int
    prop: str


@dataclass
class Hop:
    """A transition out of a stage; exactly one per non-control stage."""

    kind: HopKind
    target: int = -1  # target stage index (-1 for OUTPUT)
    direction: Direction = Direction.OUT
    edge_label_ids: Tuple[int, ...] = ()  # empty = any label
    anchor_slot: int = -1  # ctx slot of already-matched vertex (EDGE/INSPECT)
    edge_filter: object = None  # compiled fn(state) -> bool, or None
    edge_captures: Tuple[EdgeCapture, ...] = ()
    # For TRANSITION hops into an RPQ control stage: "init" (new source
    # path: depth=0, allocate rpid, reset accumulators) or "advance"
    # (returning from the last path stage: depth += 1).
    control_entry: Optional[str] = None
    # NEIGHBOR: at most one neighbor per vertex (GraphStatistics.functional);
    # EXPLAIN prints it, the runtime ignores it.
    functional: bool = False


@dataclass
class RpqSpec:
    """RPQ-specific configuration attached to an RPQ control stage.

    Attributes:
        rpq_id: index of this RPQ segment within the plan (its reachability
            index instance).
        min_hops / max_hops: quantifier bounds (``max_hops=None`` unbounded).
        path_entry: stage index of the first path stage.
        exit_stage: stage index to transition to for ``min <= depth <= max``.
        path_stages: indexes of all path stages of this segment (for flow
            control partitioning: ``P = len(path_stages)``).
        depth_slot: ctx slot holding the current repetition depth.
        rpid_slot: ctx slot holding the source-path id (rpid).
        accumulator_inits: ``(slot, kind)`` accumulators to reset when a new
            source path enters the control stage at depth 0.
    """

    rpq_id: int
    min_hops: int
    max_hops: Optional[int]
    path_entry: int
    exit_stage: int
    path_stages: Tuple[int, ...]
    depth_slot: int
    rpid_slot: int
    accumulator_inits: Tuple[Tuple[int, str], ...] = ()


@dataclass
class Stage:
    """One automaton state of the distributed plan."""

    index: int
    kind: StageKind
    var: Optional[str] = None
    label_ids: Tuple[Tuple[int, ...], ...] = ()  # AND of OR-groups
    filter: object = None  # compiled fn(state) -> bool, or None
    captures: Tuple[Capture, ...] = ()
    hop: Optional[Hop] = None
    rpq: Optional[RpqSpec] = None
    # Running-accumulator updates for deferred cross filters, evaluated after
    # captures: tuples ``(slot, "min"|"max", compiled value fn)``.  A ``None``
    # value fails the match; old slot values are undone on DFT backtrack.
    acc_updates: Tuple[Tuple[int, str, object], ...] = ()
    # For PATH / RPQ_CONTROL stages: the ctx slot holding this segment's
    # repetition depth (used for message depth tags and flow control).
    depth_slot: int = -1
    # Termination-protocol producers: (producer stage index, depth relation).
    # Depth relations: "same", "plus_one" (producer depth d feeds this stage
    # at depth d+1), "zero" (feeds depth 0), "any" (all producer depths feed
    # this depth-less stage).
    producers: Tuple[Tuple[int, str], ...] = ()
    # Planner estimates (EXPLAIN / EXPLAIN ANALYZE).  ``filter_selectivity``
    # is the combined selectivity of this stage's compiled filters (1.0 when
    # unfiltered), recorded at compile time since the compiled closures are
    # opaque; ``estimated_matches`` is the cardinality estimate filled in by
    # :func:`repro.plan.estimates.annotate_estimates`.
    filter_selectivity: float = 1.0
    estimated_matches: Optional[float] = None

    @property
    def is_rpq_stage(self):
        return self.kind in (StageKind.RPQ_CONTROL, StageKind.PATH)


@dataclass
class ProjectionSpec:
    """A compiled SELECT item: reads context slots only."""

    name: str
    compiled: object  # fn(state) -> value
    aggregate: Optional[str] = None  # count/sum/min/max/avg or None
    distinct: bool = False
    # For aggregates, `compiled` evaluates the aggregate argument (None for
    # COUNT(*)); for plain items it evaluates the projected value.


@dataclass
class DistributedPlan:
    """The complete stage automaton plus result-assembly metadata."""

    stages: list  # [Stage]
    num_slots: int
    projections: Tuple[ProjectionSpec, ...] = ()
    group_by: Tuple[object, ...] = ()  # compiled group-key fns
    having: object = None  # compiled fn(result_row) -> bool, or None
    order_by: Tuple[Tuple[object, bool], ...] = ()  # (compiled, descending)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    has_aggregates: bool = False
    rpq_count: int = 0
    bootstrap_labels: Tuple[Tuple[int, ...], ...] = ()
    bootstrap_single_vertex: Optional[int] = None  # id(v)=const start
    slot_names: Tuple[str, ...] = ()
    # The stages resolved for the DFT loop; filled on first execution by
    # :func:`repro.runtime.steptable.step_table`, never at compile time.
    step_table: Optional[tuple] = field(default=None, repr=False, compare=False)
    # Likewise the termination evaluator's view of the stages
    # (:func:`repro.runtime.termination.termination_table`).
    termination_table: Optional[tuple] = field(default=None, repr=False, compare=False)
    # And flow control's, for one config (:func:`repro.runtime.buffers.flow_table`).
    flow_table: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def num_stages(self):
        return len(self.stages)

    def rpq_specs(self):
        return [s.rpq for s in self.stages if s.rpq is not None]
