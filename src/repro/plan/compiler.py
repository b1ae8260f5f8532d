"""Compilation of the logical plan into the distributed stage automaton.

This is the paper's "Logical Plan => Distributed Query Plan => Execution
Plan" pipeline (Section 3.1): RPQ operators expand into an RPQ control stage
plus path stages connected by transition hops; context slot layout is fixed;
filters and projections are compiled to closures that read only context
slots (all property values are *captured* into the context at the stage
where their vertex is matched, exactly like the blue context entries of the
paper's Figure 1).
"""

from ..errors import PlanningError
from ..graph.types import Direction
from ..pgql.ast import (
    Aggregate,
    Binary,
    EdgePattern,
    InList,
    IsNull,
    Literal,
    Unary,
    VarRef,
    VertexPattern,
    rename_vars,
    split_conjuncts,
)
from ..pgql.expressions import Binder, compare_values, compile_expr
from .logical import (
    EdgeMatchOp,
    InspectOp,
    NeighborMatchOp,
    OutputOp,
    RpqMatchOp,
    VertexMatchOp,
)
from .estimates import annotate_estimates
from .planner import Planner, collect_label_refs, conjunct_selectivity, query_expressions
from .stages import (
    Capture,
    DistributedPlan,
    EdgeCapture,
    Hop,
    HopKind,
    ProjectionSpec,
    RpqSpec,
    Stage,
    StageKind,
)

#: Label id that matches no vertex/edge (used for labels absent from the graph).
IMPOSSIBLE_LABEL = -2

_FLIPPED_CMP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def resolve_macro_elements(query, op):
    """Resolve an RPQ operator's macro into oriented pattern elements.

    Returns ``(elements, where_conjuncts)`` where ``elements`` alternate
    :class:`VertexPattern` / :class:`EdgePattern`, oriented for traversal
    from ``op.source``: reversed (with flipped edge directions) when the
    planner anchors at the segment's written destination, and with edges
    forced to ``BOTH`` for undirected segments.  When no PATH macro matches
    ``op.macro_name``, the name is treated as a single edge label.

    Shared by the distributed compiler and the single-machine baselines so
    all engines interpret RPQ segments identically.
    """
    macro = query.macro(op.macro_name)
    if macro is not None:
        elements = list(macro.pattern.elements)
        where = split_conjuncts(macro.where)
    else:
        elements = [
            VertexPattern(var=None),
            EdgePattern(var=None, labels=(op.macro_name,), direction=Direction.OUT),
            VertexPattern(var=None),
        ]
        where = []

    if op.direction is Direction.IN:
        reversed_order = True
        force_both = False
    elif op.direction is Direction.BOTH:
        reversed_order = op.reversed_macro
        force_both = True
    else:
        reversed_order = False
        force_both = False

    if reversed_order:
        elements = list(reversed(elements))
        elements = [
            EdgePattern(e.var, e.labels, e.direction.reverse())
            if isinstance(e, EdgePattern)
            else e
            for e in elements
        ]
    if force_both:
        elements = [
            EdgePattern(e.var, e.labels, Direction.BOTH)
            if isinstance(e, EdgePattern)
            else e
            for e in elements
        ]
    for e in elements[1::2]:
        if not isinstance(e, EdgePattern):
            raise PlanningError("PATH macro patterns cannot nest RPQ segments")
    return elements, where


def select_column(query, expr):
    """Index of the first SELECT item that ``expr`` names — by its text, or a
    bare name by the item's alias — or ``None``.  ORDER BY items and HAVING
    subtrees resolve to columns through this one rule."""
    text = str(expr)
    alias = expr.var if isinstance(expr, VarRef) else None
    for i, item in enumerate(query.select):
        if str(item.expr) == text or (alias is not None and item.alias == alias):
            return i
    return None


def resolve_order_by(query):
    """Map ORDER BY items onto SELECT column indexes: ``((idx, desc), ...)``."""
    resolved = []
    for item in query.order_by:
        target = select_column(query, item.expr)
        if target is None:
            raise PlanningError(
                f"ORDER BY item {item.expr} must match a SELECT item or alias"
            )
        resolved.append((target, item.descending))
    return tuple(resolved)


class _ColumnBinder(Binder):
    """Binder over a result row, for HAVING: ``VarRef(i)`` reads column ``i``."""

    def vertex(self, column):
        return lambda row: row[column]


def compile_having(query):
    """Compile ``HAVING`` into a predicate over *result rows*.

    Every subtree that names a SELECT column (:func:`select_column`) becomes
    a read of that column; what is left must be literals and operators.  That
    covers the standard ``HAVING COUNT(*) > n`` shapes without a second
    aggregation pass, and the tree compiles like any other expression.
    """
    if query.having is None:
        return None

    def columns(node):
        index = select_column(query, node)
        if index is not None:
            return VarRef(index)
        if isinstance(node, Literal):
            return node
        if isinstance(node, Unary):
            return Unary(node.op, columns(node.operand))
        if isinstance(node, Binary):
            return Binary(node.op, columns(node.left), columns(node.right))
        if isinstance(node, InList):
            return InList(columns(node.operand), node.values, node.negated)
        if isinstance(node, IsNull):
            return IsNull(columns(node.operand), node.negated)
        raise PlanningError(f"HAVING item {node} must match a SELECT item or alias")

    return compile_expr(columns(query.having), _ColumnBinder())


def result_shape(query, binder):
    """The result fields of a :class:`DistributedPlan` for ``query``:
    projections, GROUP BY keys, HAVING, ORDER BY, LIMIT / OFFSET and
    DISTINCT.  ``binder`` says what projections and keys read (context slots
    on RPQd, a binding dict on the baselines); everything else is shared."""
    projections = []
    has_aggregates = False
    for item in query.select:
        name = item.alias or str(item.expr)
        expr = item.expr
        if isinstance(expr, Aggregate):
            has_aggregates = True
            projections.append(
                ProjectionSpec(
                    name=name,
                    compiled=None if expr.arg is None else compile_expr(expr.arg, binder),
                    aggregate=expr.func,
                    distinct=expr.distinct,
                )
            )
        elif expr.contains_aggregate():
            raise PlanningError(f"aggregates must be top-level SELECT items (got {expr})")
        else:
            projections.append(ProjectionSpec(name=name, compiled=compile_expr(expr, binder)))
    if has_aggregates:
        group_exprs = {str(e) for e in query.group_by}
        for item in query.select:
            if not isinstance(item.expr, Aggregate) and str(item.expr) not in group_exprs:
                raise PlanningError(
                    f"non-aggregate SELECT item {item.expr} must appear in GROUP BY"
                )
    return dict(
        projections=tuple(projections),
        group_by=tuple(compile_expr(e, binder) for e in query.group_by),
        order_by=resolve_order_by(query),
        having=compile_having(query),
        limit=query.limit,
        offset=query.offset,
        distinct=query.distinct,
        has_aggregates=has_aggregates,
    )


class SlotTable:
    """Dense context-slot allocation keyed by structured names."""

    def __init__(self):
        self._index = {}
        self._names = []

    def add(self, name):
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
        return idx

    def get(self, name):
        return self._index.get(name)

    @property
    def names(self):
        return tuple(self._names)

    def __len__(self):
        return len(self._names)


class SlotBinder(Binder):
    """Expression binder reading context slots (and the live edge, if any).

    ``state`` at evaluation time is an object with attributes ``ctx`` (the
    slot list), ``edge`` (current edge id during hop evaluation), and
    ``partition`` (the machine-local graph view).

    Slot indexes resolve *lazily* (memoized on first evaluation): filters
    can legally be compiled before every slot they read has been allocated —
    e.g. a deferred cross filter's later-bound side — and the slot table
    only grows during compilation.
    """

    def __init__(self, slots, edge_var=None):
        self.slots = slots
        self.edge_var = edge_var

    def _slot_reader(self, name):
        slots = self.slots
        cache = []

        def read(state):
            if cache:
                return state.ctx[cache[0]]
            idx = slots.get(name)
            if idx is None:
                return None
            cache.append(idx)
            return state.ctx[idx]

        return read

    def vertex(self, var):
        return self._slot_reader(f"v:{var}")

    def prop(self, var, prop):
        if self.edge_var is not None and var == self.edge_var:
            return lambda state: state.partition.edge_property(state.edge, prop)
        return self._slot_reader(f"p:{var}.{prop}")

    def label(self, var):
        return self._slot_reader(f"l:{var}")


def _and_filters(fns):
    """Combine compiled boolean closures into one (or ``None`` if empty)."""
    if not fns:
        return None
    if len(fns) == 1:
        return fns[0]
    fns = tuple(fns)

    def combined(state):
        for fn in fns:
            if not fn(state):
                return False
        return True

    return combined


class _PendingFilter:
    """A WHERE conjunct waiting for all of its variables to be bound."""

    def __init__(self, conjunct, needed_vars, compiled=None):
        self.conjunct = conjunct  # Expr, or None when precompiled
        self.needed = set(needed_vars)
        self.compiled = compiled  # precompiled closure (deferred checks)


class _PendingAccumulator:
    """A deferred cross filter's per-repetition accumulator update."""

    def __init__(self, slot, kind, value_expr, needed_vars):
        self.slot = slot
        self.kind = kind  # "min" | "max"
        self.value_expr = value_expr
        self.needed = set(needed_vars)


class PlanCompiler:
    """Compiles a parsed :class:`~repro.pgql.ast.Query` for a graph.

    ``scouting=True`` enables sampled-selectivity planning (see
    :mod:`repro.plan.scouting`).
    """

    def __init__(self, query, graph, scouting=False, scout_samples=64):
        self.query = query
        self.graph = graph
        scout = None
        if scouting:
            from .scouting import Scout

            scout = Scout(graph, samples=scout_samples)
        self.planner = Planner(query, scout=scout, graph=graph)
        self.logical = self.planner.plan()
        self.slots = SlotTable()
        self.stages = []
        self.bound = set()  # bound variable names (vertex and edge vars)
        self.pending_filters = []
        self.pending_accs = []
        self.needed_props = {}  # var -> set(prop)
        self.needed_labels = set()  # vars whose LABEL() is referenced
        self.rpq_counter = 0
        self.accumulator_counter = 0
        self._current_macro_vars = set()  # macro vars of the segment being emitted

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def compile(self):
        self._collect_needed_values()
        self._seed_pending_filters()

        prev_stage = None
        for op in self.logical.ops:
            if isinstance(op, VertexMatchOp):
                stage = self._emit_vertex_stage(op.var, StageKind.VERTEX)
                prev_stage = stage
            elif isinstance(op, NeighborMatchOp):
                hop = self._make_neighbor_hop(op)
                stage = self._emit_vertex_stage(op.var, StageKind.VERTEX)
                hop.target = stage.index
                prev_stage.hop = hop
                self._add_producer(stage, prev_stage.index, "same")
                self._bind_edge_var(op.edge_var, hop, stage)
                self._attach_ready_filters(stage)
                prev_stage = stage
            elif isinstance(op, EdgeMatchOp):
                hop = self._make_neighbor_hop(op)
                hop.kind = HopKind.EDGE
                hop.anchor_slot = self.slots.add(f"v:{op.var}")
                stage = self._new_stage(StageKind.NOOP, var=op.var)
                hop.target = stage.index
                prev_stage.hop = hop
                self._add_producer(stage, prev_stage.index, "same")
                self._bind_edge_var(op.edge_var, hop, stage)
                self._attach_ready_filters(stage)
                prev_stage = stage
            elif isinstance(op, InspectOp):
                anchor = self.slots.add(f"v:{op.var}")
                hop = Hop(kind=HopKind.INSPECT, anchor_slot=anchor)
                stage = self._new_stage(StageKind.NOOP, var=op.var)
                hop.target = stage.index
                prev_stage.hop = hop
                self._add_producer(stage, prev_stage.index, "same")
                prev_stage = stage
            elif isinstance(op, RpqMatchOp):
                prev_stage = self._emit_rpq(op, prev_stage)
            elif isinstance(op, OutputOp):
                prev_stage.hop = Hop(kind=HopKind.OUTPUT)
            else:
                raise PlanningError(f"unknown logical op {op!r}")

        if self.pending_filters:
            unresolved = [str(p.conjunct) for p in self.pending_filters]
            raise PlanningError(f"filters reference unbound variables: {unresolved}")

        return self._finalize()

    # ------------------------------------------------------------------
    # Value-requirement analysis
    # ------------------------------------------------------------------
    def _collect_needed_values(self):
        for expr in query_expressions(self.query):
            for var, prop in expr.prop_refs():
                self.needed_props.setdefault(var, set()).add(prop)
            collect_label_refs(expr, self.needed_labels)

    def _seed_pending_filters(self):
        for conjunct in self.planner.multi_var_filters:
            self.pending_filters.append(_PendingFilter(conjunct, conjunct.variables()))

    # ------------------------------------------------------------------
    # Stage emission helpers
    # ------------------------------------------------------------------
    def _new_stage(self, kind, var=None):
        stage = Stage(index=len(self.stages), kind=kind, var=var)
        self.stages.append(stage)
        return stage

    def _vertex_label_ids(self, label_groups):
        groups = []
        for group in label_groups:
            ids = tuple(
                self.graph.vertex_labels.id_of(name)
                if self.graph.vertex_labels.id_of(name) is not None
                else IMPOSSIBLE_LABEL
                for name in group
            )
            groups.append(ids)
        return tuple(groups)

    def _edge_label_ids(self, labels):
        ids = []
        for name in labels:
            label_id = self.graph.edge_labels.id_of(name)
            ids.append(IMPOSSIBLE_LABEL if label_id is None else label_id)
        return tuple(ids)

    def _captures_for(self, var):
        captures = [Capture(slot=self.slots.add(f"v:{var}"), kind="vid")]
        for prop in sorted(self.needed_props.get(var, ())):
            captures.append(
                Capture(slot=self.slots.add(f"p:{var}.{prop}"), kind="prop", prop=prop)
            )
        if var in self.needed_labels:
            captures.append(Capture(slot=self.slots.add(f"l:{var}"), kind="label"))
        return tuple(captures)

    def _emit_vertex_stage(self, var, kind, label_groups=None, extra_filters=()):
        """Emit a stage matching ``var``: labels, captures, filters."""
        pv = self.planner.pattern_graph.vertices.get(var)
        if label_groups is None:
            label_groups = pv.label_groups if pv is not None else ()
        stage = self._new_stage(kind, var=var)
        stage.label_ids = self._vertex_label_ids(label_groups)
        stage.captures = self._captures_for(var)
        self.bound.add(var)

        filters = []
        binder = SlotBinder(self.slots)
        if pv is not None:
            for conjunct in pv.filters:
                filters.append(compile_expr(conjunct, binder))
                stage.filter_selectivity *= conjunct_selectivity(conjunct)
        for conjunct in extra_filters:
            filters.append(compile_expr(conjunct, binder))
            stage.filter_selectivity *= conjunct_selectivity(conjunct)
        stage.filter = _and_filters(filters)
        self._attach_ready_filters(stage)
        return stage

    def _make_neighbor_hop(self, op, edge_filters=()):
        edge_filter = None
        if op.edge_var is not None or edge_filters:
            fns = []
            binder = SlotBinder(self.slots, edge_var=op.edge_var)
            ready, kept = [], []
            for pending in self.pending_filters:
                # Conjuncts over the edge var plus already-bound vars can be
                # evaluated inline while scanning the adjacency list.
                if op.edge_var is not None and op.edge_var in pending.needed:
                    rest = pending.needed - {op.edge_var}
                    if rest <= self.bound and pending.compiled is None:
                        ready.append(pending)
                        continue
                kept.append(pending)
            self.pending_filters = kept
            for pending in ready + [
                _PendingFilter(c, c.variables()) for c in edge_filters
            ]:
                fns.append(compile_expr(pending.conjunct, binder))
            edge_filter = _and_filters(fns)

        edge_captures = []
        if op.edge_var is not None:
            for prop in sorted(self.needed_props.get(op.edge_var, ())):
                slot = self.slots.add(f"p:{op.edge_var}.{prop}")
                edge_captures.append(EdgeCapture(slot=slot, prop=prop))
        label_ids = self._edge_label_ids(op.edge_labels)
        return Hop(
            kind=HopKind.NEIGHBOR,
            direction=op.direction,
            edge_label_ids=label_ids,
            edge_filter=edge_filter,
            edge_captures=tuple(edge_captures),
            functional=self.graph.statistics.functional(label_ids, op.direction),
        )

    def _bind_edge_var(self, edge_var, hop, stage):
        if edge_var is not None:
            self.bound.add(edge_var)

    def _attach_ready_filters(self, stage):
        """Attach pending conjuncts whose variables are now all bound."""
        ready, kept = [], []
        scope = self.bound
        for pending in self.pending_filters:
            if pending.needed <= scope:
                ready.append(pending)
            else:
                kept.append(pending)
        self.pending_filters = kept
        binder = SlotBinder(self.slots)
        if ready:
            fns = [stage.filter] if stage.filter is not None else []
            for pending in ready:
                if pending.compiled is not None:
                    fns.append(pending.compiled)
                    # Pre-compiled pending filters carry no AST to analyse.
                    stage.filter_selectivity *= 0.5
                else:
                    fns.append(compile_expr(pending.conjunct, binder))
                    stage.filter_selectivity *= conjunct_selectivity(
                        pending.conjunct
                    )
            stage.filter = _and_filters(fns)

        # Accumulator updates become active at the stage binding their vars.
        ready_accs, kept_accs = [], []
        for acc in self.pending_accs:
            if acc.needed <= scope:
                ready_accs.append(acc)
            else:
                kept_accs.append(acc)
        self.pending_accs = kept_accs
        if ready_accs:
            updates = list(stage.acc_updates)
            for acc in ready_accs:
                updates.append((acc.slot, acc.kind, compile_expr(acc.value_expr, binder)))
            stage.acc_updates = tuple(updates)

    def _add_producer(self, stage, producer_index, rel):
        stage.producers = stage.producers + ((producer_index, rel),)

    # ------------------------------------------------------------------
    # RPQ expansion
    # ------------------------------------------------------------------
    def _emit_rpq(self, op, prev_stage):
        rpq_id = self.rpq_counter
        self.rpq_counter += 1
        elements, macro_where = resolve_macro_elements(self.query, op)

        # Unique-ify macro variable names per segment instance: a second
        # instantiation of the same macro gets suffixed names so the slot
        # namespaces stay separate.
        used_names = {s.var for s in self.stages} | self.bound
        rename = {}
        macro_vertex_vars = []
        for i, elem in enumerate(elements[0::2]):
            base = elem.var or f"__rpq{rpq_id}_v{i}"
            name = base if base not in used_names else f"{base}@{rpq_id}"
            if elem.var is not None:
                rename[elem.var] = name
            macro_vertex_vars.append(name)
        macro_edge_vars = []
        new_connectors = []
        for e in elements[1::2]:
            if isinstance(e, EdgePattern) and e.var:
                name = e.var if e.var not in used_names else f"{e.var}@{rpq_id}"
                rename[e.var] = name
                macro_edge_vars.append(name)
                e = EdgePattern(name, e.labels, e.direction)
            new_connectors.append(e)
        elements = [
            elements[0::2][i // 2] if i % 2 == 0 else new_connectors[i // 2]
            for i in range(len(elements))
        ]
        if rename:
            # Mirror property/label requirements onto the renamed variables.
            for old, new in rename.items():
                if old != new:
                    if old in self.needed_props:
                        self.needed_props.setdefault(new, set()).update(
                            self.needed_props[old]
                        )
                    if old in self.needed_labels:
                        self.needed_labels.add(new)
            macro_where = [rename_vars(c, rename) for c in macro_where]
        macro_var_set = set(macro_vertex_vars) | set(macro_edge_vars)

        depth_slot = self.slots.add(f"d:{rpq_id}")
        rpid_slot = self.slots.add(f"r:{rpq_id}")

        # Classify this segment's cross filters before emitting path stages.
        accumulator_inits = self._prepare_cross_filters(op, macro_var_set)
        for conjunct in macro_where:
            self.pending_filters.append(_PendingFilter(conjunct, conjunct.variables()))

        control = self._new_stage(StageKind.RPQ_CONTROL)
        control.depth_slot = depth_slot
        prev_stage.hop = Hop(
            kind=HopKind.TRANSITION, target=control.index, control_entry="init"
        )
        self._add_producer(control, prev_stage.index, "zero")

        # Path stages: one VERTEX-like stage per macro vertex.
        self._current_macro_vars = macro_var_set
        path_stage_indexes = []
        path_prev = None
        vertices = elements[0::2]
        connectors = elements[1::2]
        for i, vp in enumerate(vertices):
            var = macro_vertex_vars[i]
            pseudo = VertexPattern(var=var, labels=vp.labels)
            stage = self._emit_path_vertex_stage(pseudo)
            path_stage_indexes.append(stage.index)
            if path_prev is None:
                self._add_producer(stage, control.index, "same")
            else:
                edge = connectors[i - 1]
                hop = self._make_neighbor_hop(
                    NeighborMatchOp(
                        var=var,
                        source=macro_vertex_vars[i - 1],
                        direction=edge.direction,
                        edge_labels=edge.labels,
                        edge_var=edge.var,
                    )
                )
                hop.target = stage.index
                path_prev.hop = hop
                self._add_producer(stage, path_prev.index, "same")
                if edge.var:
                    self.bound.add(edge.var)
                self._attach_ready_filters(stage)
            path_prev = stage
        path_prev.hop = Hop(
            kind=HopKind.TRANSITION, target=control.index, control_entry="advance"
        )
        self._add_producer(control, path_prev.index, "plus_one")
        for idx in path_stage_indexes:
            self.stages[idx].depth_slot = depth_slot

        # Exit stage binds the RPQ's destination variable.
        self._current_macro_vars = set()
        # Macro vars fall out of scope; drop them from `bound` so later
        # segments reusing the same macro can re-bind them.
        self.bound -= macro_var_set
        if op.var in self.bound:
            # The destination was matched earlier (e.g. an RPQ between two
            # already-bound vertices): the exit must *verify* that the path
            # landed on that exact vertex instead of re-binding it.
            probe = f"__rpqexit{rpq_id}"
            probe_slot = self.slots.add(f"v:{probe}")
            bound_slot = self.slots.add(f"v:{op.var}")
            exit_stage = self._new_stage(StageKind.VERTEX, var=probe)
            exit_stage.captures = (Capture(slot=probe_slot, kind="vid"),)
            exit_stage.filter = (
                lambda state, _p=probe_slot, _b=bound_slot: state.ctx[_p]
                == state.ctx[_b]
            )
            self._attach_ready_filters(exit_stage)
        else:
            exit_stage = self._emit_vertex_stage(op.var, StageKind.VERTEX)
        self._add_producer(exit_stage, control.index, "any")

        quant = op.quantifier
        walk = self.stages[path_stage_indexes[0]].hop
        control.rpq = RpqSpec(
            rpq_id=rpq_id,
            min_hops=quant.min,
            max_hops=quant.max,
            path_entry=path_stage_indexes[0],
            exit_stage=exit_stage.index,
            path_stages=tuple(path_stage_indexes),
            depth_slot=depth_slot,
            rpid_slot=rpid_slot,
            accumulator_inits=tuple(accumulator_inits),
            forest=len(connectors) == 1
            and self.graph.statistics.forest(walk.edge_label_ids, walk.direction),
        )
        return exit_stage

    def _emit_path_vertex_stage(self, vp):
        stage = self._new_stage(StageKind.PATH, var=vp.var)
        stage.label_ids = self._vertex_label_ids((vp.labels,) if vp.labels else ())
        stage.captures = self._captures_for(vp.var)
        self.bound.add(vp.var)
        self._attach_ready_filters(stage)
        return stage

    def _prepare_cross_filters(self, op, macro_var_set):
        """Route cross filters for this segment; returns accumulator inits.

        A cross filter that only needs macro vars plus already-bound outer
        vars is evaluated per repetition (attached to a path stage via the
        pending-filter pool).  A filter that compares a macro-side value
        against a *later*-bound outer value is deferred: the macro side
        folds into a running min/max accumulator and the comparison is
        re-attached at the later variable's stage (this is how the engine
        supports the paper's cross-filter example where ``pb.age <= p2.age``
        must hold for every repetition, with ``p2`` matched after the RPQ).
        """
        accumulator_inits = []
        remaining = []
        for conjunct in self.planner.cross_filters:
            variables = conjunct.variables()
            if not (variables & macro_var_set):
                remaining.append(conjunct)
                continue
            outer = variables - macro_var_set
            unknown = outer - set(self.planner.pattern_graph.vertices) - self.planner.edge_vars
            if unknown:
                raise PlanningError(
                    f"cross filter {conjunct} references unknown variables {sorted(unknown)}"
                )
            unbound_outer = outer - self.bound
            if not unbound_outer:
                self.pending_filters.append(_PendingFilter(conjunct, variables))
                continue
            accumulator_inits.extend(
                self._defer_cross_filter(conjunct, macro_var_set, unbound_outer)
            )
        self.planner.cross_filters = remaining
        return accumulator_inits

    def _defer_cross_filter(self, conjunct, macro_var_set, unbound_outer):
        if not isinstance(conjunct, Binary) or conjunct.op not in _FLIPPED_CMP:
            raise PlanningError(
                f"unsupported deferred cross filter {conjunct}: must be a "
                "comparison between a path-side and a later-bound value"
            )
        left_vars = conjunct.left.variables()
        right_vars = conjunct.right.variables()
        op = conjunct.op
        if left_vars <= macro_var_set and not (right_vars & macro_var_set):
            path_side, later_side = conjunct.left, conjunct.right
        elif right_vars <= macro_var_set and not (left_vars & macro_var_set):
            path_side, later_side = conjunct.right, conjunct.left
            op = _FLIPPED_CMP[op]
        else:
            raise PlanningError(
                f"deferred cross filter {conjunct} mixes path and outer "
                "variables on the same side"
            )

        later_binder = SlotBinder(self.slots)
        later_fn = compile_expr(later_side, later_binder)
        inits = []

        def add_acc(kind, cmp_op):
            slot = self.slots.add(f"a:{self.accumulator_counter}")
            self.accumulator_counter += 1
            self.pending_accs.append(
                _PendingAccumulator(slot, kind, path_side, path_side.variables())
            )
            inits.append((slot, kind))

            def check(state):
                acc = state.ctx[slot]
                if acc is None:
                    return True  # zero repetitions: vacuously true
                return compare_values(cmp_op, acc, later_fn(state))

            self.pending_filters.append(
                _PendingFilter(None, unbound_outer, compiled=check)
            )

        if op in ("<", "<="):
            add_acc("max", op)
        elif op in (">", ">="):
            add_acc("min", op)
        else:  # "="
            add_acc("max", "=")
            add_acc("min", "=")
        return inits

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _finalize(self):
        start_var = self.logical.ops[0].var
        start_pv = self.planner.pattern_graph.vertices[start_var]

        return DistributedPlan(
            stages=self.stages,
            num_slots=len(self.slots),
            rpq_count=self.rpq_counter,
            bootstrap_labels=self.stages[0].label_ids,
            bootstrap_single_vertex=start_pv.single_match_id
            if start_pv.single_match
            else None,
            slot_names=self.slots.names,
            **result_shape(self.query, SlotBinder(self.slots)),
        )


def compile_query(query, graph, scouting=False):
    """Convenience wrapper: parsed query + graph -> DistributedPlan."""
    plan = PlanCompiler(query, graph, scouting=scouting).compile()
    annotate_estimates(plan, graph)
    return plan
