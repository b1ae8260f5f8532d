"""Depth-first traversal workers (paper Section 3.2).

Each worker owns a stack of *jobs*; a job is either a bootstrap root (a
machine-local vertex entering stage 0) or a received batch of contexts.
Within a job the worker runs an explicit-stack DFT over the plan automaton:
match the stage on the current vertex, then iterate its hop (edges,
transitions, inspections); local hops recurse by pushing frames, remote hops
serialize the context into an outgoing batch.  When a hop's send is blocked
by flow control, the worker starts processing received batches instead
(paper: messages are picked up "(iii) when flow control prevents message
sending"), nesting a new job on top of the blocked one.  There is no cap
on that nesting: absorbing a batch returns its sender's credit, so as long
as absorption is never refused every credit a blocked send waits on can
come back.  Only a worker with an empty inbox waits out the round with
its send still blocked (``blocked_rounds``); the absorbed-batch high-water
mark is ``peak_absorbed_batches``.

The traversal is one loop (:meth:`Worker._run_budget`) driven by the plan's
step table (:mod:`repro.runtime.steptable`).  A *step* charges one cost to
the worker's budget, and the budget is checked between steps — so which
step a quantum ends on, and with it virtual time, rounds and every message
count, follows from the step costs alone.  An iteration is one step, except
consecutive frame pops and rejected roots (the budget re-tested per step)
and a *fused RPQ chain*: a context entering an RPQ repetition, from the
transition stage's match to the path entry's adjacency set-up, which runs
only when its worst-case charge (:func:`step_costs`) fits in the budget
(docs/architecture.md §3); with ``obs`` attached every step is its own.
"""

from bisect import bisect_left, bisect_right
from math import inf

from ..graph.types import NO_EDGE
from ..rpq.control import ACTION_EXIT, ACTION_PATH, ENTRY_COST
from ..rpq.rpid import RpidAllocator
from .steptable import (
    CONTROL_ACTIONS, INSPECT, NBR_MANY, NBR_ONE, OUTPUT, TRANSITION,
)

#: Cost charged for bookkeeping steps (frame pops, action dispatch).
STEP_COST = 0.1


class EvalState:
    """Runtime state handed to compiled expressions."""

    __slots__ = ("ctx", "edge", "partition")

    def __init__(self, partition):
        self.ctx = None
        self.edge = -1
        self.partition = partition


class Frame:
    """One DFT stack frame: a stage applied to a vertex.

    ``pos < 0`` is a frame whose stage has not been matched yet (``aux``
    says whether a control stage is entered by a new source path); the loop
    keeps such a frame in locals and only stores it when a quantum ends
    between the hop that produced it and its match.  A matched frame
    iterates ``pos`` up to ``end``: adjacency slots of ``csr`` for a
    neighbor hop (``aux``: the runs still to come, last one next), the
    control stage's action tuple (``aux``), or the single action of any
    other hop.  ``undo`` holds the ``(slot, old value)`` pairs to write back
    when the frame is popped, or ``None`` — most stages overwrite no slot.
    A fused RPQ chain leaves exactly these frames, except that an emitting
    exit stage's, pushed and popped within the chain, is never built.
    """

    __slots__ = ("stage_idx", "vertex", "pos", "end", "csr", "aux", "undo")

    def __init__(self, stage_idx, vertex, pos=-1, end=0, csr=None, aux=None,
                 undo=None):
        self.stage_idx = stage_idx
        self.vertex = vertex
        self.pos = pos
        self.end = end
        self.csr = csr
        self.aux = aux
        self.undo = undo

    def clone(self):
        """Copy for checkpointing (:mod:`repro.recovery`).

        The CSR, the action tuple and the undo pairs are immutable once the
        frame exists and stay shared; only the list of pending runs is
        consumed in place and therefore copied.
        """
        aux = self.aux
        return Frame(
            self.stage_idx, self.vertex, self.pos, self.end, self.csr,
            list(aux) if isinstance(aux, list) else aux, self.undo,
        )


class Job:
    """A unit of work: a bootstrap root or a received batch."""

    __slots__ = ("kind", "batch", "next_context", "ctx", "stack")

    def __init__(self, kind, batch=None, ctx=None):
        self.kind = kind  # "root" | "batch"
        self.batch = batch
        self.next_context = 0
        self.ctx = ctx
        self.stack = []

    def clone(self):
        """Copy for checkpointing (:mod:`repro.recovery`).

        For batch jobs ``ctx`` aliases the current entry of
        ``batch.contexts`` (mutated in place by the DFT), so the clone's
        ``ctx`` must alias the *cloned* batch's entry, not a fresh list.
        """
        new = Job(self.kind)
        new.next_context = self.next_context
        new.stack = [frame.clone() for frame in self.stack]
        if self.kind == "batch":
            new.batch = self.batch.clone()
            if self.ctx is not None and 0 < self.next_context <= len(new.batch.contexts):
                new.ctx = new.batch.contexts[self.next_context - 1][1]
        elif self.ctx is not None:
            new.ctx = list(self.ctx)
        return new


def step_costs(cost):
    """The loop's step charges under ``cost`` — the sums add the same operands
    in the same order as the steps would, so budgets flip on the same step —
    and last the worst-case charge of a fused RPQ chain: its steps' charges
    with the dearest control entry, infinite when one is not positive (a
    zero charge ends the quantum on its step, so such a machine never fuses).
    """
    c_match_filter = STEP_COST + cost.filter_eval
    entry = ENTRY_COST + max(cost.index_insert, cost.index_insert_prealloc, cost.index_hit)
    # transition match (filtered), transition, control entry, exit action,
    # exit match, row, exit pop, path action, path entry match
    chain = (c_match_filter, STEP_COST, entry, STEP_COST, STEP_COST, cost.output,
             STEP_COST, STEP_COST, STEP_COST)
    return (
        cost.bootstrap, cost.receive_context, cost.context_serialize,
        cost.output, cost.edge_traverse, cost.edge_traverse + cost.filter_eval,
        c_match_filter, sum(chain) if min(chain) > 0.0 else inf,
    )


class Worker:
    """One simulated worker thread: its job stack, rpid allocator and
    expression state.  What all workers of a machine share (step table,
    step charges, graph reads, obs/prof hooks) is read off the machine."""

    def __init__(self, machine, worker_id):
        self.machine = machine
        self.id = worker_id
        self.state = EvalState(machine.partition)
        self.jobs = []
        self.rpid_alloc = RpidAllocator(machine.id, worker_id)
        self._track = worker_id + 1  # obs thread id (0 is the control track)

    # ------------------------------------------------------------------
    # Scheduling entry point
    # ------------------------------------------------------------------
    def run(self, budget):
        """Execute up to ``budget`` cost units; returns units consumed."""
        prof = self.machine.prof
        if prof is None:
            return self._run_budget(budget)
        prof.enter("worker.dft")
        consumed = self._run_budget(budget)
        prof.exit()
        return consumed

    # ------------------------------------------------------------------
    # Crash recovery (:mod:`repro.recovery`)
    # ------------------------------------------------------------------
    def checkpoint_state(self):
        return [job.clone() for job in self.jobs], self.rpid_alloc.checkpoint_state()

    def restore_state(self, state):
        jobs, rpid_state = state
        self.jobs = [job.clone() for job in jobs]
        self.rpid_alloc.restore_state(rpid_state)
        self.state.partition = self.machine.partition  # re-hosted, maybe

    @property
    def idle(self):
        return not self.jobs and not self.machine.bootstrap_pending()

    def _start_batch_job(self):
        batch = self.machine.pop_batch()
        job = Job("batch", batch=batch)
        self.jobs.append(job)
        obs = self.machine.obs
        if obs is not None:
            # The flow finish draws Perfetto's causal arrow from the
            # sender's batch.send to this receive span.
            obs.begin_span(
                self.machine.id, self._track, "dft.batch",
                args={"src": batch.src_machine, "stage": batch.target_stage,
                      "depth": batch.depth, "contexts": len(batch)},
                flow_in=batch.flow_id,
            )
        return job

    # ------------------------------------------------------------------
    # The traversal loop
    # ------------------------------------------------------------------
    def _run_budget(self, budget):
        consumed = 0.0
        if not consumed < budget:
            return consumed
        machine = self.machine
        machine_id = machine.id
        obs = machine.obs
        # Locality is established where a vertex enters the loop (see
        # GraphPartition.raw_reads); the sanitizer re-checks it there.
        guard = machine.partition.check_local if machine.sanitizer is not None else None
        steps = machine.steps
        controllers = machine.controllers
        state = self.state
        rpid_alloc = self.rpid_alloc
        jobs = self.jobs
        stats = machine.stats
        matches = [0] * len(steps)
        inbox = machine.inbox
        roots = machine.bootstrap_roots
        try_emit = machine.try_emit
        add = machine.output_sink.add
        owner_of, vmask, csrs, vprop, eprop, graph = machine.reads
        (c_bootstrap, c_receive, c_serialize, c_output, c_edge, c_edge_filter,
         c_match_filter, chain_worst) = machine.step_costs
        c_step = STEP_COST
        # A chain commits while ``consumed < fuse_below``: its worst case then
        # fits with a margin far above the rounding of its ~10 additions.
        if obs is None:
            fuse_below = budget * (1.0 - 1e-9) - chain_worst
            loop_below = budget
        else:
            fuse_below = loop_below = -inf
        root_below = loop_below if c_bootstrap > 0.0 else -inf
        root_mask, root_rest = steps[0].label_mask, steps[0].label_rest
        edges = filter_evals = bootstrapped = roots_done = outputs = 0
        job = stack = ctx = None
        # The (stage, vertex) the last hop led to, matched by the next step.
        p_stage = -1
        p_vertex = 0
        p_init = False

        while consumed < budget:
            if job is None and jobs:
                job = jobs[-1]
                stack = job.stack
                ctx = state.ctx = job.ctx
                if stack and stack[-1].pos < 0:
                    frame = stack.pop()
                    p_stage, p_vertex, p_init = frame.stage_idx, frame.vertex, frame.aux
                    if guard is not None:
                        guard(p_vertex)

            if p_stage >= 0:
                # -- Match the stage on the vertex the last hop led to.
                stage = p_stage
                p_stage = -1
                st = steps[stage]
                undo = None
                if st.op == CONTROL_ACTIONS:
                    actions, cost, undo = controllers[stage].on_entry(
                        p_vertex, ctx, p_init, rpid_alloc
                    )
                    end = len(actions)
                    ok = True
                else:
                    actions = None
                    end = 1
                    cost = c_step
                    mask = st.label_mask
                    ok = mask is None or vmask[p_vertex] & mask and (
                        not st.label_rest or all(vmask[p_vertex] & m for m in st.label_rest)
                    )
                    if ok:
                        for slot in st.cap_vid:
                            ctx[slot] = p_vertex
                        for slot, prop in st.cap_prop:
                            ctx[slot] = vprop(prop, p_vertex)
                        for slot in st.cap_label:
                            ctx[slot] = graph.vertex_label_name(p_vertex)
                        if st.filter is not None:
                            cost = c_match_filter
                            filter_evals += 1
                            ok = st.filter(state)
                        if ok and st.acc_updates:
                            undo = []
                            for slot, acc_kind, value_fn in st.acc_updates:
                                value = value_fn(state)
                                if value is None:
                                    ok = False
                                    for slot, old in reversed(undo):
                                        ctx[slot] = old
                                    break
                                old = ctx[slot]
                                undo.append((slot, old))
                                if old is None:
                                    ctx[slot] = value
                                elif acc_kind == "max":
                                    ctx[slot] = old if old >= value else value
                                else:
                                    ctx[slot] = old if old <= value else value
                if not ok:
                    cost = cost + c_step  # the failed match and its pop
                else:
                    matches[stage] += 1
                    op = st.op
                    if st.chain is not None and consumed < fuse_below:
                        # -- A fused RPQ chain: each step adds the pending charge.
                        control, exit_stage, exit_step, entry, path = st.chain
                        stack.append(Frame(stage, p_vertex, 1, 1, None, None, undo))
                        consumed += cost
                        cost = c_step  # the transition into the control stage
                        actions, charge, undo = controllers[control].on_entry(
                            p_vertex, ctx, st.init, rpid_alloc
                        )
                        consumed += cost
                        cost = charge  # the control entry
                        matches[control] += 1
                        frame = Frame(control, p_vertex, 0, len(actions), None, actions, undo)
                        stack.append(frame)
                        op = -1  # no further frame unless the path action runs
                        if actions:
                            consumed += cost
                            cost = c_step  # the first action's dispatch
                            frame.pos = 1
                            to_path = actions[-1] is ACTION_PATH
                            if actions[0] is ACTION_EXIT and exit_step is None:
                                # The exit stage hops on: the next step matches
                                # it, and its subtree comes before the path.
                                p_stage, p_init, to_path = exit_stage, False, False
                            elif actions[0] is ACTION_EXIT:
                                consumed += cost
                                mask = exit_step.label_mask
                                if mask is None or vmask[p_vertex] & mask:
                                    for slot in exit_step.cap_vid:
                                        ctx[slot] = p_vertex
                                    matches[exit_stage] += 1
                                    outputs += 1
                                    add(ctx)
                                    consumed += c_step  # the exit match
                                    consumed += c_output  # its row
                                    cost = c_step  # the exit frame's pop
                                else:
                                    cost = c_step + c_step  # the failed match and its pop
                                if to_path:
                                    consumed += cost
                                    cost = c_step  # the path action's dispatch
                                    frame.pos = 2
                            if to_path:
                                for slot in path.cap_vid:
                                    ctx[slot] = p_vertex
                                matches[entry] += 1
                                consumed += cost
                                cost = c_step  # the path entry's match, set up below
                                stage, st, undo, op = entry, path, None, path.op
                    if op == NBR_ONE:
                        ((direction, label),) = st.runs
                        csr = csrs[direction]
                        lo = csr.indptr[p_vertex]
                        hi = csr.indptr[p_vertex + 1]
                        if label is not None and lo < hi:
                            lo = bisect_left(csr.elab, label, lo, hi)
                            hi = bisect_right(csr.elab, label, lo, hi)
                        stack.append(Frame(stage, p_vertex, lo, hi, csr, None, undo))
                    elif op == NBR_MANY:
                        runs = []
                        for direction, label in st.runs:
                            lo, hi = csrs[direction].segment(p_vertex, label)
                            if lo < hi:
                                runs.append((csrs[direction], lo, hi))
                        runs.reverse()
                        csr, lo, hi = runs.pop() if runs else (None, 0, 0)
                        stack.append(Frame(stage, p_vertex, lo, hi, csr, runs, undo))
                    elif op >= 0:
                        stack.append(Frame(stage, p_vertex, 0, end, None, actions, undo))

            elif stack:
                # -- Iterate the hop of the stage on top of the stack.
                frame = stack[-1]
                st = steps[frame.stage_idx]
                op = st.op
                pos = frame.pos
                end = frame.end
                if pos >= end and op == NBR_MANY and frame.aux:
                    frame.csr, pos, end = frame.aux.pop()
                    frame.pos, frame.end = pos, end
                if pos >= end:
                    # Pop it and the frames exhausted with it, a step each.
                    while True:
                        stack.pop()
                        if frame.undo is not None:
                            for slot, old in reversed(frame.undo):
                                ctx[slot] = old
                        if not stack or not consumed + c_step < loop_below:
                            break
                        frame = stack[-1]
                        if frame.pos < frame.end or frame.aux.__class__ is list and frame.aux:
                            break  # more to iterate, or runs still to come
                        consumed += c_step
                    cost = c_step
                elif op <= INSPECT:
                    # A hop to another vertex: an adjacency slot, or the
                    # already-matched vertex an inspection returns to.
                    if op == INSPECT:
                        cost = c_step
                        dest = ctx[st.anchor_slot]
                    else:
                        csr = frame.csr
                        dest = csr.nbr[pos]
                        edges += 1
                        cost = c_edge
                        if st.edge_filter is not None:
                            cost = c_edge_filter
                            state.edge = csr.eid[pos]
                            if not st.edge_filter(state):
                                dest = None
                            state.edge = -1
                        if dest is not None:
                            for slot, prop in st.edge_captures:
                                ctx[slot] = eprop(prop, csr.eid[pos])
                    if dest is None:
                        frame.pos = pos + 1
                    else:
                        owner = owner_of(dest)
                        if owner == machine_id:
                            frame.pos = pos + 1
                            p_stage, p_vertex, p_init = st.target, dest, False
                        else:
                            slot = st.target_depth_slot
                            depth = 0 if slot < 0 or ctx[slot] is None else ctx[slot]
                            if try_emit(owner, st.target, depth, dest, ctx):
                                frame.pos = pos + 1
                                cost = cost + c_serialize
                            elif inbox:
                                # Flow control stopped the send: pick up
                                # received work instead of spinning (paper
                                # Section 3.2, case iii); the hop is retried
                                # when the nested job is done (never refused:
                                # see the module docstring).
                                job = self._start_batch_job()
                                stack = job.stack
                                ctx = state.ctx = None
                                cost = cost + c_receive
                            else:
                                stats.blocked_rounds += 1
                                break
                elif op == CONTROL_ACTIONS:
                    frame.pos = pos + 1
                    p_stage = st.exit_stage if frame.aux[pos] is ACTION_EXIT else st.path_entry
                    p_vertex, p_init = frame.vertex, False
                    cost = c_step
                elif op == TRANSITION:
                    frame.pos = 1
                    p_stage, p_vertex, p_init = st.target, frame.vertex, st.init
                    cost = c_step
                elif op == OUTPUT:
                    frame.pos = 1
                    outputs += 1
                    add(ctx)
                    cost = c_output
                else:  # EDGE: verify an edge to an already-matched vertex
                    frame.pos = 1
                    cost = c_edge
                    anchor = ctx[st.anchor_slot]
                    eid = NO_EDGE
                    if anchor is not None:
                        for label in st.edge_labels:
                            eid = graph.find_edge(frame.vertex, anchor, st.direction, label)
                            if eid != NO_EDGE:
                                break
                    if eid != NO_EDGE:
                        ok = True
                        if st.edge_filter is not None:
                            cost = c_edge_filter
                            state.edge = eid
                            ok = st.edge_filter(state)
                            state.edge = -1
                        if ok:
                            for slot, prop in st.edge_captures:
                                ctx[slot] = eprop(prop, eid)
                            p_stage, p_vertex, p_init = st.target, frame.vertex, False

            elif job is not None:
                # -- The job's subtree is explored: next context, or done.
                batch = job.batch
                if batch is not None and job.next_context < len(batch.contexts):
                    p_vertex, ctx = batch.contexts[job.next_context]
                    if guard is not None:
                        guard(p_vertex)
                    job.next_context += 1
                    job.ctx = state.ctx = ctx
                    p_stage, p_init = batch.target_stage, False
                    cost = c_receive
                else:
                    if batch is not None:
                        machine.complete_batch(batch)
                    else:
                        roots_done += 1
                    jobs.pop()
                    job = None
                    if obs is not None:
                        obs.end_span(machine_id, self._track)
                    cost = c_step

            elif inbox:
                # -- No active job: received messages first ...
                job = self._start_batch_job()
                stack = job.stack
                cost = c_receive

            elif roots:
                # -- ... then bootstrap new work from the shared root queue.
                # A root failing stage 0's labels costs its step but needs no
                # job; rejected roots in a row are taken a step each.
                p_vertex = roots.popleft()
                bootstrapped += 1
                cost = c_bootstrap
                while root_mask is not None and not (
                    vmask[p_vertex] & root_mask
                    and (not root_rest or all(vmask[p_vertex] & m for m in root_rest))
                ):
                    roots_done += 1
                    if not roots or not consumed + cost < root_below:
                        break
                    consumed += cost
                    p_vertex = roots.popleft()
                    bootstrapped += 1
                else:
                    job = Job("root", ctx=[None] * machine.plan.num_slots)
                    jobs.append(job)
                    stack = job.stack
                    ctx = state.ctx = job.ctx
                    p_stage, p_init = 0, False
                    if obs is not None:
                        obs.begin_span(
                            machine_id, self._track, "dft.root",
                            args={"vertex": p_vertex},
                        )
            else:
                break

            if cost <= 0.0:
                break
            consumed += cost
            if obs is not None:
                # Advance the machine's virtual clock per step so span
                # timestamps are exact within the round.
                obs.advance(machine_id, cost)

        if p_stage >= 0:
            stack.append(Frame(p_stage, p_vertex, aux=p_init))
        # Counters kept in locals while the loop ran.
        stats.edges_traversed += edges
        stats.filter_evals += filter_evals
        stats.bootstrapped += bootstrapped
        stats.outputs += outputs
        for stage_idx, count in enumerate(matches):
            if count:
                stats.stage_matches[stage_idx] += count
        for controller in controllers.values():
            controller.flush()
        if roots_done:
            machine.tracker.record_processed(0, 0, roots_done)
        return consumed
