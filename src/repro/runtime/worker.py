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

A frame is a plain list ``[stage, vertex, pos, end, csr, aux, undo]``: a
stage applied to a vertex.  ``pos < 0`` is a frame whose stage has not been
matched yet (``aux`` says whether a control stage is entered by a new
source path); the loop keeps such a frame in locals and only stores it
when a quantum ends between the hop that produced it and its match.  A
matched frame iterates ``pos`` up to ``end``: adjacency slots of ``csr``
for a neighbor hop (``aux``: the runs still to come, last one next), the
control stage's action tuple (``aux``), or the single action of any other
hop.  ``undo`` holds the ``(slot, old value)`` pairs to write back when the
frame is popped, or ``None`` — most stages overwrite no slot.

The traversal is one loop (:meth:`Worker._run_budget`) driven by the plan's
step table (:mod:`repro.runtime.steptable`).  A *step* charges one cost to
the worker's budget, and the budget is checked between steps — so which
step a quantum ends on, and with it virtual time, rounds and every message
count, follows from the step costs alone.  An iteration is one step, except
consecutive frame pops and rejected roots (the budget re-tested per step)
and a *fused RPQ chain*: a context entering an RPQ repetition, from the
transition stage's match to the path entry's adjacency set-up, which starts
only when its worst-case charge (:func:`step_costs`) fits in the budget.
When the path is one adjacency run the chain carries on, re-testing the
budget before every step: the run's remote sends, the pops of the path
entry's, control and transition frames and, in a batch job, the next
context's receipt and match.  Those frames live in locals and are built
only where the chain stops — at a local neighbor, a full open batch, the
end of the quantum — exactly as the per-stage steps would have left them
(docs/architecture.md §3).  With ``obs`` attached every step is its own.
"""

import weakref
from bisect import bisect_left, bisect_right
from math import inf

from ..graph.types import NO_EDGE
from ..pgql.expressions import EvalState
from ..rpq.control import ACTION_EXIT, ACTION_PATH, ENTRY_COST
from ..rpq.rpid import RpidAllocator
from .steptable import (
    CONTROL_ACTIONS, INSPECT, NBR_MANY, NBR_ONE, OUTPUT, TRANSITION,
)

#: Cost charged for bookkeeping steps (frame pops, action dispatch).
STEP_COST = 0.1


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

        Every frame is copied.  The CSR, the action tuple and the undo pairs
        in it are immutable once the frame exists and stay shared; only the
        list of pending runs is consumed in place and therefore copied too.
        For batch jobs ``ctx`` aliases the current entry of
        ``batch.contexts`` (mutated in place by the DFT), so the clone's
        ``ctx`` must alias the *cloned* batch's entry, not a fresh list.
        """
        new = Job(self.kind)
        new.next_context = self.next_context
        for frame in self.stack:
            frame = frame[:]
            if frame[5].__class__ is list:
                frame[5] = list(frame[5])
            new.stack.append(frame)
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
    and last the worst-case charge of a fused RPQ chain up to its path
    set-up: its steps' charges with the dearest control entry and a bare exit
    match, infinite when one of them or a send or receipt it carries on into
    is not positive (a zero charge ends the quantum on its step: such a
    machine never fuses).  A filtered exit match costs ``c_match_filter -
    STEP_COST`` more; :meth:`Worker._run_budget` adds that per chain.
    """
    c_match_filter = STEP_COST + cost.filter_eval
    c_send = cost.edge_traverse + cost.context_serialize
    entry = ENTRY_COST + max(cost.index_insert, cost.index_insert_prealloc, cost.index_hit)
    # transition match (filtered), transition, control entry, exit action,
    # exit match, row, exit pop, path action, path entry match
    chain = (c_match_filter, STEP_COST, entry, STEP_COST, STEP_COST, cost.output,
             STEP_COST, STEP_COST, STEP_COST)
    return (
        cost.bootstrap, cost.receive_context, cost.context_serialize,
        cost.output, cost.edge_traverse, cost.edge_traverse + cost.filter_eval,
        c_match_filter, c_send,
        sum(chain) if min(chain + (c_send, cost.receive_context)) > 0.0 else inf,
    )


class Worker:
    """One simulated worker thread: its job stack, rpid allocator and
    expression state.  What all workers of a machine share (step table,
    step charges, graph reads, obs/prof hooks) is read off the machine."""

    def __init__(self, machine, worker_id):
        # Weak, because the machine owns its workers: without a cycle between
        # them a finished query's machines are freed as soon as the run drops
        # them, not by the cyclic collector at some later allocation.
        self._machine = weakref.ref(machine)
        self.id = worker_id
        self.state = EvalState(machine.partition)
        self.jobs = []
        self.rpid_alloc = RpidAllocator(machine.id, worker_id)
        self._track = worker_id + 1  # obs thread id (0 is the control track)

    @property
    def machine(self):
        return self._machine()

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

    def _start_batch_job(self, machine):
        batch = machine.pop_batch()
        job = Job("batch", batch=batch)
        self.jobs.append(job)
        obs = machine.obs
        if obs is not None:
            # The flow finish draws Perfetto's causal arrow from the
            # sender's batch.send to this receive span.
            obs.begin_span(
                machine.id, self._track, "dft.batch",
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
        emit = machine.emit
        try_emit = machine.try_emit
        add = machine.output_sink.add
        owners, vmask, csrs, vprop, eprop, graph = machine.reads
        (c_bootstrap, c_receive, c_serialize, c_output, c_edge, c_edge_filter,
         c_match_filter, c_send, chain_worst) = machine.step_costs
        c_step = STEP_COST
        # A chain starts while ``consumed < fuse_below``: its worst case then
        # fits with a margin far above the rounding of its ~10 additions.  A
        # filtered exit's match charges ``c_match_filter`` where a bare one
        # charges ``c_step``: its chains start below ``filtered_below``.
        if obs is None:
            fuse_below = budget * (1.0 - 1e-9) - chain_worst
            loop_below = budget
        else:
            fuse_below = loop_below = -inf
        filtered_below = fuse_below - (c_match_filter - c_step)
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
                if stack and stack[-1][2] < 0:
                    frame = stack.pop()
                    p_stage, p_vertex, p_init = frame[0], frame[1], frame[5]
                    if guard is not None:
                        guard(p_vertex)

            if p_stage >= 0:
                # -- Match the stage on the vertex the last hop led to.
                stage = p_stage
                p_stage = -1
                st = steps[stage]
                undo = actions = None
                end = 1
                cost = c_step
                if st.bare:
                    for slot in st.cap_vid:
                        ctx[slot] = p_vertex
                    ok = True
                elif st.op == CONTROL_ACTIONS:
                    actions, cost, undo = controllers[stage].on_entry(
                        p_vertex, ctx, p_init, rpid_alloc
                    )
                    end = len(actions)
                    ok = True
                else:
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
                    chain = st.chain
                    if chain is not None and consumed < (
                        below := filtered_below if chain[5] else fuse_below
                    ):
                        # -- A fused RPQ chain: each step adds the pending
                        # charge.  ``live`` frames (transition, control, path
                        # entry) are held in locals; what a batch's contexts
                        # share is resolved here, once.
                        control, exit_stage, exit_step, entry, path, filtered = chain
                        on_entry = controllers[control].on_entry
                        init, t_undo, op = st.init, undo, -1
                        scan = path.op == NBR_ONE
                        if scan:
                            ((direction, label),) = path.runs
                            csr = csrs[direction]
                            indptr, elab, nbr, target = csr.indptr, csr.elab, csr.nbr, path.target
                            depth_slot = path.target_depth_slot
                        batch = job.batch
                        contexts = batch.contexts if batch is not None and st.bare else ()
                        while True:
                            consumed += cost
                            cost = c_step  # the transition into the control stage
                            actions, charge, c_undo = on_entry(p_vertex, ctx, init, rpid_alloc)
                            consumed += cost
                            cost = charge  # the control entry
                            matches[control] += 1
                            live = 2
                            if actions:
                                consumed += cost
                                cost = c_step  # the first action's dispatch
                                to_path = actions[-1] is ACTION_PATH
                                if actions[0] is ACTION_EXIT:
                                    if exit_step is None:
                                        # The exit stage hops on: the next step
                                        # matches it, its subtree before the path.
                                        p_stage, p_init = exit_stage, False
                                        break
                                    consumed += cost
                                    mask = exit_step.label_mask
                                    cost = c_step  # the exit match
                                    ok = mask is None or vmask[p_vertex] & mask
                                    if ok:
                                        for slot in exit_step.cap_vid:
                                            ctx[slot] = p_vertex
                                        for slot, prop in exit_step.cap_prop:
                                            ctx[slot] = vprop(prop, p_vertex)
                                        if filtered:
                                            cost = c_match_filter
                                            filter_evals += 1
                                            ok = exit_step.filter(state)
                                    if ok:
                                        matches[exit_stage] += 1
                                        outputs += 1
                                        add(ctx)
                                        consumed += cost
                                        consumed += c_output  # its row
                                        cost = c_step  # the exit frame's pop
                                    else:
                                        cost = cost + c_step  # the failed match and its pop
                                    if to_path:
                                        consumed += cost
                                        cost = c_step  # the path action's dispatch
                                if to_path:
                                    for slot in path.cap_vid:
                                        ctx[slot] = p_vertex
                                    matches[entry] += 1
                                    consumed += cost
                                    cost = c_step  # the path entry's match
                                    if not scan:
                                        op = NBR_MANY  # its runs are set up below
                                        break
                                    live = 3
                                    pos = indptr[p_vertex]
                                    hi = indptr[p_vertex + 1]
                                    if label is not None and pos < hi:
                                        pos = bisect_left(elab, label, pos, hi)
                                        hi = bisect_right(elab, label, pos, hi)
                                    depth = ctx[depth_slot]  # the control entry set it
                                    # The run's remote sends; a local neighbor or a
                                    # full open batch is left to the per-stage step.
                                    while pos < hi and consumed + cost < budget:
                                        dest = nbr[pos]
                                        owner = owners[dest]
                                        if owner == machine_id or not emit(
                                            owner, target, depth, dest, ctx
                                        ):
                                            break
                                        consumed += cost
                                        cost = c_send  # the edge and its send
                                        edges += 1
                                        pos += 1
                                    if pos < hi:
                                        break
                            # The pops, a step each: the path entry's frame (no
                            # undo), the control stage's (its last action has
                            # run) and the transition's.
                            for pairs in (None, c_undo, t_undo)[3 - live:]:
                                if not consumed + cost < budget:
                                    break
                                consumed += cost
                                cost = c_step
                                live -= 1
                                if pairs is not None:
                                    for slot, old in reversed(pairs):
                                        ctx[slot] = old
                            if live or stack or job.next_context >= len(contexts) or not (
                                consumed + cost < budget
                            ):
                                break
                            # The batch's next context: its receipt and match.
                            consumed += cost
                            p_vertex, ctx = contexts[job.next_context]
                            if guard is not None:
                                guard(p_vertex)
                            job.next_context += 1
                            job.ctx = state.ctx = ctx
                            cost = c_receive
                            if not consumed + cost < budget:
                                p_stage, p_init = stage, False
                                break
                            consumed += cost
                            for slot in st.cap_vid:
                                ctx[slot] = p_vertex
                            matches[stage] += 1
                            cost = c_step  # its match
                            if not consumed < below:
                                op, actions = st.op, None  # its frame is pushed below
                                break
                        # Where the chain stopped: the frames the steps would hold
                        # (every action dispatched, unless the exit stage is next).
                        if live:
                            stack.append([stage, p_vertex, 1, 1, None, None, t_undo])
                            if live > 1:
                                end = len(actions)
                                stack.append([control, p_vertex, 1 if p_stage >= 0 else end,
                                              end, None, actions, c_undo])
                                if live > 2:
                                    stack.append([entry, p_vertex, pos, hi, csr, None, None])
                        if op == NBR_MANY:
                            stage, st, undo = entry, path, None
                    if op == NBR_ONE:
                        ((direction, label),) = st.runs
                        csr = csrs[direction]
                        lo = csr.indptr[p_vertex]
                        hi = csr.indptr[p_vertex + 1]
                        if label is not None and lo < hi:
                            lo = bisect_left(csr.elab, label, lo, hi)
                            hi = bisect_right(csr.elab, label, lo, hi)
                        stack.append([stage, p_vertex, lo, hi, csr, None, undo])
                    elif op == NBR_MANY:
                        runs = []
                        for direction, label in st.runs:
                            lo, hi = csrs[direction].segment(p_vertex, label)
                            if lo < hi:
                                runs.append((csrs[direction], lo, hi))
                        runs.reverse()
                        csr, lo, hi = runs.pop() if runs else (None, 0, 0)
                        stack.append([stage, p_vertex, lo, hi, csr, runs, undo])
                    elif op >= 0:
                        stack.append([stage, p_vertex, 0, end, None, actions, undo])

            elif stack:
                # -- Iterate the hop of the stage on top of the stack.
                frame = stack[-1]
                st = steps[frame[0]]
                op = st.op
                pos = frame[2]
                end = frame[3]
                if pos >= end and op == NBR_MANY and frame[5]:
                    frame[4], pos, end = frame[5].pop()
                    frame[2] = pos
                    frame[3] = end
                if pos >= end:
                    # Pop it and the frames exhausted with it, a step each.
                    while True:
                        stack.pop()
                        if frame[6] is not None:
                            for slot, old in reversed(frame[6]):
                                ctx[slot] = old
                        if not stack or not consumed + c_step < loop_below:
                            break
                        frame = stack[-1]
                        if frame[2] < frame[3] or frame[5].__class__ is list and frame[5]:
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
                        csr = frame[4]
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
                        frame[2] = pos + 1
                    else:
                        owner = owners[dest]
                        if owner == machine_id:
                            frame[2] = pos + 1
                            p_stage, p_vertex, p_init = st.target, dest, False
                        else:
                            slot = st.target_depth_slot
                            depth = 0 if slot < 0 or ctx[slot] is None else ctx[slot]
                            if emit(owner, st.target, depth, dest, ctx) or try_emit(
                                owner, st.target, depth, dest, ctx
                            ):
                                frame[2] = pos + 1
                                cost = cost + c_serialize
                            elif inbox:
                                # Flow control stopped the send: pick up
                                # received work instead of spinning (paper
                                # Section 3.2, case iii); the hop is retried
                                # when the nested job is done (never refused:
                                # see the module docstring).
                                job = self._start_batch_job(machine)
                                stack = job.stack
                                ctx = state.ctx = None
                                cost = cost + c_receive
                            else:
                                stats.blocked_rounds += 1
                                break
                elif op == CONTROL_ACTIONS:
                    frame[2] = pos + 1
                    p_stage = st.exit_stage if frame[5][pos] is ACTION_EXIT else st.path_entry
                    p_vertex, p_init = frame[1], False
                    cost = c_step
                elif op == TRANSITION:
                    frame[2] = 1
                    p_stage, p_vertex, p_init = st.target, frame[1], st.init
                    cost = c_step
                elif op == OUTPUT:
                    frame[2] = 1
                    outputs += 1
                    add(ctx)
                    cost = c_output
                else:  # EDGE: verify an edge to an already-matched vertex
                    frame[2] = 1
                    cost = c_edge
                    anchor = ctx[st.anchor_slot]
                    eid = NO_EDGE
                    if anchor is not None:
                        for label in st.edge_labels:
                            eid = graph.find_edge(frame[1], anchor, st.direction, label)
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
                            p_stage, p_vertex, p_init = st.target, frame[1], False

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
                job = self._start_batch_job(machine)
                stack = job.stack
                cost = c_receive

            elif roots:
                # -- ... then bootstrap new work from the shared root queue.
                # A root failing stage 0's labels costs its step but needs no
                # job; rejected roots in a row are taken a step each.
                p_vertex = roots.popleft()
                bootstrapped += 1
                cost = c_bootstrap
                while p_vertex < 0 or root_mask is not None and not (
                    vmask[p_vertex] & root_mask
                    and (not root_rest or all(vmask[p_vertex] & m for m in root_rest))
                ):
                    roots_done += 1
                    if p_vertex < -1:
                        # The rest of a run the first label group rejects
                        # (DistributedGraph.root_table), eight additions per
                        # test: the sums only grow, so if the eighth fits, all do.
                        left = -1 - p_vertex
                        while left >= 8 and (
                            x := consumed + cost + cost + cost + cost + cost + cost + cost + cost
                        ) < root_below:
                            consumed = x
                            left -= 8
                        while left and consumed + cost < root_below:
                            consumed += cost
                            left -= 1
                        bootstrapped += -1 - p_vertex - left
                        roots_done += -1 - p_vertex - left
                        if left:
                            roots.appendleft(-left)
                            break
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
            stack.append([p_stage, p_vertex, -1, 0, None, p_init, None])
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
