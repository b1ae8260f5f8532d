"""A simulated cluster machine.

Owns a graph partition, a set of DFT workers, per-stage inboxes with the
paper's receive priority (deeper depth first, later stage first), outgoing
batch buffers under flow control, a shard of every RPQ segment's
reachability index, and the termination-protocol state.
"""

import heapq
from collections import deque

from ..rpq.control import RpqController
from ..rpq.reachability import ReachabilityIndex
from .buffers import FlowControl
from .message import Batch, DoneMessage, StatusMessage
from .stats import MachineStats
from .steptable import NBR_MANY, step_table
from .termination import TerminationProtocol, TerminationTracker
from .worker import Worker, step_costs


class Machine:
    """One machine of the simulated cluster."""

    def __init__(
        self, machine_id, dgraph, plan, config, network, output_sink,
        sanitizer=None, obs=None, query_id=0, prof=None,
    ):
        self.id = machine_id
        self.plan = plan
        self.config = config
        self.network = network
        self.partition = dgraph.partition(machine_id)
        self.output_sink = output_sink
        self.sanitizer = sanitizer
        self.obs = obs
        self.prof = prof
        # This object is one query's execution state on one simulated
        # machine: under the scheduler (:mod:`repro.runtime.multi`) a
        # machine hosts one such slice per active query, and every
        # namespaced structure below (flow-control credits, termination
        # counters, index shards) and every outgoing message carries this
        # id.  The process backend builds each run's machines with its
        # run id, which is what fences one run's frames from the next.
        self.query_id = query_id
        self.stats = MachineStats()
        self.tracker = TerminationTracker(
            machine_id, sanitizer=sanitizer, query_id=query_id
        )
        self.protocol = TerminationProtocol(
            machine_id, plan, config.num_machines, self.tracker,
            sanitizer=sanitizer, obs=obs,
        )
        self.flow = FlowControl(
            machine_id, plan, config, self.stats, sanitizer=sanitizer, obs=obs,
            query_id=query_id,
        )
        self.current_round = 0

        # Heap of (priority, Batch).  The worker loop tests it for pending
        # work directly (and pulls roots from ``bootstrap_roots``) rather
        # than through a call per step.
        self.inbox = []
        self._absorbed = 0  # batches absorbed into workers, not yet completed
        self._open = {}  # (dst, stage, depth) -> partially filled Batch
        # Read per shipped context.
        self.batch_size = config.batch_size
        self.prealloc_depth = config.context_prealloc_depth
        self._blocked_flush_reported = set()
        self._blocked_since = {}  # key -> round the block started (obs only)
        self._path_stage_set = set()
        for spec in plan.rpq_specs():
            self._path_stage_set.update(spec.path_stages)

        # Reachability index shards and control-stage drivers.
        self.indexes = {}
        self.controllers = {}
        local_count = None
        for stage in plan.stages:
            if stage.rpq is not None:
                if config.index_preallocate and local_count is None:
                    local = self.partition.local_vertices()
                    local_count = (
                        len(local) if hasattr(local, "__len__")
                        else sum(1 for _ in local)
                    )
                index = ReachabilityIndex(
                    machine_id,
                    stage.rpq.rpq_id,
                    preallocate_size=local_count,
                    sanitizer=sanitizer,
                    obs=obs,
                    query_id=query_id,
                    prof=prof,
                )
                self.indexes[stage.rpq.rpq_id] = index
                self.controllers[stage.index] = RpqController(
                    stage.rpq,
                    index,
                    self.stats,
                    self.tracker,
                    use_index=config.use_reachability_index,
                    cost=config.cost,
                    machine_id=machine_id,
                    stage_index=stage.index,
                    obs=obs,
                )

        # What every worker's loop reads, built once per machine.
        self.steps = step_table(plan)
        self.step_costs = step_costs(config.cost)
        self.reads = self.partition.raw_reads()
        # Workers and bootstrap work assignment.
        self.workers = [Worker(self, w) for w in range(config.workers_per_machine)]
        self._assign_bootstrap_roots(plan)

    def _assign_bootstrap_roots(self, plan):
        if plan.bootstrap_single_vertex is not None:
            v = plan.bootstrap_single_vertex
            roots = [v] if (
                0 <= v < self.partition.graph.num_vertices and self.partition.is_local(v)
            ) else []
        else:
            roots = list(self.partition.local_vertices())
        # Shared machine-level queue: idle workers pull the next root, so
        # one worker hitting a huge subtree doesn't strand the roots that a
        # static per-worker split would have pinned to it.
        self.bootstrap_roots = deque(roots)
        # Each bootstrap root is a stage-0 work unit for termination counting.
        if roots:
            self.tracker.record_bootstrap(len(roots))

    # ------------------------------------------------------------------
    # Crash recovery (:mod:`repro.recovery`)
    # ------------------------------------------------------------------
    def checkpoint_state(self):
        """Value snapshot of all recoverable query state on this machine.

        Covers the reachability-index shards, the termination counters
        (the RPQ control depth counters ride ``tracker.sent/processed``
        and ``max_depths``), the protocol view, flow-control credits,
        absorbed/partial batches, worker job stacks, statistics, and the
        output sink's emitted watermark.  Everything is value-copied so
        the live run never mutates the snapshot.
        """
        return {
            "tracker": self.tracker.checkpoint_state(),
            "protocol": self.protocol.checkpoint_state(),
            "flow": self.flow.checkpoint_state(),
            "inbox": [(priority, batch.clone()) for priority, batch in self.inbox],
            "absorbed": self._absorbed,
            "open": {key: batch.clone() for key, batch in self._open.items()},
            "blocked_reported": set(self._blocked_flush_reported),
            "blocked_since": dict(self._blocked_since),
            "bootstrap": tuple(self.bootstrap_roots),
            "workers": [worker.checkpoint_state() for worker in self.workers],
            "indexes": {
                rpq_id: index.checkpoint_state()
                for rpq_id, index in self.indexes.items()
            },
            "stats": self.stats.clone(),
            "sink": self.output_sink.checkpoint_state(),
        }

    def restore_state(self, state, round_no, partition=None):
        """Roll back to ``state`` *in place* (cross-references — the
        controllers' tracker/index/stats handles — stay valid).

        ``partition`` replaces the graph partition when the logical
        machine was re-hosted: the new owner re-derives the partition
        from the deterministic partitioner rather than recovering it.
        """
        if partition is not None:
            self.partition = partition
            self.reads = partition.raw_reads()
        self.tracker.restore_state(state["tracker"])
        self.protocol.restore_state(state["protocol"])
        self.flow.restore_state(state["flow"])
        self.inbox = [
            (priority, batch.clone()) for priority, batch in state["inbox"]
        ]
        heapq.heapify(self.inbox)
        self._absorbed = state["absorbed"]
        self._open = {key: batch.clone() for key, batch in state["open"].items()}
        self._blocked_flush_reported = set(state["blocked_reported"])
        self._blocked_since = dict(state["blocked_since"])
        self.bootstrap_roots = deque(state["bootstrap"])
        for worker, wstate in zip(self.workers, state["workers"]):
            worker.restore_state(wstate)
        for rpq_id, index in self.indexes.items():
            index.restore_state(state["indexes"][rpq_id])
        self.stats.restore(state["stats"])
        self.output_sink.restore_state(state["sink"])
        self.current_round = round_no

    def bootstrap_pending(self):
        return bool(self.bootstrap_roots)

    @property
    def absorbed(self):
        """Batches absorbed into worker contexts and not yet fully explored."""
        return self._absorbed

    def refused_send(self, worker):
        """The send ``worker``'s top frame is stuck on — a neighbor hop to a
        vertex whose open batch is full, the one state in which a send
        refuses — as the ``dst``, ``stage`` and ``depth`` of that batch and
        the ``in_flight`` credits and ``capacity`` of its bucket; or ``None``."""
        job = worker.jobs[-1] if worker.jobs else None
        if job is None or not job.stack:
            return None
        stage, _vertex, pos, end, csr = job.stack[-1][:5]
        step = self.steps[stage]
        if step.op > NBR_MANY or not 0 <= pos < end:
            return None
        dst, slot = self.reads[0][csr.nbr[pos]], step.target_depth_slot
        depth = 0 if slot < 0 or job.ctx[slot] is None else job.ctx[slot]
        batch = self._open.get((dst, step.target, depth))
        if batch is None or len(batch.contexts) < self.batch_size:
            return None
        bucket = (dst, step.target, depth, step.target in self._path_stage_set)
        return {"dst": dst, "stage": step.target, "depth": depth,
                "in_flight": self.flow.in_flight_of(*bucket),
                "capacity": self.flow.capacity_of(*bucket)}

    # ------------------------------------------------------------------
    # Message delivery (called by the scheduler each round)
    # ------------------------------------------------------------------
    def deliver(self, messages):
        fifo = self.config.receive_priority == "fifo"
        for message in messages:
            if message.query_id != self.query_id:
                # Channels are namespaced by query id; a cross-query
                # delivery means the scheduler routed a message to the
                # wrong slice and would corrupt credits/counters silently.
                raise AssertionError(
                    f"machine {self.id} (query {self.query_id}) received a "
                    f"message for query {message.query_id}: {message!r}"
                )
            if isinstance(message, Batch):
                priority = (0, 0, message.seq) if fifo else message.priority
                heapq.heappush(self.inbox, (priority, message))
            elif isinstance(message, DoneMessage):
                self.flow.release(message.credit_key)
            elif isinstance(message, StatusMessage):
                self.protocol.on_status(message)
            else:
                raise AssertionError(f"unknown message {message!r}")

    def pop_batch(self):
        """Dequeue the highest-priority batch and release its buffer.

        The DONE message (credit return) is sent at *absorption* time: the
        contexts move from the message buffer into the worker's execution
        contexts ("preallocated up to a predetermined depth and dynamically
        allocated if further needed", paper Section 3.1), so the buffer is
        free before the DFT work completes.  This is what keeps the credit
        dependency acyclic — a buffer release never waits on downstream
        sends — at the cost of not fully bounding RPQ context memory, which
        the paper concedes for RPQs (Section 3.3).
        """
        batch = heapq.heappop(self.inbox)[1]
        self.network.send(
            DoneMessage(
                src_machine=self.id,
                dst_machine=batch.src_machine,
                query_id=self.query_id,
                credit_key=batch.credit_key,
            ),
            self.current_round,
        )
        self.stats.done_messages += 1
        self._absorbed += 1
        if self._absorbed > self.stats.peak_absorbed_batches:
            self.stats.peak_absorbed_batches = self._absorbed
        if self.obs is not None:
            self.obs.metrics.gauge(
                "repro_absorbed_batches",
                "batches absorbed into worker contexts, not yet explored",
                ("machine",),
            ).labels(self.id).set(self._absorbed)
        return batch

    def complete_batch(self, batch):
        """Account a fully-processed batch (termination protocol unit)."""
        self.tracker.record_processed(batch.target_stage, batch.depth)
        self._absorbed -= 1
        if self.obs is not None:
            self.obs.metrics.gauge(
                "repro_absorbed_batches",
                "batches absorbed into worker contexts, not yet explored",
                ("machine",),
            ).labels(self.id).set(self._absorbed)

    # ------------------------------------------------------------------
    # Outgoing batches under flow control
    # ------------------------------------------------------------------
    def emit(self, dst, stage_idx, depth, vertex, ctx):
        """Append a context to the open batch for ``(dst, stage, depth)``,
        opening one if there is none.  Returns ``False``, doing nothing, when
        that batch is full — it could not be flushed when it filled, and only
        :meth:`try_emit` retries — the one state in which a send refuses."""
        key = (dst, stage_idx, depth)
        batch = self._open.get(key)
        if batch is None:
            batch = self._open[key] = Batch(
                src_machine=self.id, dst_machine=dst, target_stage=stage_idx, depth=depth,
                query_id=self.query_id,
            )
            # Counted at creation so partially-filled buffers are visible to
            # the termination protocol.
            self.tracker.record_sent(stage_idx, depth)
            contexts = batch.contexts
        else:
            contexts = batch.contexts
            if len(contexts) >= self.batch_size:
                return False
        contexts.append((vertex, list(ctx)))  # Batch.add, without the calls
        if depth > self.prealloc_depth and stage_idx in self._path_stage_set:
            self.stats.dynamic_context_allocs += 1
        if len(contexts) >= self.batch_size:
            self._flush(key)  # best effort; retried on next emit or idle
        return True

    def try_emit(self, dst, stage_idx, depth, vertex, ctx):
        """:meth:`emit`, flushing a full open batch first.  Returns ``False``
        when flow control has no credit to send it — the caller must not
        advance and should do other work (the paper's blocking behaviour)."""
        key = (dst, stage_idx, depth)
        batch = self._open.get(key)
        if batch is not None and len(batch.contexts) >= self.batch_size and not self._flush(key):
            if key not in self._blocked_flush_reported:
                self.stats.flow_control_blocks += 1
                self._blocked_flush_reported.add(key)
                if self.obs is not None:
                    self._record_block(key)
            return False
        return self.emit(dst, stage_idx, depth, vertex, ctx)

    def _flush(self, key):
        batch = self._open.get(key)
        if batch is None or len(batch) == 0:
            return True
        dst, stage_idx, depth = key
        credit = self.flow.try_acquire(
            dst, stage_idx, depth, stage_idx in self._path_stage_set
        )
        if credit is None:
            return False
        batch.credit_key = credit
        del self._open[key]
        self._blocked_flush_reported.discard(key)
        if self.obs is not None:
            self._record_send(key, batch)
        self.network.send(batch, self.current_round)
        self.stats.batches_sent += 1
        self.stats.contexts_sent += len(batch)
        self.stats.bytes_sent += batch.modelled_bytes(self.plan.num_slots)
        return True

    # ------------------------------------------------------------------
    # Observability hooks (only reached when ``self.obs`` is attached)
    # ------------------------------------------------------------------
    def _record_block(self, key):
        """A flush found its credit bucket empty: start a wait episode."""
        obs = self.obs
        dst, stage_idx, depth = key
        self._blocked_since.setdefault(key, self.current_round)
        obs.instant(
            self.id, "flow.block",
            args={"dst": dst, "stage": stage_idx, "depth": depth},
            cat="flow",
        )
        obs.metrics.counter(
            "repro_flow_blocks_total",
            "flow-control block episodes (send found its bucket empty)",
            ("machine", "stage"),
        ).labels(self.id, stage_idx).inc()

    def _record_send(self, key, batch):
        """A batch leaves this machine: span link, size/byte histograms."""
        obs = self.obs
        dst, stage_idx, depth = key
        flow_id = obs.next_flow_id()
        batch.flow_id = flow_id
        obs.flow_start(self.id, flow_id)
        n = len(batch)
        size = batch.modelled_bytes(self.plan.num_slots)
        args = {"dst": dst, "stage": stage_idx, "depth": depth,
                "contexts": n, "bytes": size}
        blocked_since = self._blocked_since.pop(key, None)
        if blocked_since is not None:
            wait = self.current_round - blocked_since
            args["wait_rounds"] = wait
            obs.metrics.histogram(
                "repro_flow_wait_rounds",
                "rounds a blocked batch waited for a flow-control credit",
                ("machine",),
            ).labels(self.id).observe(wait)
        obs.instant(self.id, "batch.send", args=args, cat="msg")
        obs.metrics.histogram(
            "repro_batch_contexts", "contexts per sent batch", ("machine",)
        ).labels(self.id).observe(n)
        obs.metrics.histogram(
            "repro_batch_bytes", "modelled bytes per sent batch", ("machine",)
        ).labels(self.id).observe(size)
        obs.metrics.counter(
            "repro_batches_sent_total",
            "batches shipped to other machines",
            ("machine", "stage"),
        ).labels(self.id, stage_idx).inc()

    def flush_partials(self):
        """Flush all non-empty open batches (called when workers idle).

        Keys are visited in sorted (dst, stage, depth) order so the
        emission order of timeout-flushed batches is a function of their
        addresses, not of dict insertion history — which under the
        process-parallel backend varies with message arrival order.
        """
        flushed = 0
        for key in sorted(self._open.keys()):
            if len(self._open[key]) > 0:
                if self._flush(key):
                    flushed += 1
                elif key not in self._blocked_flush_reported:
                    self.stats.flow_control_blocks += 1
                    self._blocked_flush_reported.add(key)
                    if self.obs is not None:
                        self._record_block(key)
        return flushed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_slice(self, round_no, budget, rng=None):
        """Spend up to ``budget`` cost units of worker time this round.

        The scheduler (:mod:`repro.runtime.multi`) may call this several
        times per round per query slice when redistributing quantum left
        idle by other queries, so busy/idle round accounting is split out
        into :meth:`account_round`, charged exactly once per round.  With
        ``rng`` set (race-detector mode, ``config.schedule_seed``) the
        worker service order is permuted — the cooperative-scheduler
        analogue of thread-interleaving perturbation.
        """
        self.current_round = round_no
        workers = self.workers
        if rng is not None:
            workers = rng.sample(workers, len(workers))
        budget_each = budget / len(self.workers)
        consumed = 0.0
        inbox, roots = self.inbox, self.bootstrap_roots
        for worker in workers:
            # A worker with no job, no received batch and no root to pull
            # has nothing to do: it costs nothing, not a call.
            if worker.jobs or inbox or roots:
                consumed += worker.run(budget_each)
        if self._open:
            # End-of-round timeout flush: buffers that did not fill during
            # the round are sent anyway so sparse stages are not
            # latency-bound on idleness (the real engine sends
            # asynchronously once full *or* on timeout).
            prof = self.prof
            if prof is not None:
                prof.enter("machine.flush")
            flushed = self.flush_partials()
            if prof is not None:
                prof.exit()
            if flushed:
                consumed += self.config.cost.message_fixed * flushed
        self.stats.cost_units += consumed
        return consumed

    def account_round(self, consumed):
        """Record one round as busy or idle (once per round per slice)."""
        if consumed > 0.0:
            self.stats.busy_rounds += 1
        else:
            self.stats.idle_rounds += 1

    # ------------------------------------------------------------------
    # Termination protocol
    # ------------------------------------------------------------------
    def broadcast_status(self, round_no):
        self.tracker.generation += 1
        message = None
        for dst in range(self.config.num_machines):
            if dst != self.id:
                message = (
                    self.tracker.snapshot(dst) if message is None
                    else message.readdressed(dst)
                )
                self.network.send(message, round_no)
                self.stats.status_messages += 1
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_status_broadcasts_total",
                "termination-protocol STATUS broadcast rounds",
                ("machine",),
            ).labels(self.id).inc()

    def check_termination(self):
        return self.protocol.check()

    # ------------------------------------------------------------------
    # Ground truth (used by the scheduler's safety checks and tests)
    # ------------------------------------------------------------------
    def is_quiescent(self):
        if self.inbox:
            return False
        if any(len(b) > 0 for b in self._open.values()):
            return False
        return all(not w.jobs and w.idle for w in self.workers)

    def finalize_stats(self):
        for rpq_id, index in self.indexes.items():
            self.stats.index_inserts += index.inserts
            self.stats.index_updates += index.updates
            self.stats.index_entries += index.entries
            self.stats.index_prealloc_bytes += index.prealloc_bytes
        if self.obs is not None:
            gauge = self.obs.metrics.gauge(
                "repro_machine_stat",
                "final per-machine counter snapshot (one series per stat)",
                ("machine", "stat"),
            )
            for stat in (
                "batches_sent", "contexts_sent", "bytes_sent",
                "flow_control_blocks", "overflow_grants",
                "peak_inflight_buffers", "peak_absorbed_batches",
                "edges_traversed", "outputs", "bootstrapped",
                "done_messages", "status_messages", "index_entries",
                "busy_rounds", "idle_rounds", "blocked_rounds",
                "stalled_rounds",
            ):
                gauge.labels(self.id, stat).set(getattr(self.stats, stat))
