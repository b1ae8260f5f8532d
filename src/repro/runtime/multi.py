"""The cluster scheduler: one round loop for every simulated execution.

:class:`ClusterScheduler` interleaves queries on the *same* simulated
machines under one global round clock.  Each admitted query gets one
:class:`~repro.runtime.machine.Machine` slice per machine id, a private
message channel (its own :class:`~repro.runtime.network.
SimulatedNetwork`), its own sanitizer/recorder, and its own termination
protocol — everything namespaced by ``query_id``, so flow-control credits,
work counters, and reachability facts can never leak between queries.
A query running alone (``Session.execute``) is this scheduler with one
query admitted: :class:`~repro.runtime.backend.SimBackend` builds a
private instance per call, so there is no second loop.

Virtual time
    In each round every machine receives its deliverable messages and
    then spends up to ``config.quantum`` cost units of work across its
    workers.  Messages sent in round ``r`` are deliverable in round
    ``r + net_delay_rounds``.  The **virtual makespan** — rounds until a
    query's work is done everywhere — is the latency metric the
    benchmarks report: it preserves the paper's relative shapes without
    depending on Python wall-clock behaviour.

Oldest-first quantum sharing
    A machine spends at most ``config.quantum`` cost units per global
    round across its active query slices, in admission order: each slice
    is offered what the older ones left.  A query thus runs on the quantum
    older queries leave idle (message-latency bubbles, narrow frontiers),
    older queries finish first, and a query admitted from the queue never
    changes an older one's schedule (a seeded schedule aside, whose draws
    they share): the oldest runs exactly as it would alone.  Throughput
    beats back-to-back sequential execution exactly when queries leave
    quantum idle that younger ones can soak up.  The unit is the
    *logical* machine: a host that took over a dead peer's partition
    gives each logical machine it now runs an equal part of its quantum.
    The send timeout stays the end of a round: each slice's partial
    buffers are flushed once, when its round closes.

Admission control
    At most ``config.max_concurrent_queries`` queries run at once; up to
    ``config.admission_queue_limit`` more wait in a bounded FIFO queue, and
    submissions beyond that are rejected with :class:`~repro.errors.
    AdmissionError` instead of growing an unbounded backlog.

Chaos at one seam (docs/faults.md, docs/recovery.md)
    A fault-free round is the paper's deliver → compute → STATUS over
    plain channels, with no fault, ARQ or failover branch per slice.  A
    :class:`~repro.faults.FaultPlan` in the base config makes the
    scheduler build one :class:`~repro.faults.cluster.ClusterChaos`, which
    owns the cluster's fault state and does that part of each round.

Determinism
    Admission order, the slice service order within a round, and every
    per-query protocol are deterministic, so a given submission sequence
    always produces the same interleaving.  Result *sets* are additionally
    identical to solo execution of the same query: concurrency only
    perturbs the schedule, and the engine's result assembly is
    schedule-invariant (the property the race detector checks).  The race
    detector's ``schedule_seed`` is cluster-level like the fault plan: it
    permutes the host service order and every slice's worker order each
    round, and fingerprints the orders drawn.
"""

import random
import time
from array import array
from operator import itemgetter

from ..analysis.sanitizer import sanitizer_from_config
from ..errors import (
    AdmissionError,
    ConfigError,
    ExecutionError,
    FlowControlDeadlock,
)
from ..obs.prof import profiled, profiler_from_config
from .machine import Machine
from .network import LossyNetwork, SimulatedNetwork
from .stats import RunStats

#: Budget below this fraction of a quantum is not worth offering.
_SHARE_EPSILON = 1e-6


def _check_query_config(config, cluster):
    """What a submitted query's config may say about the cluster.

    The cluster shape (machine count, network delay), the fault *plan*
    and the race-detector ``schedule_seed`` are cluster-level — one set
    of machines, one interconnect, one service order — so a submitted
    query may restate the cluster's own value (or leave the fault plan /
    seed unset) but not bring a different one.
    """
    if config.num_machines != cluster.num_machines:
        raise ConfigError(
            f"query config requests {config.num_machines} machines but "
            f"the cluster has {cluster.num_machines}"
        )
    if config.net_delay_rounds != cluster.net_delay_rounds:
        raise ConfigError(
            "query config net_delay_rounds="
            f"{config.net_delay_rounds} differs from the cluster's "
            f"{cluster.net_delay_rounds} (the interconnect is shared)"
        )
    if config.faults is not None and config.faults != cluster.faults:
        raise ConfigError(
            "per-query fault plans are not supported: faults live on "
            "the shared interconnect and machines, so the plan is "
            "cluster-level — pass it in the session/cluster base "
            "config (a submitted query may restate that same plan "
            "or leave faults unset)"
        )
    if (
        config.schedule_seed is not None
        and config.schedule_seed != cluster.schedule_seed
    ):
        raise ConfigError(
            f"per-query schedule_seed={config.schedule_seed} differs from "
            f"the cluster's {cluster.schedule_seed!r}: the race detector "
            "permutes the whole cluster's service order, so the seed is "
            "cluster-level — pass it in the session/cluster base config "
            "(a submitted query may restate that same seed or leave it "
            "unset)"
        )


class RoundRules:
    """One query's round rules, applied at the same points of a round by
    the simulator's :class:`QueryTask` and by a process worker
    (:mod:`repro.runtime.backend`), each on the cluster-wide facts it has.
    Rounds are the query's own, counted from its admission."""

    def __init__(self, query_id, config):
        self.query_id = query_id
        self.config = config
        self.admitted_round = 1
        self.round_work = array("d")  # per round, each machine's cost units
        self.last_progress = 0  # reset at admission and every rollback
        self.quiescent_round = None  # local rounds (relative to admission)
        self.timed_out = False
        self.partial = False

    def local_round(self, round_no):
        """Rounds of virtual time this query has been running."""
        return round_no - self.admitted_round + 1

    def stalled(self, round_no):
        """No progress for more than ``stall_limit`` rounds."""
        return round_no - self.last_progress > self.config.stall_limit

    def expired(self, round_no):
        """Before round ``round_no``'s work: raises past ``max_rounds``;
        True past the deadline (the query ends partial, timed out)."""
        local = self.local_round(round_no)
        config = self.config
        if local > config.max_rounds:
            raise ExecutionError(
                f"query {self.query_id} exceeded max_rounds="
                f"{config.max_rounds} (runaway query or configuration "
                "too tight)"
            )
        if config.deadline is not None and local > config.deadline:
            self.partial = self.timed_out = True
            return True
        return False

    def status_round(self, machines, consumed, round_no):
        """The STATUS rule for each of ``machines`` that consumed nothing;
        True when one concluded, which proves every sink complete."""
        round_trip = 2 * self.config.net_delay_rounds + 1
        for s in machines:
            if not consumed[s.id] and s.protocol.idle_round(round_no, round_trip):
                s.broadcast_status(round_no)
        return any(s.protocol.concluded for s in machines)

    def progressed(self, round_no, worked, quiet):
        """After a round that concluded nothing: True if some machine
        ``worked``; else stamp ``quiescent_round`` (the latency metric)
        the first round ``quiet()`` — no query work anywhere — holds."""
        if worked:
            self.last_progress = round_no
            self.quiescent_round = None
            return True
        if self.quiescent_round is None and quiet():
            self.quiescent_round = self.local_round(round_no)
        return False


def stall_facts(slices):
    """``(flow-control blocks, per machine its inbox, absorbed batches and
    credits in flight, per worker its jobs and the send it is stuck on)``."""
    blocked = sum(s.stats.flow_control_blocks for s in slices)
    machines = [
        {"machine": s.id, "inbox": len(s.inbox), "absorbed": s.absorbed,
         "in_flight": s.flow.in_flight}
        for s in slices
    ]
    workers = [
        {"machine": s.id, "worker": w.id, "jobs": len(w.jobs),
         "waits_on": s.refused_send(w)}
        for s in slices
        for w in s.workers
    ]
    return blocked, machines, workers


def stall_error(query_id, config, round_no, quiescent, parts):
    """The error of a stall no detected failure explains: a protocol bug
    when ``quiescent``, else lost credits, with the wait-for graph of
    ``parts`` (:func:`stall_facts` of every machine, in any parts)."""
    if quiescent:
        return ExecutionError(
            f"termination protocol for query {query_id} failed to "
            f"conclude by round {round_no} despite quiescence "
            "(protocol bug)"
        )
    blocked = sum(part[0] for part in parts)
    machines = sorted((m for part in parts for m in part[1]), key=itemgetter("machine"))
    workers = sorted((w for part in parts for w in part[2]), key=itemgetter("machine", "worker"))
    lines = [
        "machine {machine}: inbox {inbox}, absorbed {absorbed}, "
        "in-flight credits {in_flight}".format(**m)
        for m in machines
    ]
    for w in workers:
        wait = w["waits_on"]
        lines.append(f"machine {w['machine']} worker {w['worker']}: {w['jobs']} jobs" + (
            "" if wait is None else ", send refused to (dst {dst}, stage {stage}, "
            "depth {depth}): {in_flight} of {capacity} credits in flight".format(**wait)
        ))
    # A blocked worker always absorbs what it received, so a credit that
    # never comes back was lost by the protocol, not by a small budget.
    return FlowControlDeadlock(
        f"query {query_id} made no progress for "
        f"{config.stall_limit} rounds at round {round_no}: "
        f"{blocked} flow-control blocks ({'; '.join(lines)}); credits in "
        "flight that never return are a flow-control bug"
    )


class QueryTask(RoundRules):
    """One admitted query's execution state inside the cluster scheduler."""

    def __init__(
        self, query_id, dgraph, plan, config, sink_factory, channel,
        sanitizer=None, obs=None, prof=None,
    ):
        super().__init__(query_id, config)
        self.plan = plan
        self.channel = channel
        self.sanitizer = sanitizer
        self.obs = obs
        self.sinks = [sink_factory(m) for m in range(config.num_machines)]
        self.slices = [
            Machine(
                m, dgraph, plan, config, channel, self.sinks[m],
                sanitizer=sanitizer, obs=obs, query_id=query_id, prof=prof,
            )
            for m in range(config.num_machines)
        ]
        self.started = time.perf_counter()
        # Cost units each logical machine consumed in the current round.
        self.consumed = [0.0] * config.num_machines
        self.down_machines = ()
        self.finished = False
        self.cancelled = False
        self.error = None
        self.stats = None

    def is_quiescent(self):
        """No query work anywhere (ignoring STATUS heartbeats)."""
        if self.channel.has_protocol_work():
            return False
        return all(s.is_quiescent() for s in self.slices)

    def instant(self, name, local, **args):
        """Stamp a scheduler event on this query's recorder, if any."""
        if self.obs is not None:
            args["round"] = local
            self.obs.cluster_instant(name, args=args, round_no=local)

    def diagnose_stall(self, round_no):
        """Raise :func:`stall_error`, stamping ``scheduler.stall`` and, for
        lost credits, ``flow.deadlock`` with the wait-for graph."""
        local = self.local_round(round_no)
        self.instant("scheduler.stall", local)
        quiescent = self.is_quiescent()
        blocked, machines, workers = facts = stall_facts(self.slices)
        if not quiescent:
            self.instant("flow.deadlock", local, blocks=blocked, machines=machines, workers=workers)
        raise stall_error(self.query_id, self.config, round_no, quiescent, [facts])

    def settle_and_audit(self, round_no):
        """Sanitizer epilogue: the last DONE messages (credit returns) may
        still be in flight when the protocol concludes, and the private
        channel is dropped right after, so it is drained ahead of the global
        clock (:meth:`SimulatedNetwork.settle`); then credit conservation
        and global sent == processed are checked on every channel."""
        limit = round_no + 16 + 4 * self.config.net_delay_rounds
        round_no = self.channel.settle(self.slices, round_no, limit)
        self.sanitizer.on_query_end([s.flow for s in self.slices])
        self.sanitizer.check_final_counts([s.tracker for s in self.slices])
        return round_no


class ClusterScheduler:
    """Runs queries on one simulated cluster, one global round at a time.

    The scheduler owns the cluster shape (machine count, quantum, network
    delay) via ``base_config`` — including the fault plan and the
    race-detector ``schedule_seed``, when there are any; each submitted
    query brings its own :class:`~repro.config.EngineConfig` whose
    cluster-level fields must match.  Call :meth:`submit` any number of
    times, then :meth:`run` (or :meth:`step` round by round); finished
    tasks carry their :class:`RunStats` and filled sinks.

    ``prof`` overrides the profiler ``base_config.profile`` would create;
    ``obs`` is the recorder a fault plan's injector and membership
    detector stamp their events on (a solo run passes its query's own).
    """

    def __init__(self, dgraph, base_config, prof=None, obs=None):
        self.dgraph = dgraph
        self.config = base_config
        # The profiler only reads the wall clock, so virtual-time results
        # are bit-identical with or without it.
        if prof is None:
            prof = profiler_from_config(base_config)
        self.prof = prof
        if dgraph.num_machines != base_config.num_machines:
            raise ExecutionError(
                f"graph partitioned for {dgraph.num_machines} machines but "
                f"config requests {base_config.num_machines}"
            )
        if base_config.faults is None:
            self.chaos = None
        else:
            from ..faults.cluster import ClusterChaos  # deferred: import cycle

            self.chaos = ClusterChaos(base_config, dgraph, prof=prof, obs=obs)
        # Race-detector mode: one RNG permutes the host service order and
        # every slice's worker order; the fingerprint hashes the host
        # orders drawn so far.
        self._sched_rng = (
            random.Random(base_config.schedule_seed)
            if base_config.schedule_seed is not None
            else None
        )
        self.schedule_fingerprint = None
        self.round_no = 0
        self.active = []  # admission order
        self.pending = []  # bounded FIFO of not-yet-admitted QueryTasks
        self._next_query_id = 1
        self.admitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, plan, sink_factory, config=None, obs=None):
        """Queue one query; returns its :class:`QueryTask`.

        ``obs`` (a :class:`~repro.obs.Recorder` built with ``config``) and
        the round timeline run on the query's own clock — rounds since its
        admission.  Raises :class:`AdmissionError` when the concurrency
        limit *and* the pending queue are both full.
        """
        config = self.config if config is None else config
        _check_query_config(config, self.config)
        if (
            len(self.active) >= self.config.max_concurrent_queries
            and len(self.pending) >= self.config.admission_queue_limit
        ):
            self.rejected += 1
            raise AdmissionError(
                f"admission queue full: {len(self.active)} running, "
                f"{len(self.pending)} pending (max_concurrent_queries="
                f"{self.config.max_concurrent_queries}, "
                f"admission_queue_limit={self.config.admission_queue_limit})"
            )
        query_id = self._next_query_id
        self._next_query_id += 1
        sanitizer = sanitizer_from_config(config, obs=obs)
        channel = self._channel(config, plan.num_slots, obs, sanitizer)
        task = QueryTask(
            query_id, self.dgraph, plan, config, sink_factory, channel,
            sanitizer=sanitizer, obs=obs, prof=self.prof,
        )
        if self.chaos is not None:
            self.chaos.attach(task, self.round_no)
        self.pending.append(task)
        self._admit()
        return task

    def _channel(self, config, num_slots, obs, sanitizer):
        """The query's private channel, its class picked here once.
        Reliable transport resolves against the *cluster's* chaos: an
        explicit flag wins, else ARQ is armed exactly when something can be
        lost or the query wants the retransmit queue as its replay log."""
        shape = (self.config.num_machines, self.config.net_delay_rounds, num_slots)
        rto = config.retransmit_timeout_rounds or self.config.retransmit_timeout_rounds
        link = dict(retransmit_timeout_rounds=rto, obs=obs, sanitizer=sanitizer, prof=self.prof)
        if self.chaos is not None:
            reliable = config.reliable_transport is not False  # unset: on
            return self.chaos.channel(*shape, reliable=reliable, **link)
        # (recovery=True with reliable_transport=False is a ConfigError)
        if config.reliable_transport or config.recovery:
            return LossyNetwork(*shape, reliable=True, **link)
        return SimulatedNetwork(*shape, prof=self.prof)

    def _admit(self):
        """Move pending tasks onto the cluster up to the concurrency cap."""
        while (
            self.pending
            and len(self.active) < self.config.max_concurrent_queries
        ):
            task = self.pending.pop(0)
            task.admitted_round = self.round_no + 1
            task.last_progress = self.round_no
            if self.chaos is not None:
                self.chaos.admit(task, self.round_no)
            self.active.append(task)
            self.admitted += 1
            if task.obs is not None:
                task.obs.cluster_instant(
                    "query.start",
                    args={
                        "query": task.query_id,
                        "stages": len(task.plan.stages),
                    },
                )

    def cancel(self, task):
        """Withdraw a query; returns True unless it had already finished.

        A pending task is simply dequeued; an active one is torn down
        without the settle/audit epilogue (its in-flight traffic dies with
        its private channel).  Either way the task ends ``cancelled`` with
        no stats, its checkpoints and transport namespace released —
        even mid-rollback — without perturbing co-resident queries.
        """
        if task.finished:
            return False
        task.cancelled = True
        task.finished = True
        if task in self.pending:
            self.pending.remove(task)
        if task in self.active:
            self.active.remove(task)
            self._admit()
        self._retire(task)
        return True

    def _retire(self, task):
        """Free the cluster state a departed query pins (its transport goes
        with ``task.channel``); returns the RunStats fields chaos fills."""
        return {} if self.chaos is None else self.chaos.retire(task)

    def _finish(self, task, round_no, error=None):
        """Retire ``task``: audit, build its :class:`RunStats`, free its slot.

        Rounds are query-local.  An ``error`` belongs to one query, not
        the cluster: it is parked on the task (re-raised, carrying the
        task's recorder as ``error.obs``, by ``QueryHandle.result`` /
        ``SimBackend.run``) and the other queries keep running.
        """
        if error is not None:
            error.obs = task.obs  # an observed failure's events go with it
            task.error = error
            task.partial = True
        local = task.local_round(round_no)
        if task.sanitizer is not None and not task.partial:
            # The settle drain runs on a private clock continuing from the
            # global round; only the extra rounds count toward the tail.
            local += task.settle_and_audit(round_no) - round_no
        for s in task.slices:
            s.finalize_stats()
        chaos = self._retire(task)
        task.stats = RunStats(
            [s.stats for s in task.slices],
            local,
            time.perf_counter() - task.started,
            task.config,
            quiescent_round=task.quiescent_round,
            schedule_fingerprint=self.schedule_fingerprint,
            partial=task.partial,
            down_machines=task.down_machines,
            transport=task.channel.transport_summary(),
            timed_out=task.timed_out,
            # The round loop's phases are shared, not attributable per query.
            profile=self.prof.summary() if self.prof is not None else None,
            round_work=task.round_work,
            **chaos,
        )
        task.finished = True
        self.active.remove(task)
        if task.obs is not None:
            task.obs.cluster_instant(
                "query.end",
                args={
                    "query": task.query_id,
                    "rounds": local,
                    "quiescent_round": task.quiescent_round,
                },
                round_no=local,
            )

    # ------------------------------------------------------------------
    # The global round loop
    # ------------------------------------------------------------------
    def step(self):
        """Run one global round; returns the tasks that finished in it."""
        self.round_no += 1
        round_no = self.round_no
        running = list(self.active)

        # Per-query prologue, on the query's own clock (rounds since
        # admission): the round cap and the deadline end a query *before*
        # the round's work, then the recorder's clock moves to this round.
        for task in running:
            self._begin_round(task, round_no)
        if self.chaos is None:
            self._deliver(round_no)
        else:
            # Crashes and detector verdicts first, on the shared clock.
            self.chaos.begin_round(self.active, round_no)
            self.chaos.deliver(self.active, round_no)
        self._compute(round_no)
        # One global tick drives every channel's retransmit timer.
        for task in self.active:
            task.channel.tick(round_no)
        for task, error in self._protocol(round_no):
            self._finish(task, round_no, error)
        finished = [task for task in running if task.finished]
        if finished:
            self._admit()
        return finished

    @profiled("sched.deliver")
    def _deliver(self, round_no):
        """Delivery phase: each slice drains its query's private channel."""
        for task in self.active:
            drain = task.channel.drain
            for s in task.slices:
                delivered = drain(s.id, round_no)
                if delivered:
                    s.deliver(delivered)

    @profiled("sched.compute")
    def _compute(self, round_no):
        """Execution phase: every logical machine, in service order,
        splits its quantum across the query slices it runs."""
        num_machines = self.config.num_machines
        order = range(num_machines)
        active = self.active
        if self._sched_rng is not None:
            order = self._sched_rng.sample(order, num_machines)
            self.schedule_fingerprint = hash(
                (self.schedule_fingerprint, tuple(order))
            )
            for rank, logical in enumerate(order):  # numbers this round's seqs
                for task in active:
                    task.slices[logical].rank = rank
        for task in active:
            task.consumed = [0.0] * num_machines
        quantum = self.config.quantum
        if self.chaos is None:
            for logical in order:
                slices = [(task, task.slices[logical]) for task in active]
                self._run_machine_round(round_no, quantum, slices)
            return
        for logical in order:
            budget, slices = self.chaos.share(logical, active, round_no, quantum)
            self._run_machine_round(round_no, budget, slices)

    @profiled("sched.protocol")
    def _protocol(self, round_no):
        """Per-query protocol phase; returns ``(task, error)`` per task
        that finished."""
        done = []
        for task in self.active:
            try:
                if self._drive_protocol(task, round_no):
                    done.append((task, None))
            except ExecutionError as error:
                done.append((task, error))
        return done

    def _begin_round(self, task, round_no):
        """Round cap, deadline and recorder clock for one task's round."""
        local = task.local_round(round_no)
        try:
            expired = task.expired(round_no)
        except ExecutionError as error:
            self._finish(task, round_no, error)
            return
        if expired:
            if self.chaos is not None:
                task.down_machines = self.chaos.confirmed_down()
            task.instant("scheduler.deadline", local, deadline=task.config.deadline)
            self._finish(task, round_no)
        elif task.obs is not None:
            task.obs.begin_round(local)

    def _run_machine_round(self, round_no, budget, slices):
        """Oldest-first, work-conserving split of one logical machine's
        ``budget``: the slices, in admission order, are each offered what
        the older ones left.  Each slice's round is closed once, on its
        total: one timeout flush, its cost and the busy/idle booking
        (:meth:`Machine.close_round`).  A slice with work and no budget
        left waits behind older queries, which is no stall.
        """
        rng = self._sched_rng
        remaining = budget
        for task, s in slices:
            used = 0.0
            if remaining <= budget * _SHARE_EPSILON:
                if not s.is_quiescent():
                    task.last_progress = round_no
            elif rng is not None or not s.is_quiescent():  # a seeded schedule draws in it
                used = s.run_slice(round_no, remaining, rng=rng)
                remaining -= used
            task.consumed[s.id] = s.close_round(used)

    def _drive_protocol(self, task, round_no):
        """Round timeline / STATUS rule / termination / stall for one task.

        Returns True when the task finished this round (concluded, or
        degraded to partial results on a permanent unrecovered crash);
        raises on a stall nobody can explain.
        """
        local = task.local_round(round_no)
        chaos = self.chaos
        consumed = task.consumed
        task.round_work.extend(consumed)
        if task.obs is not None:
            task.obs.record_round(local, consumed)
        if task.sanitizer is not None:
            task.sanitizer.check_global_counts([s.tracker for s in task.slices])
        up = task.slices if chaos is None else chaos.up_slices(task, round_no)
        if task.status_round(up, consumed, round_no):
            task.instant("termination.concluded", local)
            return True
        if chaos is not None:
            chaos.end_round(task, round_no)
        if task.progressed(round_no, any(consumed), task.is_quiescent):
            return False
        if chaos is not None:
            return chaos.idle(task, round_no)
        if task.stalled(round_no):
            task.diagnose_stall(round_no)
        return False

    def run(self):
        """Step until every submitted query has finished.

        Returns all tasks finished during this call, in completion order.
        The global round counter keeps advancing across calls, so
        interleaving ``submit``/``run`` is fine.
        """
        finished = []
        while self.active or self.pending:
            self._admit()
            finished.extend(self.step())
        return finished

    @property
    def makespan(self):
        """Global rounds elapsed on the shared cluster clock."""
        return self.round_no
