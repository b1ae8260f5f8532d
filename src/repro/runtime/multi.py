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

Fair quantum sharing
    A machine spends at most ``config.quantum`` cost units per global
    round, split across the machine's active query slices with a
    work-conserving multi-pass redistribution: every runnable slice first
    gets an equal share, and budget left idle by queries with little to
    do is re-offered to the ones still hungry.  Throughput beats
    back-to-back sequential execution exactly when queries leave quantum
    idle (message-latency bubbles, narrow frontiers) that other queries can
    soak up.  The unit is the *logical* machine: a host that took over a
    dead peer's partition gives each logical machine it now runs an equal
    part of its quantum.

Admission control
    At most ``config.max_concurrent_queries`` queries run at once; up to
    ``config.admission_queue_limit`` more wait in a bounded FIFO queue, and
    submissions beyond that are rejected with :class:`~repro.errors.
    AdmissionError` instead of growing an unbounded backlog.

Chaos, reliability, and recovery (docs/faults.md, docs/recovery.md)
    Faults are a property of the *cluster*, not of any one query: when the
    scheduler's base config carries a :class:`~repro.faults.FaultPlan`,
    one shared seeded :class:`~repro.faults.FaultInjector` perturbs every
    query's traffic on the shared interconnect, and a machine outage takes
    down every query slice it hosts.  Reliability and recovery stay *per
    query*: each channel runs its own ARQ endpoints, and each
    recovery-enabled query cuts epoch checkpoints at its own
    termination-protocol boundaries.  Failure handling is
    detection-driven: one cluster-level
    :class:`~repro.membership.MembershipService` (failure is a property
    of the machines, not of any one query) confirms crashes by quorum,
    and only a confirmed verdict triggers the cluster-level partition
    failover (the shared :class:`~repro.recovery.HostMap`), which then
    rolls back **only the queries that lost state on that machine** —
    co-resident queries without recovery degrade to partial results, and
    queries admitted later simply inherit the new placement.  When a
    query's :class:`~repro.membership.ProgressWatchdog` expires,
    :func:`~repro.membership.resolve_stall` distinguishes a confirmed-down
    peer (partial results), a suspected partition minority (quorum-lost
    error), a flow-control deadlock, and a termination-protocol failure —
    the last two would be bugs, and tests assert they never happen.
    The invariant (asserted in tests/test_concurrency_chaos.py): every
    admitted query's result set is bit-identical to its fault-free solo
    run.

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

from ..analysis.sanitizer import sanitizer_from_config
from ..errors import (
    AdmissionError,
    ConfigError,
    ExecutionError,
    FlowControlDeadlock,
)
from ..membership import ProgressWatchdog, quorum_lost_error, resolve_stall
from .machine import Machine
from .network import SimulatedNetwork
from .stats import RunStats

#: Budget below this fraction of a quantum is not worth another
#: redistribution pass.
_SHARE_EPSILON = 1e-6
#: Redistribution passes per machine per round: enough for idle budget to
#: cascade to the hungriest slice, bounded so a round stays O(slices).
_MAX_PASSES = 4


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


class QueryTask:
    """One admitted query's execution state inside the cluster scheduler."""

    def __init__(
        self, query_id, dgraph, plan, config, sink_factory, channel,
        sanitizer=None, obs=None, trace=None, prof=None,
    ):
        self.query_id = query_id
        self.plan = plan
        self.config = config
        self.channel = channel
        self.sanitizer = sanitizer
        self.obs = obs
        self.trace = trace
        self.sinks = [sink_factory(m) for m in range(config.num_machines)]
        self.slices = [
            Machine(
                m, dgraph, plan, config, channel, self.sinks[m],
                sanitizer=sanitizer, obs=obs, query_id=query_id, prof=prof,
            )
            for m in range(config.num_machines)
        ]
        self.admitted_round = None  # global round of admission
        self.started = time.perf_counter()
        self.concluded = [False] * config.num_machines
        # Cost units each logical machine consumed in the current round.
        self.consumed = [0.0] * config.num_machines
        # Progress clock: reset at admission and after every rollback.
        self.watchdog = ProgressWatchdog(config.stall_limit)
        self.quiescent_round = None  # local rounds (relative to admission)
        # Per-query crash recovery (set by the scheduler at submit time
        # when the query asked for it and the cluster can crash at all).
        self.recovery = None
        self.down_machines = ()
        self.finished = False
        self.cancelled = False
        self.timed_out = False
        self.partial = False
        self.error = None
        self.stats = None

    def local_round(self, round_no):
        """Rounds of virtual time this query has been running."""
        return round_no - self.admitted_round + 1

    def host_of(self, logical):
        """Physical host running this query's logical machine ``logical``.

        Identity unless the query is recovery-enabled and a failover moved
        the logical machine: non-recovery queries keep addressing the dead
        host (and degrade to partial results), which is exactly the
        blast-radius boundary.
        """
        if self.recovery is None:
            return logical
        return self.recovery.hosts[logical]

    def is_quiescent(self):
        """No query work anywhere (ignoring STATUS heartbeats).

        Under reliable transport, *undelivered* Batch/Done frames count as
        work (a dropped frame awaiting retransmission is nowhere in the
        queues); delivered-but-unacked frames do not — which keeps the
        quiescent round, and hence the virtual makespan, identical to an
        unreliable run when no faults actually fire.
        """
        if self.channel.has_protocol_work():
            return False
        return all(s.is_quiescent() for s in self.slices)

    def instant(self, name, local, **args):
        """Stamp a scheduler event on this query's recorder, if any."""
        if self.obs is not None:
            args["round"] = local
            self.obs.cluster_instant(name, args=args, round_no=local)

    def diagnose_stall(self, round_no):
        """No detected failure explains the stall: name the bug, with the
        wait-for graph (per machine its inbox, absorbed batches and credits
        in flight; per worker its jobs and the send it is stuck on) in the
        exception text and one ``flow.deadlock`` obs instant."""
        local = self.local_round(round_no)
        self.instant("scheduler.stall", local)
        if self.is_quiescent():
            raise ExecutionError(
                f"termination protocol for query {self.query_id} failed to "
                f"conclude by round {round_no} despite quiescence "
                "(protocol bug)"
            )
        blocked = sum(s.stats.flow_control_blocks for s in self.slices)
        machines = [
            {"machine": s.id, "inbox": len(s.inbox), "absorbed": s.absorbed,
             "in_flight": s.flow.in_flight}
            for s in self.slices
        ]
        workers = [
            {"machine": s.id, "worker": w.id, "jobs": len(w.jobs),
             "waits_on": s.refused_send(w)}
            for s in self.slices
            for w in s.workers
        ]
        self.instant("flow.deadlock", local, blocks=blocked, machines=machines, workers=workers)
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
        raise FlowControlDeadlock(
            f"query {self.query_id} made no progress for "
            f"{self.config.stall_limit} rounds at round {round_no}: "
            f"{blocked} flow-control blocks ({'; '.join(lines)}); credits in "
            "flight that never return are a flow-control bug"
        )

    def settle_and_audit(self, round_no):
        """Sanitizer epilogue on the query's *private* channel.

        At the instant the termination protocol concludes, the last DONE
        messages (credit returns) may still be in the network — that is
        legal.  The channel carries no other query's traffic and is dropped
        right after, so draining it ahead of the global clock is safe:
        deliver them, then check credit conservation (every machine's
        in-flight total back to zero) and that global sent == processed on
        every channel.  Under reliable transport a dropped frame may be
        nowhere in the queues yet (awaiting its retransmit timer):
        settling mode bypasses fault verdicts and fast-retransmits so the
        audit drains deterministically, then the transport itself is
        audited.  Downtime windows are ignored — the settle phase is the
        audit epilogue, not measured time.
        """
        channel = self.channel
        settle_limit = round_no + 16 + 4 * self.config.net_delay_rounds
        if channel.reliable:
            channel.settling = True
            settle_limit += 4 * self.config.net_delay_rounds + 8
        while round_no < settle_limit:
            if not channel.has_protocol_work():
                break
            round_no += 1
            if channel.reliable:
                channel.tick(round_no)
            for s in self.slices:
                s.deliver(channel.drain(s.id, round_no))
        self.sanitizer.on_query_end([s.flow for s in self.slices])
        self.sanitizer.check_final_counts([s.tracker for s in self.slices])
        if channel.reliable:
            self.sanitizer.check_transport_settled(channel)
        return round_no

    def release_resources(self):
        """Free shared-cluster state this query pins.

        Idempotent; called on finish, cancel, and deadline expiry —
        including mid-rollback — so a departed query never holds
        checkpoint storage.  The transport namespace (RX queues, ARQ
        buffers, dedup ledger) lives on ``self.channel`` and goes with the
        task; co-resident queries' channels are untouched.
        """
        if self.recovery is not None:
            self.recovery.release()


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
    ``obs`` is the recorder the cluster-level injector and membership
    detector stamp their events on (a solo run passes its query's own).
    """

    def __init__(self, dgraph, base_config, prof=None, obs=None):
        self.dgraph = dgraph
        self.config = base_config
        # The profiler only reads the wall clock, so virtual-time results
        # are bit-identical with or without it.
        if prof is None and base_config.profile:
            from ..obs.prof import PhaseProfiler  # deferred: obs is optional

            prof = PhaseProfiler()
        self.prof = prof
        if dgraph.num_machines != base_config.num_machines:
            raise ExecutionError(
                f"graph partitioned for {dgraph.num_machines} machines but "
                f"config requests {base_config.num_machines}"
            )
        # One shared seeded injector: all co-resident queries see the same
        # lossy interconnect and the same machine outages.  Fault-plan
        # crash/stall rounds are *global* cluster rounds.
        if base_config.faults is not None:
            from ..faults import FaultInjector  # deferred: avoids import cycle

            self.injector = FaultInjector(
                base_config.faults, base_config.num_machines, obs=obs
            )
        else:
            self.injector = None
        # One cluster-level failure detector (like the injector, failure
        # is a property of the machines, not of any one query): every
        # query's failover / partial / abandonment decisions ride the
        # same quorum-confirmed verdicts.  Only meaningful under fault
        # injection — on a perfect cluster nothing can fail, and skipping
        # the detector keeps fault-free runs bit-identical to a build
        # without the subsystem.
        if self.injector is not None and base_config.membership_enabled:
            from ..membership import MembershipService

            self.membership = MembershipService.from_config(
                base_config, injector=self.injector, obs=obs,
                sanitizer=sanitizer_from_config(base_config, obs=obs),
            )
        else:
            self.membership = None
        # Race-detector mode: one RNG permutes the host service order and
        # every slice's worker order; the fingerprint hashes the host
        # orders drawn so far.
        self._sched_rng = (
            random.Random(base_config.schedule_seed)
            if base_config.schedule_seed is not None
            else None
        )
        self.schedule_fingerprint = None
        # Cluster-level failover state, created lazily with the first
        # recovery-enabled query: logical->physical placement is shared
        # (a machine moves for everyone consulting the map), rollback is
        # per query.
        self.host_map = None
        # One entry per permanent crash: which queries actually rolled
        # back — the blast radius the chaos tests and `repro chaos
        # --concurrency` bound.
        self.blast_radius = []
        self.round_no = 0
        self.active = []  # admission order
        self.pending = []  # bounded FIFO of not-yet-admitted QueryTasks
        self._next_query_id = 1
        self.admitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, plan, sink_factory, config=None, obs=None, trace=None):
        """Queue one query; returns its :class:`QueryTask`.

        ``obs`` (a :class:`~repro.obs.Recorder`) and ``trace`` (an
        :class:`~repro.runtime.trace.ExecutionTrace`) are driven on the
        query's own clock — rounds since its admission.  Raises
        :class:`AdmissionError` when the concurrency limit *and* the
        pending queue are both full.
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
        # Reliable transport resolves against the *cluster's* chaos, not
        # the query's own (usually unset) fault field: explicit flag wins,
        # else ARQ is armed exactly when something can be lost or the
        # query wants the retransmit queue as its replay log.
        if config.reliable_transport is not None:
            reliable = config.reliable_transport
        else:
            reliable = self.injector is not None or config.recovery
        # The query's private channel: its queues and ARQ state (sequence
        # numbers, dedup ledger, retransmit queue) are its own, the
        # injector and the membership detector are the cluster's.
        retransmit_timeout_rounds = config.retransmit_timeout_rounds
        if retransmit_timeout_rounds is None:
            retransmit_timeout_rounds = self.config.retransmit_timeout_rounds
        channel = SimulatedNetwork(
            self.config.num_machines,
            self.config.net_delay_rounds,
            plan.num_slots,
            reliable=reliable,
            faults=self.injector,
            retransmit_timeout_rounds=retransmit_timeout_rounds,
            obs=obs,
            sanitizer=sanitizer,
            prof=self.prof,
            membership=self.membership,
        )
        if obs is not None:
            obs.configure(config.num_machines, config.quantum)
        if trace is not None:
            trace.configure(config.num_machines, config.quantum)
        task = QueryTask(
            query_id, self.dgraph, plan, config, sink_factory, channel,
            sanitizer=sanitizer, obs=obs, trace=trace, prof=self.prof,
        )
        # Recovery is only meaningful when something can crash: without an
        # injector the manager (and its checkpoints) is skipped.
        if config.recovery and self.injector is not None:
            from ..recovery import RecoveryManager  # deferred: import cycle

            task.recovery = RecoveryManager(
                task.slices, channel, self.dgraph, self.injector,
                self._ensure_host_map(), sanitizer=sanitizer, obs=obs,
                prof=self.prof, query_id=query_id,
                membership=self.membership,
            )
        self.pending.append(task)
        self._admit()
        return task

    def _ensure_host_map(self):
        """Create the shared failover map with the first recovery query.

        Seeded with any machines the membership detector has already
        confirmed down: a query admitted after a confirmed crash must
        never place state on the dead host.  (A crash not yet confirmed
        is — correctly — not visible here; the detector will confirm it
        and failover will fire then.)
        """
        if self.host_map is None:
            from ..recovery import HostMap  # deferred: import cycle

            self.host_map = HostMap(self.config.num_machines)
            already_dead = (
                self.membership.confirmed_down()
                if self.membership is not None
                else ()
            )
            if already_dead:
                self.host_map.fail_over(already_dead)
                for host in already_dead:
                    self.membership.fence(host, self.round_no)
        return self.host_map

    def _admit(self):
        """Move pending tasks onto the cluster up to the concurrency cap."""
        while (
            self.pending
            and len(self.active) < self.config.max_concurrent_queries
        ):
            task = self.pending.pop(0)
            task.admitted_round = self.round_no + 1
            task.watchdog.reset(self.round_no)
            if task.recovery is not None:
                # Initial checkpoint before the query's first round: a
                # crash during depth-0 bootstrap rolls back to the
                # pristine pre-query state.
                task.recovery.checkpoint(self.round_no, "initial")
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
        task.release_resources()
        return True

    def _finish(self, task, round_no, error=None):
        """Retire ``task``: audit, build its :class:`RunStats`, free its slot.

        Rounds are query-local.  An ``error`` belongs to one query, not
        the cluster: it is parked on the task (re-raised by
        ``QueryHandle.result`` / ``SimBackend.run``) and the other queries
        keep running.
        """
        if error is not None:
            task.error = error
            task.partial = True
        local = task.local_round(round_no)
        if task.sanitizer is not None and not task.partial:
            # The settle drain runs on a private clock continuing from the
            # global round; only the extra rounds count toward the tail.
            local += task.settle_and_audit(round_no) - round_no
        for s in task.slices:
            s.finalize_stats()
        channel = task.channel
        task.stats = RunStats(
            [s.stats for s in task.slices],
            local,
            time.perf_counter() - task.started,
            task.config,
            quiescent_round=task.quiescent_round,
            schedule_fingerprint=self.schedule_fingerprint,
            partial=task.partial,
            down_machines=task.down_machines,
            transport=channel.transport_summary() if channel.reliable else None,
            # Cluster-wide counts as of this query's finish: the injector,
            # the detector and the round loop's phases are shared, not
            # attributable per query.
            fault_events=(
                self.injector.summary() if self.injector is not None else None
            ),
            recovery=(
                task.recovery.summary() if task.recovery is not None else None
            ),
            timed_out=task.timed_out,
            profile=self.prof.summary() if self.prof is not None else None,
            membership=(
                self.membership.summary()
                if self.membership is not None
                else None
            ),
        )
        task.finished = True
        task.release_resources()
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
    # Fault handling (shared cluster clock)
    # ------------------------------------------------------------------
    def _slice_up(self, task, logical, round_no):
        """Availability of the host running ``task``'s slice ``logical``."""
        if self.injector is None:
            return True
        return self.injector.machine_up(task.host_of(logical), round_no)

    def _hosted_logicals(self, task, host):
        """``task``'s logical machines currently on physical ``host``."""
        if task.recovery is not None:
            return self.host_map.hosted_on(host)
        return (host,)

    def _apply_crashes(self, crashed):
        """Crash instants: lose the crashed hosts' RX queues — nothing
        else.

        The RX loss hits *every* query with a logical machine on the
        crashed host (durable machine state survives — fail-recover
        model; reliable senders still hold the frames).  Nobody *knows*
        about the crash yet: failover waits for the membership detector's
        quorum-confirmed verdict (:meth:`_apply_confirmed`).
        """
        for host in crashed:
            for task in self.active:
                for logical in self._hosted_logicals(task, host):
                    task.channel.lose_queue(logical)

    def _apply_confirmed(self, confirmed, round_no):
        """Detection-driven failover: the membership detector just
        CONFIRMED ``confirmed`` down.

        Triggers one cluster-level failover (when any recovery-enabled
        query ever armed the shared host map), after which only the
        recovery-enabled queries roll back to their own latest
        checkpoints — that set is the confirmation's blast radius.
        Queries without recovery keep addressing the dead host and
        degrade to partial results via their watchdogs.
        """
        rolled = []
        dead = list(confirmed)
        if self.host_map is not None:
            new_dead, orphaned = self.host_map.fail_over(confirmed)
            if new_dead is None:
                return  # already failed over (idempotent re-report)
            dead = list(new_dead)
            for task in self.active:
                if task.recovery is None:
                    continue
                task.recovery.rollback(orphaned, round_no, dead=new_dead)
                # The rollback may rewind conclusions: re-sync the
                # scheduler's view and reset the progress clock for the
                # replay.
                for s in task.slices:
                    task.concluded[s.id] = s.protocol.concluded
                task.watchdog.reset(round_no)
                task.quiescent_round = None
                rolled.append(task.query_id)
            # Failover executed: evict the dead hosts from the membership
            # view for good.
            for host in dead:
                self.membership.fence(host, round_no)
        self.blast_radius.append(
            {"round": round_no, "dead": dead, "rolled_back": rolled}
        )

    # ------------------------------------------------------------------
    # The global round loop
    # ------------------------------------------------------------------
    def step(self):
        """Run one global round; returns the tasks that finished in it."""
        self.round_no += 1
        round_no = self.round_no
        prof = self.prof
        injector = self.injector
        membership = self.membership
        num_machines = self.config.num_machines
        running = list(self.active)

        # Per-query prologue, on the query's own clock (rounds since
        # admission): the round cap and the deadline end a query *before*
        # the round's work, then the recorder's clock moves to this round.
        for task in running:
            self._begin_round(task, round_no)

        # Fault prologue: crashes fire on the shared cluster clock and
        # hit every co-resident query at once.
        if injector is not None:
            crashed = injector.begin_round(round_no)
            if crashed:
                self._apply_crashes(crashed)

        # Failure-detection phase: one detector round on the shared
        # clock; newly confirmed hosts trigger the (cluster-level)
        # failover for every recovery-enabled query.
        if membership is not None:
            confirmed = membership.tick(round_no)
            if confirmed:
                self._apply_confirmed(confirmed, round_no)

        # Delivery phase: each slice drains its query's private channel;
        # a down host receives nothing (messages wait in the network).
        if prof is not None:
            prof.enter("sched.deliver")
        for task in self.active:
            drain = task.channel.drain
            for s in task.slices:
                if not self._slice_up(task, s.id, round_no):
                    continue
                delivered = drain(s.id, round_no)
                if membership is not None and delivered:
                    # Piggybacked liveness: every delivered message is
                    # evidence its sender's host was alive.
                    observer = task.host_of(s.id)
                    for msg in delivered:
                        membership.heard(
                            observer, task.host_of(msg.src_machine), round_no
                        )
                s.deliver(delivered)
        if prof is not None:
            prof.exit()

        # Execution phase: every logical machine, in service order,
        # splits its quantum fairly across the query slices it runs.  A
        # host running ``k`` logical machines after a failover gives each
        # ``1/k`` of its per-round quantum.
        if prof is not None:
            prof.enter("sched.compute")
        order = range(num_machines)
        if self._sched_rng is not None:
            order = self._sched_rng.sample(order, num_machines)
            self.schedule_fingerprint = hash(
                (self.schedule_fingerprint, tuple(order))
            )
        for task in self.active:
            task.consumed = [0.0] * num_machines
        host_map = self.host_map
        for logical in order:
            budget = self.config.quantum
            if host_map is not None:
                budget /= len(host_map.hosted_on(host_map.hosts[logical]))
            runnable = []
            for task in self.active:
                s = task.slices[logical]
                if self._slice_up(task, logical, round_no):
                    runnable.append((task, s))
                else:
                    s.stats.stalled_rounds += 1
            self._run_machine_round(round_no, budget, runnable)
        if prof is not None:
            prof.exit()

        # One global tick drives every reliable channel's retransmit
        # timer (each query's ARQ state is private to its channel).
        for task in self.active:
            if task.channel.reliable:
                task.channel.tick(round_no)

        # Per-query protocol phase: round records, heartbeats,
        # termination, watchdogs.
        if prof is not None:
            prof.enter("sched.protocol")
        done = []
        for task in self.active:
            try:
                if self._drive_protocol(task, round_no):
                    done.append((task, None))
            except ExecutionError as error:
                done.append((task, error))
        if prof is not None:
            prof.exit()

        for task, error in done:
            self._finish(task, round_no, error)
        finished = [task for task in running if task.finished]
        if finished:
            self._admit()
        return finished

    def _begin_round(self, task, round_no):
        """Round cap, deadline and recorder clock for one task's round."""
        local = task.local_round(round_no)
        config = task.config
        if local > config.max_rounds:
            self._finish(task, round_no, ExecutionError(
                f"query {task.query_id} exceeded max_rounds="
                f"{config.max_rounds} (runaway query or configuration "
                "too tight)"
            ))
        elif config.deadline is not None and local > config.deadline:
            # Virtual-clock deadline: abort cleanly with whatever the
            # machines produced so far, flagged incomplete + timed out.
            task.partial = True
            task.timed_out = True
            if self.membership is not None:
                # The *detected* dead, not ground truth: a crash the
                # detector had not confirmed by the deadline is
                # indistinguishable from slowness.
                task.down_machines = self.membership.confirmed_down()
            task.instant("scheduler.deadline", local, deadline=config.deadline)
            self._finish(task, round_no)
        elif task.obs is not None:
            task.obs.begin_round(local)

    def _run_machine_round(self, round_no, budget, slices):
        """Fair work-conserving split of one logical machine's ``budget``.

        Pass 1 offers every slice an equal share; slices that consume
        (almost) their whole share are *hungry* and split whatever the
        others left idle in further passes.  Busy/idle round accounting is
        charged once per slice at the end, on its total.
        """
        rng = self._sched_rng
        remaining = budget
        hungry = slices
        passes = 0
        while hungry and remaining > budget * _SHARE_EPSILON:
            share = remaining / len(hungry)
            spent_this_pass = 0.0
            still_hungry = []
            for task, s in hungry:
                used = s.run_slice(round_no, share, rng=rng)
                task.consumed[s.id] += used
                spent_this_pass += used
                if used >= share * (1.0 - _SHARE_EPSILON):
                    still_hungry.append((task, s))
            remaining = max(0.0, remaining - spent_this_pass)
            hungry = still_hungry
            passes += 1
            if passes >= _MAX_PASSES:
                break
        for task, s in slices:
            s.account_round(task.consumed[s.id])

    def _drive_protocol(self, task, round_no):
        """Round record / heartbeats / termination / watchdog for one task.

        Returns True when the task finished this round (concluded, or
        degraded to partial results on a permanent unrecovered crash);
        raises on a stall nobody can explain.
        """
        local = task.local_round(round_no)
        config = task.config
        membership = self.membership
        if task.trace is not None:
            task.trace.record_round(local, task.consumed)
        if task.obs is not None:
            task.obs.record_round(local, task.consumed)
        if local % config.status_interval == 0:
            for s in task.slices:
                if not self._slice_up(task, s.id, round_no):
                    continue  # a down machine broadcasts nothing
                s.broadcast_status(round_no)
            if task.sanitizer is not None:
                task.sanitizer.check_global_counts(
                    [s.tracker for s in task.slices]
                )
            done = True
            for s in task.slices:
                if not self._slice_up(task, s.id, round_no):
                    done = done and task.concluded[s.id]
                    continue
                if not task.concluded[s.id]:
                    task.concluded[s.id] = s.check_termination()
                done = done and task.concluded[s.id]
            if done:
                if task.trace is not None:
                    task.trace.record_event(
                        local, "termination protocol concluded"
                    )
                task.instant("termination.concluded", local)
                return True
            if task.recovery is not None:
                # Checkpoint cadence rides this query's own termination
                # protocol: cut one whenever new channels terminated
                # globally for *this* query.
                task.recovery.maybe_checkpoint(round_no)
        if any(task.consumed):
            task.watchdog.observe(round_no, True)
            task.quiescent_round = None
            return False
        # Record when all query work (not protocol heartbeats) is done:
        # this is the latency metric; the termination protocol still
        # decides when machines actually stop.
        if task.quiescent_round is None and task.is_quiescent():
            task.quiescent_round = local
        # An outage under deliberation is not a stall: the detector's
        # unconfirmed suspicions reset the progress clock (hosts may come
        # back, retransmissions pending).
        task.watchdog.observe(round_no, False, membership)
        if task.watchdog.expired(round_no):
            failed_over = (
                task.recovery.failed_over if task.recovery is not None else ()
            )
            verdict, hosts = resolve_stall(membership, failed_over)
            if verdict == "partial":
                # Confirmed-down hosts this query did not recover from:
                # give up on their share of the work and return what the
                # survivors produced, flagged incomplete.
                task.partial = True
                task.down_machines = hosts
                task.instant("scheduler.partial", local, down=list(hosts))
                return True
            if verdict == "quorum":
                raise quorum_lost_error(hosts, round_no, config.stall_limit)
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
