"""The cluster under a fault plan: what chaos adds to the scheduler's round.

:class:`~repro.runtime.multi.ClusterScheduler` runs the paper's deliver →
compute → STATUS round over plain channels, and builds one
:class:`ClusterChaos` only when its base config carries a
:class:`~repro.faults.FaultPlan` (docs/faults.md, docs/recovery.md):

* Faults are a property of the *cluster*: one shared seeded
  :class:`~repro.faults.FaultInjector` perturbs every query's
  :class:`~repro.runtime.network.LossyNetwork`, and a machine outage
  takes down every query slice it hosts, on the global round clock.
* Failure handling is detection-driven: one
  :class:`~repro.membership.MembershipService` confirms crashes by quorum,
  and only a confirmed verdict triggers the partition failover (the shared
  :class:`~repro.recovery.HostMap`), which rolls back **only the queries
  that lost state on that machine** — the blast radius.  Queries without
  recovery degrade to partial results; later ones inherit the placement.
* Recovery stays per query: each recovery-enabled query has its own
  :class:`~repro.recovery.RecoveryManager` and checkpoint cadence.
* A query stalled past ``stall_limit`` goes to
  :func:`~repro.membership.resolve_stall`: partial results, a quorum-lost
  error, or — no detected failure — the deadlock/protocol-bug diagnosis.

Every admitted query's result set is bit-identical to its fault-free solo
run (tests/test_concurrency_chaos.py).
"""

from ..analysis.sanitizer import sanitizer_from_config
from ..membership import MembershipService, quorum_lost_error, resolve_stall
from ..obs.prof import profiled
from ..recovery import HostMap, RecoveryManager
from ..runtime.network import LossyNetwork
from .injector import FaultInjector


class ClusterChaos:
    """Injector, detector, failover and recovery for one cluster; ``obs``
    records the injector's and detector's events."""

    def __init__(self, config, dgraph, prof=None, obs=None):
        self.num_machines = config.num_machines
        self.dgraph = dgraph
        self.prof = prof
        self.injector = FaultInjector(config.faults, config.num_machines, obs=obs)
        # One failure detector: every query's failover / partial /
        # abandonment decisions ride the same quorum-confirmed verdicts.
        if config.membership_enabled:
            self.membership = MembershipService.from_config(
                config, injector=self.injector, obs=obs,
                sanitizer=sanitizer_from_config(config, obs=obs),
            )
        else:
            self.membership = None
        # Created with the first recovery-enabled query: placement is
        # shared (a machine moves for everyone), rollback is per query.
        self.host_map = None
        # One entry per permanent crash: the queries that rolled back.
        self.blast_radius = []
        self.recovery = {}  # QueryTask -> its RecoveryManager

    def channel(self, *args, **kwargs):
        """A query's private channel on the shared injector and detector."""
        return LossyNetwork(
            *args, faults=self.injector, membership=self.membership, **kwargs
        )

    def attach(self, task, round_no):
        """Arm crash recovery for a submitted query that asked for it."""
        if task.config.recovery:
            self.recovery[task] = RecoveryManager(
                task.slices, task.channel, self.dgraph,
                self._ensure_host_map(round_no), sanitizer=task.sanitizer,
                obs=task.obs, prof=self.prof, query_id=task.query_id,
                membership=self.membership,
            )

    def admit(self, task, round_no):
        """Initial checkpoint before the query's first round: a crash
        during depth-0 bootstrap rolls back to the pristine state."""
        manager = self.recovery.get(task)
        if manager is not None:
            manager.checkpoint(round_no, "initial")

    def retire(self, task):
        """A query leaves (finish, cancel, deadline — even mid-rollback):
        drop its checkpoints and return the :class:`RunStats` fields chaos
        fills — the shared injector's and detector's counts as of now, and
        its own recovery."""
        manager = self.recovery.pop(task, None)
        stats = {
            "fault_events": self.injector.summary(),
            "recovery": None,
            "membership": (
                self.membership.summary() if self.membership is not None else None
            ),
        }
        if manager is not None:
            stats["recovery"] = manager.summary()
            manager.release()
        return stats

    def confirmed_down(self):
        """The *detected* dead, not ground truth: a crash the detector has
        not confirmed is indistinguishable from slowness."""
        if self.membership is None:
            return ()
        return self.membership.confirmed_down()

    def _ensure_host_map(self, round_no):
        """Create the shared failover map with the first recovery query,
        seeded with the hosts already *confirmed* down: a query admitted
        after a confirmed crash never places state on the dead host."""
        if self.host_map is None:
            self.host_map = HostMap(self.num_machines)
            already_dead = self.confirmed_down()
            if already_dead:
                self.host_map.fail_over(already_dead)
                for host in already_dead:
                    self.membership.fence(host, round_no)
        return self.host_map

    def host_of(self, task, logical):
        """Physical host running ``task``'s logical machine ``logical``:
        identity unless a failover moved it for a recovery-enabled query
        (others keep addressing the dead host — the blast-radius boundary)."""
        manager = self.recovery.get(task)
        if manager is None:
            return logical
        return manager.hosts[logical]

    def _up(self, task, logical, round_no):
        return self.injector.machine_up(self.host_of(task, logical), round_no)

    def up_slices(self, task, round_no):
        """``task``'s slices whose host is up: a down machine broadcasts
        nothing and checks nothing."""
        return [s for s in task.slices if self._up(task, s.id, round_no)]

    def begin_round(self, active, round_no):
        """Fault prologue and failure detection on the shared clock:
        crashes hit every co-resident query at once, then one detector
        round, whose newly confirmed hosts trigger the failover."""
        crashed = self.injector.begin_round(round_no)
        if crashed:
            self._apply_crashes(crashed, active)
        if self.membership is not None:
            confirmed = self.membership.tick(round_no)
            if confirmed:
                self._apply_confirmed(confirmed, active, round_no)

    @profiled("sched.deliver")
    def deliver(self, active, round_no):
        """Delivery phase: a down host receives nothing (messages wait in
        the network), and every delivered message is evidence that its
        sender's host was alive."""
        membership = self.membership
        for task in active:
            drain = task.channel.drain
            for s in task.slices:
                if not self._up(task, s.id, round_no):
                    continue
                delivered = drain(s.id, round_no)
                if not delivered:
                    continue
                if membership is not None:
                    observer = self.host_of(task, s.id)
                    for msg in delivered:
                        membership.heard(
                            observer, self.host_of(task, msg.src_machine),
                            round_no,
                        )
                s.deliver(delivered)

    def share(self, logical, active, round_no, quantum):
        """``(budget, runnable)`` of logical machine ``logical``: a host
        running ``k`` logical machines after a failover gives each ``1/k``
        of its quantum; a slice on a down host counts a stalled round."""
        budget = quantum
        host_map = self.host_map
        if host_map is not None:
            budget /= len(host_map.hosted_on(host_map.hosts[logical]))
        runnable = []
        for task in active:
            s = task.slices[logical]
            if self._up(task, logical, round_no):
                runnable.append((task, s))
            else:
                s.stats.stalled_rounds += 1
        return budget, runnable

    def end_round(self, task, round_no):
        """A round that did not conclude ``task``: cut a checkpoint for it
        whenever new channels terminated globally."""
        manager = self.recovery.get(task)
        if manager is not None:
            manager.maybe_checkpoint(round_no)

    def idle(self, task, round_no):
        """A round in which ``task`` made no progress.  An outage under
        deliberation (an unconfirmed suspicion) resets the progress clock;
        once it expires, returns True when the query degrades to partial
        results, and raises on a lost quorum or an unexplained stall."""
        membership = self.membership
        if membership is not None and membership.unconfirmed_suspects(round_no):
            task.last_progress = round_no
        if not task.stalled(round_no):
            return False
        manager = self.recovery.get(task)
        failed_over = manager.failed_over if manager is not None else ()
        verdict, hosts = resolve_stall(membership, failed_over)
        if verdict == "partial":
            # Confirmed-down hosts this query did not recover from: return
            # what the survivors produced, flagged incomplete.
            task.partial = True
            task.down_machines = hosts
            task.instant(
                "scheduler.partial", task.local_round(round_no), down=list(hosts)
            )
            return True
        if verdict == "quorum":
            raise quorum_lost_error(hosts, round_no, task.config.stall_limit)
        task.diagnose_stall(round_no)

    def _apply_crashes(self, crashed, active):
        """Crash instants lose the crashed hosts' RX queues in every query
        with a logical machine there — nothing else (fail-recover; reliable
        senders still hold the frames).  Failover waits for the detector's
        quorum-confirmed verdict (:meth:`_apply_confirmed`)."""
        for host in crashed:
            for task in active:
                if task in self.recovery:
                    logicals = self.host_map.hosted_on(host)
                else:
                    logicals = (host,)
                for logical in logicals:
                    task.channel.lose_queue(logical)

    def _apply_confirmed(self, confirmed, active, round_no):
        """The detector just CONFIRMED ``confirmed`` down: one failover
        (if a recovery query ever armed the host map), after which only the
        recovery-enabled queries roll back to their latest checkpoints —
        the blast radius.  The others degrade once they stall."""
        rolled = []
        dead = list(confirmed)
        if self.host_map is not None:
            new_dead, orphaned = self.host_map.fail_over(confirmed)
            if new_dead is None:
                return  # already failed over (idempotent re-report)
            dead = list(new_dead)
            for task in active:
                manager = self.recovery.get(task)
                if manager is None:
                    continue
                manager.rollback(orphaned, round_no, dead=new_dead)
                # Reset the progress clock for the replay.
                task.last_progress = round_no
                task.quiescent_round = None
                rolled.append(task.query_id)
            # Failover executed: evict the dead hosts from the membership
            # view for good.
            for host in dead:
                self.membership.fence(host, round_no)
        self.blast_radius.append(
            {"round": round_no, "dead": dead, "rolled_back": rolled}
        )
