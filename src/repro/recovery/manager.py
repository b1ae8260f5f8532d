"""Crash recovery: partition failover and exactly-once replay.

The :class:`RecoveryManager` coordinates the whole recovery story
(docs/recovery.md):

* **Logical vs. physical machines.**  Query state, routing, and message
  addressing all use *logical* machine ids.  ``hosts[logical]`` maps each
  logical machine to the physical host currently running it — identity
  until a failover moves a dead host's logicals onto survivors.  The
  deterministic partitioner means the new host re-derives the dead
  machine's partition instead of recovering data.

* **Epoch checkpoints.**  Between rounds — at the termination
  protocol's natural cut points: whenever the set of globally-terminated
  ``(stage, depth)`` channels grows — every machine snapshots its
  recoverable state into the durable :class:`CheckpointStore`, plus one
  initial checkpoint before round 1 so a crash during depth-0 bootstrap
  is recoverable.

* **Global rollback.**  On a permanent crash the manager bumps the
  recovery epoch, re-hosts the dead machine's logicals (min-load over
  survivors), and rolls *all* machines back to the latest checkpoint.
  Survivor-side state past the checkpoint cannot be kept: re-execution
  re-assigns transport sequence numbers, so mixing pre-crash and
  replayed frames would break the dedup keys.

* **Exactly-once replay.**  The ARQ retransmit queue is the redo log:
  restoring ``_outstanding`` re-sends every frame unacked at checkpoint
  time, the restored receiver dedup ledger suppresses re-delivery of
  frames accepted before the checkpoint, and the restored sink
  watermarks truncate outputs emitted past it — so every context is
  processed, and every row emitted, exactly once.

* **Epoch fencing.**  Every in-flight copy is stamped with its send
  epoch; the receive path discards copies older than the current epoch,
  so stale pre-rollback traffic (data *and* ACKs) can never contaminate
  the replay.

The manager lives in the scheduler, not on any machine — it models the
replicated coordinator service a real deployment would run (e.g. on the
checkpoint store's consensus group), which is why the crash of machine 0
is as recoverable as any other.

Failure detection is *not* instant, and it is not an oracle: failover
triggers only on a quorum-confirmed verdict from the
:class:`~repro.membership.MembershipService` — a heartbeat detector that
learns about peers purely through (missed) messages.  When a membership
service is attached, :meth:`RecoveryManager.rollback` asserts (via the
sanitizer) that every host it is asked to fail over really carries a
confirmed verdict: recovery cannot act on ground truth it should not
have.
"""

from collections import Counter

from ..errors import ExecutionError
from ..obs.prof import profiled
from ..runtime.termination import TerminationEvaluator
from .checkpoint import CheckpointStore, ClusterCheckpoint


class HostMap:
    """The cluster-level logical→physical machine mapping.

    Failover is a property of the *cluster*, not of any one query: when a
    physical host dies permanently, every logical machine it ran moves to
    a survivor, and every query — present and future — must agree on the
    new placement.  The :class:`~repro.runtime.multi.ClusterScheduler`
    owns one shared instance that all per-query recovery managers (and
    the per-query network channels, via the aliased ``hosts`` list)
    consult.
    """

    def __init__(self, num_machines):
        self.hosts = list(range(num_machines))  # logical -> physical
        self.failed_over = set()  # physical hosts permanently lost

    def hosted_on(self, physical):
        """Logical machines currently running on physical host ``physical``."""
        return [l for l, h in enumerate(self.hosts) if h == physical]

    def rehosted_logicals(self):
        """Logical machines no longer on their identity host (sorted)."""
        return tuple(l for l, h in enumerate(self.hosts) if h != l)

    def fail_over(self, dead_physicals):
        """Re-host every logical machine on ``dead_physicals`` onto the
        least-loaded survivors (min-load, lowest id breaks ties).

        Mutates ``hosts`` *in place* so every alias (network channels,
        per-query managers) observes the move.  Returns ``(dead,
        orphaned)`` — the newly-lost hosts and the logical machines that
        moved — or ``(None, ())`` when every dead host was already
        failed over (an idempotent re-report).
        """
        dead = [p for p in dead_physicals if p not in self.failed_over]
        if not dead:
            return None, ()
        orphaned = []
        for physical in dead:
            orphaned.extend(self.hosted_on(physical))
            self.failed_over.add(physical)
        orphaned = sorted(set(orphaned))
        survivors = [
            p for p in range(len(self.hosts)) if p not in self.failed_over
        ]
        if not survivors:
            raise ExecutionError(
                "crash recovery impossible: no surviving machines"
            )
        load = Counter()
        for logical, host in enumerate(self.hosts):
            if host in self.failed_over:
                continue
            load[host] += 1
        for logical in orphaned:
            target = min(survivors, key=lambda s: (load[s], s))
            self.hosts[logical] = target
            load[target] += 1
        return dead, orphaned


class RecoveryManager:
    """Checkpoint/failover/replay coordinator for one query execution.

    Each admitted query gets its *own* manager — its own checkpoint
    store, recovery epoch, and rollback — while the host mapping is the
    scheduler's, shared across queries via ``host_map``
    (failover moves a machine for everyone; rollback only rewinds the
    queries that lost state).  ``query_id`` tags recovery events on the
    observability timeline.
    """

    def __init__(
        self, machines, network, dgraph, host_map, sanitizer=None,
        obs=None, prof=None, query_id=0, membership=None,
    ):
        self.machines = machines
        self.network = network
        self.dgraph = dgraph
        self.membership = membership
        self.sanitizer = sanitizer
        self.obs = obs
        self.prof = prof
        self.query_id = query_id
        self.epoch = 0
        self.host_map = host_map
        self.store = CheckpointStore()
        self.checkpoints_taken = 0
        self.recoveries = 0
        self._checkpointed_terminated = set()
        self._evaluator = TerminationEvaluator(machines[0].plan)
        self._versions = None  # the trackers' versions at the last look
        # The network shares the live hosts list: retransmission and
        # abandonment decisions follow failovers automatically.
        network.hosts = self.host_map.hosts
        # A query admitted after an earlier failover inherits the moves:
        # frames to already-rehosted logicals must never be abandoned.
        network.rehosted.update(self.host_map.rehosted_logicals())

    # ------------------------------------------------------------------
    # Host mapping (the scheduler's shared HostMap)
    # ------------------------------------------------------------------
    @property
    def hosts(self):
        return self.host_map.hosts

    @property
    def failed_over(self):
        return self.host_map.failed_over

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _terminated_channels(self):
        """Channels terminated on every machine's live counters: the
        manager sees the whole cluster, as a checkpoint does."""
        return self._evaluator.evaluate([m.tracker for m in self.machines])[0]

    @profiled("ckpt.cut")
    def checkpoint(self, round_no, reason):
        """Cut a global checkpoint of all recoverable state, now."""
        terminated = self._terminated_channels()
        snapshot = ClusterCheckpoint(
            epoch=self.epoch,
            round_no=round_no,
            reason=reason,
            machines={m.id: m.checkpoint_state() for m in self.machines},
            network=self.network.checkpoint_state(),
            terminated=terminated,
            query_id=self.query_id,
        )
        self.store.put(snapshot)
        self.checkpoints_taken += 1
        self._checkpointed_terminated = terminated
        if self.sanitizer is not None:
            self.sanitizer.on_checkpoint(self.epoch, self.machines)
        if self.obs is not None:
            self.obs.cluster_instant(
                "recovery.checkpoint",
                args={
                    "query": self.query_id,
                    "epoch": self.epoch,
                    "round": round_no,
                    "reason": reason,
                    "terminated_channels": len(terminated),
                },
                round_no=round_no,
                cat="recovery",
            )
        return snapshot

    def maybe_checkpoint(self, round_no):
        """Checkpoint when a new epoch terminated since the last one.

        Called every round: growth of the globally-terminated channel set
        is exactly the protocol's "this epoch of the computation is
        finished everywhere" signal, so the checkpoint captures a natural
        cut with no extra coordination.  While no tracker's version moved
        (a rollback moves them all), the set cannot have grown.
        """
        versions = [m.tracker.version for m in self.machines]
        if versions == self._versions:
            return False
        self._versions = versions
        terminated = self._terminated_channels()
        if terminated - self._checkpointed_terminated:
            self.checkpoint(round_no, "epoch")
            return True
        return False

    # ------------------------------------------------------------------
    # Failover + rollback + replay
    # ------------------------------------------------------------------
    @profiled("ckpt.restore")
    def rollback(self, orphaned, round_no, dead=()):
        """Roll *this query* back to its latest checkpoint and arm replay.

        ``orphaned`` is the set of logical machines the (already decided)
        failover moved — their partitions are re-derived on the new host.
        Bumps this query's recovery epoch, fencing its in-flight traffic;
        co-resident queries' channels are untouched.
        """
        if dead and self.sanitizer is not None:
            # No-failover-without-confirmation: when a membership service
            # is attached, every host being failed over must carry a
            # quorum-confirmed down verdict.
            self.sanitizer.on_failover(dead, self.membership)
        self.epoch += 1
        self.network.epoch = self.epoch
        self.network.rehosted.update(orphaned)

        snapshot = self.store.latest()
        if snapshot is None:  # cannot happen: an initial checkpoint always exists
            raise ExecutionError("crash recovery impossible: no checkpoint")
        for machine in self.machines:
            partition = None
            if machine.id in self.network.rehosted:
                partition = self.dgraph.rebuild_partition(machine.id)
            machine.restore_state(
                snapshot.machines[machine.id], round_no, partition=partition
            )
        self.network.restore_state(snapshot.network, round_no)
        self._checkpointed_terminated = set(snapshot.terminated)
        self.recoveries += 1
        if self.sanitizer is not None:
            self.sanitizer.on_recovery(snapshot.epoch, self.machines, self.network)
        if self.obs is not None:
            self.obs.cluster_instant(
                "recovery.failover",
                args={
                    "query": self.query_id,
                    "epoch": self.epoch,
                    "round": round_no,
                    "dead": list(dead),
                    "rehosted": {l: self.hosts[l] for l in orphaned},
                    "restored_round": snapshot.round_no,
                },
                round_no=round_no,
                cat="recovery",
            )
        return snapshot

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def release(self):
        """Drop this query's durable checkpoints.

        Called when the query finishes, is cancelled, or deadline-expires
        — including mid-rollback — so a departed query never pins cluster
        checkpoint storage.  Counters survive for :meth:`summary`.
        """
        self.store.clear()

    def summary(self):
        """Recovery counters for :class:`RunStats` and reports."""
        return {
            "epoch": self.epoch,
            "checkpoints": self.checkpoints_taken,
            "recoveries": self.recoveries,
            "failed_over": sorted(self.failed_over),
            "hosts": list(self.hosts),
        }
