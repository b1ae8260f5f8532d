"""Runtime protocol sanitizer — executable versions of the paper's prose
invariants.

When enabled (``EngineConfig(sanitize=True)`` or ``REPRO_SANITIZE=1``),
one :class:`RuntimeSanitizer` is shared by every machine of a query
execution and its hooks fire from the hot paths of:

* **flow control** (Section 3.3) — per-bucket in-flight never exceeds the
  bucket's capacity, the total in-flight counter always equals the sum of
  the buckets, and every credit is back home once the query ends (credit
  conservation);
* **termination detection** (Section 3.4) — ``sent``/``processed`` are
  monotone per machine, globally ``processed`` never exceeds ``sent`` on
  any channel (processing cannot outrun creation), and a machine may only
  *conclude* on a snapshot set strictly newer than its candidate's — the
  stale-snapshot confirmation rule;
* **reachability index** (Section 3.5) — the stored depth for an rpid
  strictly decreases on overwrite (smallest-depth monotonicity), and a
  forest segment run without an index reaches each ``(rpid, vertex)``
  once.

Every component takes ``sanitizer=None`` and guards each hook with a single
``is not None`` test, so a disabled sanitizer costs one predictable branch
and an enabled one fails fast with :class:`SanitizerViolation`.
"""

import os

from ..errors import SanitizerViolation


def sanitizer_enabled(config):
    """True when the config flag or the ``REPRO_SANITIZE`` env var is set."""
    if getattr(config, "sanitize", False):
        return True
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def sanitizer_from_config(config, obs=None):
    """A fresh :class:`RuntimeSanitizer`, or ``None`` when disabled.

    With ``obs`` set (an :class:`repro.obs.Recorder`), violations are also
    recorded on the observability event bus before the exception is raised,
    so the failure appears on the same timeline as the runtime events that
    led to it.
    """
    return RuntimeSanitizer(obs=obs) if sanitizer_enabled(config) else None


class RuntimeSanitizer:
    """Shared assertion hooks for one query execution."""

    def __init__(self, obs=None):
        self.checks = 0  # hook invocations (observability / tests)
        self._obs = obs
        self._last_snapshots = {}  # machine_id -> {key: count} monotone floor
        self._candidates = {}  # machine_id -> {src_machine: generation}
        self._delivered_frames = set()  # (src, dst, tseq) accepted upstream
        # Non-fatal observations (e.g. a link abandoning retransmission to
        # a permanently-down peer): surfaced in reports, never raised.
        self.notes = []  # [(kind, detail), ...]
        # Recovery bookkeeping: per-epoch record of what each machine
        # checkpointed, verified again at restore time (repro.recovery).
        self._checkpoints = {}  # epoch -> {machine_id: (sent, processed, wm)}
        # Control entries of forest segments run without an index.
        self._forest_entries = set()  # (machine_id, rpq_id, rpid, vertex)

    def note(self, kind, detail):
        """Record a non-fatal observation for reports and tests."""
        self.notes.append((kind, detail))
        if self._obs is not None:
            self._obs.cluster_instant(
                "sanitizer.note",
                args={"kind": kind, "detail": detail},
                cat="sanitizer",
            )

    def _fail(self, invariant, detail):
        if self._obs is not None:
            self._obs.cluster_instant(
                "sanitizer.violation",
                args={"invariant": invariant, "detail": detail},
                cat="sanitizer",
            )
        raise SanitizerViolation(f"[sanitizer] {invariant}: {detail}")

    # ------------------------------------------------------------------
    # Flow control (Section 3.3)
    # ------------------------------------------------------------------
    def on_credit_acquired(self, flow, key, capacity):
        self.checks += 1
        used = flow._in_flight.get(key, 0)
        if used > capacity:
            self._fail(
                "bucket within capacity",
                f"machine {flow.machine_id} bucket {key!r} holds {used} "
                f"in-flight credits > capacity {capacity}",
            )
        self.check_flow_consistent(flow)

    def on_credit_released(self, flow, key):
        self.checks += 1
        used = flow._in_flight.get(key, 0)
        if used < 0:
            self._fail(
                "no credit underflow",
                f"machine {flow.machine_id} bucket {key!r} at {used}",
            )
        self.check_flow_consistent(flow)

    def check_flow_consistent(self, flow):
        self.checks += 1
        total = sum(flow._in_flight.values())
        if total != flow._total_in_flight:
            self._fail(
                "total equals sum of buckets",
                f"machine {flow.machine_id}: _total_in_flight="
                f"{flow._total_in_flight} but buckets sum to {total}",
            )

    def on_query_end(self, flows):
        """All credits conserved: every machine's in-flight count is zero."""
        self.checks += 1
        for flow in flows:
            self.check_flow_consistent(flow)
            if flow._total_in_flight != 0:
                leaked = {
                    key: used
                    for key, used in flow._in_flight.items()
                    if used != 0
                }
                self._fail(
                    "all credits returned at query end",
                    f"machine {flow.machine_id} still holds {leaked!r}",
                )

    # ------------------------------------------------------------------
    # Termination detection (Section 3.4)
    # ------------------------------------------------------------------
    def on_snapshot(self, machine_id, sent, processed):
        """Counters are monotone: no snapshot may regress a counter."""
        self.checks += 1
        floor = self._last_snapshots.get(machine_id)
        if floor is not None:
            for (category, key), previous in floor.items():
                current = (sent if category == "sent" else processed).get(key, 0)
                if current < previous:
                    self._fail(
                        "monotone counters",
                        f"machine {machine_id} {category}{key!r} regressed "
                        f"{previous} -> {current}",
                    )
        merged = {("sent", key): count for key, count in sent.items()}
        merged.update(
            {("processed", key): count for key, count in processed.items()}
        )
        self._last_snapshots[machine_id] = merged

    def check_global_counts(self, trackers):
        """Globally, processing can never outrun creation on any channel."""
        self.checks += 1
        sent = {}
        processed = {}
        for tracker in trackers:
            for key, count in tracker.sent.items():
                sent[key] = sent.get(key, 0) + count
            for key, count in tracker.processed.items():
                processed[key] = processed.get(key, 0) + count
        for key, done in processed.items():
            if done > sent.get(key, 0):
                self._fail(
                    "processed <= sent per channel",
                    f"channel {key!r}: processed={done} > "
                    f"sent={sent.get(key, 0)}",
                )

    def check_final_counts(self, trackers):
        """After conclusion and settling, every channel balances exactly."""
        self.checks += 1
        sent = {}
        processed = {}
        for tracker in trackers:
            for key, count in tracker.sent.items():
                sent[key] = sent.get(key, 0) + count
            for key, count in tracker.processed.items():
                processed[key] = processed.get(key, 0) + count
        for key in set(sent) | set(processed):
            if sent.get(key, 0) != processed.get(key, 0):
                self._fail(
                    "sent == processed at conclusion",
                    f"channel {key!r}: sent={sent.get(key, 0)} "
                    f"processed={processed.get(key, 0)} after the "
                    "termination protocol concluded (early termination)",
                )

    def on_candidate(self, machine_id, gen_vector):
        """The protocol formed a confirmation candidate from these snapshots."""
        self.checks += 1
        self._candidates[machine_id] = dict(gen_vector)

    def on_conclude(self, machine_id, gen_vector):
        """Conclusion requires strictly newer snapshots than the candidate."""
        self.checks += 1
        candidate = self._candidates.get(machine_id)
        if candidate is None:
            self._fail(
                "confirmation requires a prior candidate",
                f"machine {machine_id} concluded without a first evaluation",
            )
        for src, generation in gen_vector:
            if generation <= candidate.get(src, -1):
                self._fail(
                    "confirmation only on strictly newer snapshots",
                    f"machine {machine_id} concluded with generation "
                    f"{generation} from machine {src}, not newer than "
                    f"candidate's {candidate.get(src, -1)} (stale-snapshot "
                    "race)",
                )

    # ------------------------------------------------------------------
    # Reliable transport (repro.faults / docs/faults.md)
    # ------------------------------------------------------------------
    def on_transport_deliver(self, src, dst, tseq):
        """Exactly-once: a sequenced frame is handed up at most once.

        The network's own dedup set is the mechanism; this is an
        independent ledger of everything it passed upstream, so a dedup
        bug (e.g. the set keyed wrongly) fails fast instead of silently
        double-counting protocol work.
        """
        self.checks += 1
        key = (src, dst, tseq)
        if key in self._delivered_frames:
            self._fail(
                "exactly-once delivery",
                f"frame (src={src}, dst={dst}, tseq={tseq}) handed to the "
                "machine twice (duplicate escaped transport dedup)",
            )
        self._delivered_frames.add(key)

    def check_transport_settled(self, network):
        """After settling, no data frame may remain undelivered.

        Only meaningful for complete runs — a permanently-down machine
        legitimately strands frames addressed to it (partial results).
        """
        self.checks += 1
        undelivered = network.undelivered_work()
        if undelivered:
            self._fail(
                "transport settled at query end",
                f"{undelivered} Batch/Done frame(s) still undelivered "
                "after the settle phase (retransmission failed to recover "
                "them)",
            )

    # ------------------------------------------------------------------
    # Crash recovery (repro.recovery / docs/recovery.md)
    # ------------------------------------------------------------------
    def on_checkpoint(self, epoch, machines):
        """Record what each machine checkpointed at this epoch.

        The record (termination counters + emitted-output watermark) is
        the sanitizer's independent copy of the recovery contract: at
        restore time :meth:`on_recovery` verifies the runtime actually
        rolled back to exactly this state.
        """
        self.checks += 1
        self._checkpoints[epoch] = {
            machine.id: (
                dict(machine.tracker.sent),
                dict(machine.tracker.processed),
                len(machine.output_sink.rows),
            )
            for machine in machines
        }

    def on_recovery(self, epoch, machines, network):
        """Verify the rollback restored the checkpoint exactly, then
        re-seed the sanitizer's own monotone floors and ledgers.

        A recovery epoch legitimately rewinds termination counters and
        truncates sink rows — the monotone-counter and exactly-once
        ledgers must be rebased to the restored state or they would
        false-positive on perfectly correct replay.
        """
        self.checks += 1
        record = self._checkpoints.get(epoch)
        if record is None:
            self._fail(
                "recovery restores a recorded checkpoint",
                f"epoch {epoch} restored but no checkpoint was recorded",
            )
        for machine in machines:
            expected = record.get(machine.id)
            if expected is None:
                continue
            sent, processed, watermark = expected
            if dict(machine.tracker.sent) != sent or (
                dict(machine.tracker.processed) != processed
            ):
                self._fail(
                    "recovery restores termination counters exactly",
                    f"machine {machine.id} counters after restore differ "
                    f"from checkpoint epoch {epoch}",
                )
            if len(machine.output_sink.rows) != watermark:
                self._fail(
                    "recovery truncates outputs to the watermark",
                    f"machine {machine.id} has "
                    f"{len(machine.output_sink.rows)} rows after restore, "
                    f"checkpoint watermark is {watermark}",
                )
        # Rebase the monotone floors and candidate records to the restored
        # protocol state, and the exactly-once ledger to the restored
        # transport dedup set (replayed frames will be re-delivered once).
        for machine in machines:
            self._last_snapshots[machine.id] = {
                **{
                    ("sent", key): count
                    for key, count in machine.tracker.sent.items()
                },
                **{
                    ("processed", key): count
                    for key, count in machine.tracker.processed.items()
                },
            }
            candidate = machine.protocol._candidate
            if candidate is not None:
                self._candidates[machine.id] = dict(candidate[0])
            else:
                self._candidates.pop(machine.id, None)
        self._delivered_frames = set(network._delivered)
        # Replay enters rolled-back control entries once more.
        self._forest_entries.clear()

    # ------------------------------------------------------------------
    # Failure detection (repro.membership / docs/faults.md)
    # ------------------------------------------------------------------
    def on_membership_confirm(self, host, votes, quorum, population):
        """A CONFIRMED-DOWN verdict must carry a real quorum.

        Guards the no-minority-failover invariant at the source: a
        confirmation backed by fewer than ``quorum`` of the ``population``
        voting observers (live view + witness) would let a partition
        minority evict the majority.
        """
        self.checks += 1
        if votes < quorum:
            self._fail(
                "membership confirmation carries a quorum",
                f"host {host} confirmed down with {votes} vote(s) < quorum "
                f"{quorum} (voting population {population})",
            )

    def on_failover(self, dead, membership):
        """No failover without a confirmed-down verdict.

        Every host handed to a failover must be CONFIRMED-DOWN in the
        membership service's detected state — recovery acting on ground
        truth the detector never established is the oracle leak this PR
        removes.  With no membership service attached (detection forced
        off) the check is vacuous.
        """
        self.checks += 1
        if membership is None:
            return
        for host in dead:
            if not membership.is_confirmed_down(host):
                self._fail(
                    "no failover without confirmation",
                    f"failover of host {host} requested but the membership "
                    f"detector's verdict is {membership.state_of(host)!r} "
                    "(not confirmed-down)",
                )

    # ------------------------------------------------------------------
    # Reachability index (Section 3.5)
    # ------------------------------------------------------------------
    def on_index_overwrite(self, index, source_path_id, dst_vertex, old, new):
        """Stored smallest depth strictly decreases on every overwrite."""
        self.checks += 1
        if new >= old:
            self._fail(
                "index depth strictly decreases on overwrite",
                f"machine {index.machine_id} rpq {index.rpq_id} rpid "
                f"({source_path_id}, {dst_vertex}): depth {old} -> {new}",
            )

    def on_forest_entry(self, controller, rpid, vertex):
        """A forest segment run without an index: each control entry is the
        first for its ``(rpid, vertex)``, which makes the index a no-op."""
        self.checks += 1
        key = (controller.machine_id, controller.spec.rpq_id, rpid, vertex)
        if key in self._forest_entries:
            self._fail("forest segment reaches each (rpid, vertex) once",
                       "machine {} rpq {} rpid ({}, {}) entered twice".format(*key))
        self._forest_entries.add(key)
