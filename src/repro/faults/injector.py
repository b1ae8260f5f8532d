"""Runtime fault injection for one query execution.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into per-round decisions: the network consults :meth:`on_transmit` for
every transmitted message copy (drop / duplicate / extra delay), and the
scheduler consults :meth:`machine_up` before delivering to or running a
machine.  All probabilistic decisions come from one seeded RNG, and the
simulation itself is deterministic, so the injected fault sequence is a
pure function of ``(plan, graph, query, config)``.

Every injected fault is counted (:attr:`counts`, exported as
``repro_fault_injected_total{kind}``) and, when an observability recorder
is attached, emitted on the cluster track as a ``fault.*`` instant — the
chaos appears on the same Perfetto timeline as the runtime events it
perturbs.
"""

import random
from collections import Counter

from ..runtime.message import Batch, DoneMessage, HeartbeatMessage, StatusMessage

#: Verdict for an untouched transmission:
#: (drop, extra_delay, duplicate, corrupt).
_CLEAN = (False, 0, False, False)

#: Seed-stream separator for the probe-plane RNG (any odd constant):
#: membership heartbeats draw their fault verdicts from a *separate*
#: seeded stream so attaching the failure detector never perturbs the
#: data-plane fault sequence of an existing plan.
_PROBE_STREAM = 0x9E3779B9


def message_kind(message):
    """Fault-plan kind token for a runtime or transport message."""
    if isinstance(message, Batch):
        return "batch"
    if isinstance(message, DoneMessage):
        return "done"
    if isinstance(message, StatusMessage):
        return "status"
    if isinstance(message, HeartbeatMessage):
        return "probe"
    return "ack"


class FaultInjector:
    """Per-execution fault state: seeded RNG + machine availability windows."""

    def __init__(self, plan, num_machines, obs=None):
        plan.validate_for(num_machines)
        self.plan = plan
        self.num_machines = num_machines
        self.rng = random.Random(plan.seed)
        # Probe-plane verdicts come from their own stream (see
        # _PROBE_STREAM): heartbeat traffic volume depends on detector
        # config, and it must never shift the data-plane fault sequence.
        self.probe_rng = random.Random(plan.seed ^ _PROBE_STREAM)
        self.obs = obs
        self.counts = Counter()
        self._kinds = frozenset(plan.kinds)
        self._partitions = plan.partitions
        self._partition_was_active = [False] * len(plan.partitions)
        # Per-machine downtime windows: (start, end_exclusive_or_None, kind).
        self._windows = [[] for _ in range(num_machines)]
        for stall in plan.stalls:
            self._windows[stall.machine].append(
                (stall.start_round, stall.start_round + stall.duration, "stall")
            )
        for crash in plan.crashes:
            self._windows[crash.machine].append(
                (crash.round, crash.recover_round, "crash")
            )
        self._crash_starts = {}  # round -> [machine, ...]
        for crash in plan.crashes:
            self._crash_starts.setdefault(crash.round, []).append(crash.machine)
        self._permanent = tuple(
            sorted({c.machine for c in plan.permanent_crashes()})
        )
        self._was_down = [False] * num_machines

    # ------------------------------------------------------------------
    # Message-level faults (consulted by LossyNetwork._transmit)
    # ------------------------------------------------------------------
    def on_transmit(self, message, now_round):
        """Fault verdict for one transmitted copy:
        ``(drop, extra_delay, duplicate, corrupt)``.

        An active :class:`~repro.faults.plan.NetworkPartition` severing
        ``src -> dst`` turns the verdict into an unconditional drop *before*
        any RNG draw, so partitioned traffic never consumes the fault
        stream (healing a partition replays the exact same post-heal fault
        sequence as a plan without it).
        """
        plan = self.plan
        kind = message_kind(message)
        if self._partitions and self.link_blocked(
            message.src_machine, message.dst_machine, now_round
        ):
            self.counts["partition_blocked"] += 1
            return (True, 0, False, False)
        if kind not in self._kinds:
            return _CLEAN
        # Probe traffic draws from its own stream (see _PROBE_STREAM).
        rng = self.probe_rng if kind == "probe" else self.rng
        drop = plan.drop_prob > 0.0 and rng.random() < plan.drop_prob
        dup = plan.dup_prob > 0.0 and rng.random() < plan.dup_prob
        extra = 0
        if plan.delay_prob > 0.0 and rng.random() < plan.delay_prob:
            extra += rng.randint(1, plan.max_delay_rounds)
        if plan.reorder_prob > 0.0 and rng.random() < plan.reorder_prob:
            extra += rng.randint(0, plan.reorder_window)
        corrupt = (
            plan.corrupt_prob > 0.0 and rng.random() < plan.corrupt_prob
        )
        if drop:
            self._record("drop", message, now_round)
        if dup:
            self._record("dup", message, now_round)
        if extra:
            self._record("delay", message, now_round, extra=extra)
        if corrupt:
            self._record("corrupt", message, now_round)
        return (drop, extra, dup, corrupt)

    def link_blocked(self, src, dst, round_no):
        """True when an active partition severs the directed link
        ``src -> dst``.  Witness links (endpoint ids >= ``num_machines``,
        i.e. the membership coordination service) ride the consensus
        group's own interconnect and are never severed by a data-plane
        partition; partitions also never block a machine's loopback.
        """
        if src == dst or src >= self.num_machines or dst >= self.num_machines:
            return False
        for partition in self._partitions:
            if partition.active(round_no) and partition.blocks(src, dst):
                return True
        return False

    def _record(self, fault, message, now_round, extra=None):
        self.counts[fault] += 1
        obs = self.obs
        if obs is not None:
            args = {
                "src": message.src_machine,
                "dst": message.dst_machine,
                "kind": message_kind(message),
                # Which query's traffic the fault hit: the injector is
                # shared by every query on the cluster, so the timeline
                # needs the namespace to attribute chaos.
                "query": getattr(message, "query_id", 0),
            }
            if extra is not None:
                args["rounds"] = extra
            obs.cluster_instant(f"fault.{fault}", args=args, cat="fault")

    # ------------------------------------------------------------------
    # Machine-level faults (consulted by the scheduler each round)
    # ------------------------------------------------------------------
    def machine_up(self, machine, round_no):
        for start, end, _kind in self._windows[machine]:
            if round_no >= start and (end is None or round_no < end):
                return False
        return True

    def begin_round(self, round_no):
        """Round prologue: crash instants to apply, stall/recover tracking.

        Returns the machines that crash *this* round (the scheduler makes
        their network receive queues lose all in-flight messages).  Also
        emits ``fault.stall`` / ``fault.recover`` edge events so downtime
        windows are visible on the trace.
        """
        for i, partition in enumerate(self._partitions):
            active = partition.active(round_no)
            was_active = self._partition_was_active[i]
            if active and not was_active:
                self.counts["partition"] += 1
                if self.obs is not None:
                    self.obs.cluster_instant(
                        "fault.partition",
                        args={
                            "mode": partition.mode,
                            "round": round_no,
                            "heal_round": partition.heal_round,
                        },
                        round_no=round_no,
                        cat="fault",
                    )
            elif was_active and not active and self.obs is not None:
                self.obs.cluster_instant(
                    "fault.heal",
                    args={"mode": partition.mode, "round": round_no},
                    round_no=round_no,
                    cat="fault",
                )
            self._partition_was_active[i] = active
        crashed = self._crash_starts.get(round_no, ())
        for machine in crashed:
            self.counts["crash"] += 1
            if self.obs is not None:
                self.obs.cluster_instant(
                    "fault.crash",
                    args={"machine": machine, "round": round_no},
                    round_no=round_no,
                    cat="fault",
                )
        for machine in range(self.num_machines):
            down = not self.machine_up(machine, round_no)
            was_down = self._was_down[machine]
            if down and not was_down and machine not in crashed:
                self.counts["stall"] += 1
                if self.obs is not None:
                    self.obs.cluster_instant(
                        "fault.stall",
                        args={"machine": machine, "round": round_no},
                        round_no=round_no,
                        cat="fault",
                    )
            elif was_down and not down and self.obs is not None:
                self.obs.cluster_instant(
                    "fault.recover",
                    args={"machine": machine, "round": round_no},
                    round_no=round_no,
                    cat="fault",
                )
            self._was_down[machine] = down
        return crashed

    # ------------------------------------------------------------------
    # Test-oracle ground truth (NOT a production input)
    # ------------------------------------------------------------------
    # The methods below expose the plan's ground truth for test oracles,
    # sweep reports, and trace annotations ONLY.  Production recovery
    # decisions must come from :mod:`repro.membership` — a detector that
    # learns about peers purely through (missed) messages.  CI greps that
    # no runtime/recovery code path calls these.

    def down_machines(self, round_no):
        """Ground truth: machines down this round (test oracle only)."""
        return tuple(
            m for m in range(self.num_machines) if not self.machine_up(m, round_no)
        )

    def transient_down(self, round_no):
        """Ground truth: down machines that will come back (test oracle only)."""
        return tuple(
            m
            for m in self.down_machines(round_no)
            if m not in self._permanent
        )

    def permanent_down(self, round_no):
        """Ground truth: machines down now that never recover
        (test oracle only)."""
        return tuple(
            m for m in self._permanent if not self.machine_up(m, round_no)
        )

    def summary(self):
        """Injected-fault counts for reports: {fault kind: n}."""
        return dict(self.counts)
