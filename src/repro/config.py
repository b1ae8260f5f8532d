"""Engine configuration for the simulated RPQd cluster.

The defaults are scaled-down analogues of the paper's setup (Section 4.1):
the authors run 36 workers/machine with 8192 message buffers of 256 KB,
pre-partition RPQ flow-control buffers up to depth four, allow five shared
messages per path stage beyond that depth plus one overflow message per
depth, and preallocate contexts up to depth three.  We keep the same knobs
but size them for mini graphs so that flow control actually engages.
"""

from dataclasses import dataclass, field, fields
from math import isfinite
from typing import Optional

from .errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """Virtual-time prices (in abstract cost units) for runtime operations.

    Virtual time is measured in scheduler rounds; each machine spends up to
    ``EngineConfig.quantum`` cost units per round.  The individual prices
    only matter relative to each other — they determine, e.g., how expensive
    messaging is compared to local edge traversal.
    """

    bootstrap: float = 0.5
    edge_traverse: float = 1.0
    filter_eval: float = 0.2
    context_serialize: float = 0.3
    message_fixed: float = 8.0
    receive_context: float = 0.4
    # Reachability-index costs relative to an edge traversal (1.0): a
    # concurrent two-level map insert pays an atomic first-level CAS,
    # second-level allocation, and hashing — the paper measures tree-shaped
    # Q9 running 3.4x faster with the index disabled, implying index
    # maintenance dominates its control-stage cost.
    index_insert: float = 7.0  # allocate + insert a reachability entry
    index_insert_prealloc: float = 3.0  # insert into a bulk-preallocated index
    index_hit: float = 2.5  # probe finding an existing entry
    output: float = 1.0
    termination_status: float = 2.0

    def __post_init__(self):
        # Zero is legal (a zero-cost step ends the quantum); NaN, inf or < 0 is not.
        for name, value in vars(self).items():
            if not (isinstance(value, (int, float)) and isfinite(value) and value >= 0):
                raise ConfigError(f"cost.{name} must be a finite number >= 0 (got {value!r})")


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of the simulated RPQd cluster.

    Attributes:
        num_machines: number of simulated machines (paper: 4..16).
        workers_per_machine: DFT workers per machine (paper: 34 + 2 messengers;
            the two messaging threads are implicit in the simulation).
        batch_size: contexts per message buffer before it is flushed.
        buffers_per_machine: flow-control credit budget per machine, i.e. the
            number of in-flight buffers a machine may address to the cluster
            (paper: 8192 buffers of 256 KB per machine).
        rpq_flow_depth: depth ``D`` up to which RPQ stages get dedicated
            per-depth buffer partitions (paper: 4).
        rpq_shared_credits: shared in-flight messages per path stage for all
            depths ``>= D`` (paper: 5).
        rpq_overflow_per_depth: extra overflow messages allowed per depth
            beyond ``D`` to prevent flow-control livelock (paper: 1).
        quantum: cost units one machine may spend per scheduler round.
        net_delay_rounds: rounds between sending a message and it becoming
            deliverable at the destination.
        use_reachability_index: the reachability index (Section 3.5).
            ``None`` (default): an index on every RPQ segment except one the
            planner proves walks a forest (``RpqSpec.forest``: each
            ``(source path, destination)`` pair is reached at most once, so
            the index would never eliminate).  ``True``: the paper's RPQd,
            an index on every segment (the Figure 3 / Section 4.4
            reproductions).  ``False``: no index anywhere, the unsafe
            ablation: without the cycle guard an unbounded RPQ over a cycle
            never ends, and a pair reached twice is reported twice.
        receive_priority: ``"depth"`` (paper: deeper depths and later stages
            first) or ``"fifo"`` (arrival order) — ablation knob for the
            receive-priority design choice.
        observe: attach the observability recorder
            (:mod:`repro.obs`): a span-based distributed tracer (DFT job
            spans, batch send/receive with causal links, RPQ control
            decisions, flow-control blocks, termination progress), whose
            ``batch.send`` events also give the metrics export its batch
            size / bytes / credit-wait histograms.  Disabled, every hook
            is a single ``obs is not None`` branch — the virtual-time
            results are bit-identical either way.
        sanitize: enable the runtime protocol sanitizer
            (:mod:`repro.analysis.sanitizer`): assertion hooks in flow
            control, termination detection, and the reachability index that
            fail fast on invariant violations.  Also enabled by setting the
            ``REPRO_SANITIZE`` environment variable to a non-empty value
            other than ``0``.
        schedule_seed: when set, permutes the scheduler's machine service
            order and each machine's worker service order per round with a
            deterministic RNG — the race-detector's interleaving knob
            (``repro analyze --races``).  ``None`` keeps the canonical
            deterministic order.
        profile: attach the wall-clock phase profiler
            (:mod:`repro.obs.prof`): per-phase aggregate wall time for
            worker DFT expansion, network delivery/retransmit,
            reachability-index probes, checkpoint cut/restore, and
            scheduler accounting, surfaced as ``RunStats.profile`` /
            ``QueryResult.profile`` and in EXPLAIN ANALYZE.  Reads
            only the wall clock — virtual-time results are bit-identical
            either way, and disabled every hook is a single
            ``prof is not None`` branch.
        faults: a :class:`repro.faults.FaultPlan` injecting seeded message
            loss / duplication / reordering / delay and machine stalls or
            crashes into the execution (:mod:`repro.faults`).  ``None``
            (default) keeps the interconnect perfect, and the scheduler
            builds none of the subsystem.
        reliable_transport: force the ack/retransmit transport layer on
            (``True``) or off (``False``).  ``None`` (default) enables it
            exactly when a fault plan is attached — the paper's perfect
            interconnect needs no ARQ, a lossy one does.
        retransmit_timeout_rounds: base retransmission timeout for the
            reliable transport, in rounds.  ``None`` derives a generous
            default from ``net_delay_rounds`` (no spurious retransmits on
            a healthy link).
        stall_limit: rounds of zero progress tolerated before the
            scheduler diagnoses a stall.  Fault runs with long machine
            outages legitimately need more headroom.
        recovery: enable crash recovery (:mod:`repro.recovery`): epoch
            checkpoints of all recoverable query state ride the
            termination protocol, and a *permanent* machine crash triggers
            partition failover plus a global rollback to the last
            checkpoint instead of the degrade-to-partial-results path.
            Requires the reliable transport layer (the ARQ retransmit
            queue is the replay log).  Off by default — without it,
            permanent crashes keep PR 3's ``ResultSet.complete=False``
            behaviour.
        deadline: optional per-query deadline on the virtual clock, in
            scheduler rounds.  When the deadline passes before the
            termination protocol concludes, the run aborts cleanly with
            ``ResultSet.complete=False`` and ``timed_out=True`` instead
            of running unbounded under a pathological fault plan.
        max_rounds: safety cap on scheduler rounds before declaring a
            deadlock.
        max_concurrent_queries: queries the multi-query runtime
            (:mod:`repro.runtime.multi`) interleaves on the cluster at
            once; further submissions queue.
        admission_queue_limit: bounded pending-queue length for submissions
            beyond the concurrency limit; past it ``submit`` raises
            :class:`~repro.errors.AdmissionError`.
        membership: force the heartbeat failure detector
            (:mod:`repro.membership`) on or off; ``None`` (default)
            enables it exactly when a fault plan is attached.  Its
            quorum-confirmed verdicts — never the injector's ground
            truth — drive retransmit abandonment, the partial-results
            downgrade, and crash-recovery failover.
        suspect_after / confirm_after: detector timing on the virtual
            clock — per-observer silence before suspicion, and the
            additional silence before a suspicion becomes confirm-eligible
            (full detection window = ``suspect_after + confirm_after``
            rounds).  Probes go out every
            :data:`~repro.membership.service.HEARTBEAT_INTERVAL` rounds.
        backend: execution substrate (:mod:`repro.runtime.backend`):
            ``"sim"`` (default) runs the deterministic discrete-time
            simulator — the verification oracle, and the only backend
            supporting faults, recovery, membership, tracing, and the
            race detector; ``"process"`` runs each partition's machine
            loop in a persistent forked OS process that inherits the
            graph, in lockstep rounds (``docs/backends.md``).  Result
            sets and run statistics are identical across backends.
        workers: worker *processes* for ``backend="process"`` (distinct
            from the simulated ``workers_per_machine`` DFT threads).
            ``None`` defaults to ``num_machines`` — one partition per
            process, the paper's deployment shape; fewer workers host
            several machines each.
        cost: the virtual-time cost model.
    """

    num_machines: int = 4
    workers_per_machine: int = 4
    batch_size: int = 32
    buffers_per_machine: int = 512
    rpq_flow_depth: int = 4
    rpq_shared_credits: int = 5
    rpq_overflow_per_depth: int = 1
    quantum: float = 2000.0
    net_delay_rounds: int = 1
    use_reachability_index: Optional[bool] = None
    # Bulk-preallocate the index's first level over each machine's local
    # vertex range, trading memory for cheaper inserts (the paper's
    # Section 4.5 future-work option).
    index_preallocate: bool = False
    receive_priority: str = "depth"
    observe: bool = False
    sanitize: bool = False
    schedule_seed: Optional[int] = None
    # Wall-clock phase profiler (:mod:`repro.obs.prof`).
    profile: bool = False
    # Fault injection + reliable transport (:mod:`repro.faults`).
    faults: Optional[object] = None
    reliable_transport: Optional[bool] = None
    retransmit_timeout_rounds: Optional[int] = None
    stall_limit: int = 400
    # Crash recovery (:mod:`repro.recovery`) and virtual-clock deadline.
    recovery: bool = False
    deadline: Optional[int] = None
    # Failure detection (:mod:`repro.membership`): heartbeat membership
    # service whose quorum-confirmed verdicts drive retransmit
    # abandonment, the partial-results downgrade, and failover.  ``None``
    # auto-enables exactly when a fault plan is attached (nothing can
    # fail on a perfect cluster); ``False`` forces detection off even
    # under faults — confirmed outages then surface as stall errors.
    membership: Optional[bool] = None
    # Silence (rounds) before one observer suspects a peer.
    suspect_after: int = 6
    # Additional silence before a suspicion is confirm-eligible; the full
    # detection window is ``suspect_after + confirm_after`` rounds.
    confirm_after: int = 24
    # Plan with sampled "scouting" probes instead of static selectivity
    # heuristics (the paper's cited scouting-queries planning technique).
    scouting: bool = False
    # Multi-query runtime (:mod:`repro.runtime.multi`): how many queries may
    # run interleaved on the cluster at once, and how many more submissions
    # the bounded admission queue holds before rejecting with
    # :class:`repro.errors.AdmissionError`.
    max_concurrent_queries: int = 4
    admission_queue_limit: int = 16
    # Execution backend (:mod:`repro.runtime.backend`): "sim" or "process",
    # plus the process backend's worker count.
    backend: str = "sim"
    workers: Optional[int] = None
    max_rounds: int = 2_000_000
    cost: CostModel = field(default_factory=CostModel)

    def __post_init__(self):
        for f in fields(self):  # a bool or a float count is not a count
            if f.type is int and type(value := getattr(self, f.name)) is not int:
                raise ConfigError(f"{f.name} must be an int (got {value!r})")
        if self.num_machines < 1:
            raise ConfigError(
                f"num_machines must be >= 1 (got {self.num_machines})"
            )
        if self.workers_per_machine < 1:
            raise ConfigError(
                "workers_per_machine must be >= 1 "
                f"(got {self.workers_per_machine})"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1 (got {self.batch_size})")
        if self.buffers_per_machine < 2 * self.num_machines:
            # The paper notes each machine requires at least two buffers
            # (send + receive) per peer; enforce the aggregate lower bound.
            raise ConfigError(
                "buffers_per_machine must be >= 2 * num_machines "
                f"(got {self.buffers_per_machine} for {self.num_machines} machines)"
            )
        if self.rpq_flow_depth < 0:
            raise ConfigError(
                f"rpq_flow_depth must be >= 0 (got {self.rpq_flow_depth})"
            )
        if self.rpq_shared_credits < 1:
            raise ConfigError(
                f"rpq_shared_credits must be >= 1 (got {self.rpq_shared_credits})"
            )
        if self.rpq_overflow_per_depth < 0:
            raise ConfigError(
                "rpq_overflow_per_depth must be >= 0 "
                f"(got {self.rpq_overflow_per_depth})"
            )
        if self.quantum <= 0:
            raise ConfigError(f"quantum must be positive (got {self.quantum})")
        if self.net_delay_rounds < 0:
            raise ConfigError(
                f"net_delay_rounds must be >= 0 (got {self.net_delay_rounds})"
            )
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1 (got {self.max_rounds})")
        if self.receive_priority not in ("depth", "fifo"):
            raise ConfigError(
                "receive_priority must be 'depth' or 'fifo' "
                f"(got {self.receive_priority!r})"
            )
        if self.schedule_seed is not None and (
            type(self.schedule_seed) is not int or self.schedule_seed < 0
        ):
            raise ConfigError(
                "schedule_seed must be None or a non-negative int "
                f"(got {self.schedule_seed!r})"
            )
        round_trip = 2 * self.net_delay_rounds + 1
        if self.stall_limit < 2 * round_trip:
            # The stall diagnosis must allow the protocol's two STATUS
            # waves, a round trip each, before declaring it stuck.
            raise ConfigError(
                "stall_limit must be >= 2 STATUS round trips, "
                f"2 * (2 * net_delay_rounds + 1) = {2 * round_trip} "
                f"(got {self.stall_limit} with net_delay_rounds="
                f"{self.net_delay_rounds})"
            )
        if self.retransmit_timeout_rounds is not None and (
            type(self.retransmit_timeout_rounds) is not int
            or self.retransmit_timeout_rounds < 1
        ):
            raise ConfigError(
                "retransmit_timeout_rounds must be None or a positive int "
                f"(got {self.retransmit_timeout_rounds!r})"
            )
        if type(self.use_reachability_index) not in (type(None), bool):
            raise ConfigError("use_reachability_index must be None, True, or False "
                              f"(got {self.use_reachability_index!r})")
        if type(self.reliable_transport) not in (type(None), bool):
            raise ConfigError(
                "reliable_transport must be None, True, or False "
                f"(got {self.reliable_transport!r})"
            )
        if self.max_concurrent_queries < 1:
            raise ConfigError(
                "max_concurrent_queries must be >= 1 "
                f"(got {self.max_concurrent_queries})"
            )
        if self.admission_queue_limit < 0:
            raise ConfigError(
                "admission_queue_limit must be >= 0 "
                f"(got {self.admission_queue_limit})"
            )
        if self.deadline is not None and (
            type(self.deadline) is not int or self.deadline < 1
        ):
            raise ConfigError(
                "deadline must be None or a positive int in rounds "
                f"(got {self.deadline!r})"
            )
        if type(self.membership) not in (type(None), bool):
            raise ConfigError(
                "membership must be None, True, or False "
                f"(got {self.membership!r})"
            )
        # Imported here: at module level it would close an import cycle
        # (repro.membership -> runtime -> repro.membership).
        from .membership.service import HEARTBEAT_INTERVAL

        if self.suspect_after < HEARTBEAT_INTERVAL:
            raise ConfigError(
                "suspect_after must be >= HEARTBEAT_INTERVAL "
                f"(got {self.suspect_after} with HEARTBEAT_INTERVAL="
                f"{HEARTBEAT_INTERVAL})"
            )
        if (
            self.faults is not None
            and self.membership_enabled
            and self.suspect_after < HEARTBEAT_INTERVAL + self.net_delay_rounds
        ):
            # A threshold tighter than one probe round-trip would suspect
            # healthy peers every round.  Only enforced when the detector
            # will actually run — a fault-free config never builds one.
            raise ConfigError(
                "suspect_after must be >= HEARTBEAT_INTERVAL + "
                f"net_delay_rounds (got {self.suspect_after} with "
                f"HEARTBEAT_INTERVAL={HEARTBEAT_INTERVAL}, "
                f"net_delay_rounds={self.net_delay_rounds}); raise "
                "suspect_after for this slow interconnect or set "
                "membership=False"
            )
        if self.confirm_after < 1:
            raise ConfigError(
                f"confirm_after must be >= 1 (got {self.confirm_after})"
            )
        if self.backend not in ("sim", "process"):
            raise ConfigError(
                f"backend must be 'sim' or 'process' (got {self.backend!r})"
            )
        if self.workers is not None and (
            type(self.workers) is not int or self.workers < 1
        ):
            raise ConfigError(
                "workers must be None (one process per machine) or a "
                f"positive int (got {self.workers!r})"
            )
        if self.backend == "process":
            # The backend feature matrix (docs/backends.md): these options
            # live in simulator code the process workers do not run yet, so
            # the process backend rejects them loudly instead of silently
            # ignoring them.
            if self.faults is not None:
                raise ConfigError(
                    "faults is simulator-only: the seeded injector "
                    "drops and crashes inside the simulator's channel, "
                    f"which backend='process' does not run (got faults="
                    f"{self.faults!r}); run backend='sim' for chaos"
                )
            if self.recovery:
                raise ConfigError(
                    "recovery=True is simulator-only: epoch checkpoints "
                    "and failover need the simulator's cluster-wide "
                    "state, which backend='process' workers do not share "
                    "— run backend='sim' for crash recovery"
                )
            if self.membership:
                raise ConfigError(
                    "membership=True is simulator-only: the heartbeat "
                    "failure detector runs in the simulator's cluster, "
                    "which backend='process' does not run — run "
                    "backend='sim' for failure detection"
                )
            if self.schedule_seed is not None:
                raise ConfigError(
                    "schedule_seed (race-detector mode) is simulator-only: "
                    "it permutes the service order of the simulator's "
                    "rounds, which backend='process' does not permute (got "
                    f"schedule_seed={self.schedule_seed!r}); run "
                    "backend='sim' for race detection"
                )
            if self.observe:
                raise ConfigError(
                    "observe=True is simulator-only for now: the span "
                    "recorder is one object the whole cluster writes to, "
                    "which backend='process' workers do not share — run "
                    "backend='sim' (profile=True works on both backends)"
                )
        if self.recovery and self.reliable_transport is False:
            raise ConfigError(
                "recovery requires the reliable transport layer "
                "(the ARQ retransmit queue is the replay log); drop "
                "reliable_transport=False"
            )
        if self.faults is not None:
            from .faults import FaultPlan  # deferred: faults imports errors only

            if not isinstance(self.faults, FaultPlan):
                raise ConfigError(
                    "faults must be a repro.faults.FaultPlan or None"
                )
            self.faults.validate_for(self.num_machines)
            # reliable_transport=False with a lossy plan is permitted —
            # chaos without the safety net is a legitimate experiment —
            # but then nothing guarantees delivery; the CLI warns.

    @property
    def membership_enabled(self):
        """Failure-detector resolution: explicit flag, else auto-on
        exactly when a fault plan is attached (a perfect cluster has
        nothing to detect)."""
        if self.membership is not None:
            return self.membership
        return self.faults is not None

    def with_(self, **overrides):
        """Return a copy of this config with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **overrides)
