"""Runtime statistics.

Every counter the paper reports lives here: per-depth RPQ control-stage
matches (Tables 2/3), reachability-index eliminations/duplications
(Table 3), flow-control block counts (Section 4.2), message/byte volumes,
modelled memory, and busy/idle rounds for the virtual-time model.
"""

from collections import Counter

#: Modelled size of one message buffer, for the memory accounting only
#: (paper Section 4.1: 256 KB).
BUFFER_BYTES = 256 * 1024


class MachineStats:
    """Counters for one simulated machine."""

    def __init__(self):
        # RPQ control stage (Tables 2 and 3): {rpq_id: Counter{depth: n}}.
        self.control_matches = {}
        self.eliminated = {}
        self.duplicated = {}
        # Successful matches per plan stage (EXPLAIN ANALYZE).
        self.stage_matches = Counter()
        # Reachability index.
        self.index_inserts = 0
        self.index_updates = 0
        self.index_entries = 0
        self.index_prealloc_bytes = 0
        # Flow control (Section 4.2).
        self.flow_control_blocks = 0
        self.overflow_grants = 0
        self.peak_inflight_buffers = 0
        # Batches absorbed into worker context storage but not yet fully
        # explored — the "dynamically allocated RPQ contexts" memory that
        # flow control cannot bound (paper Section 3.3).
        self.peak_absorbed_batches = 0
        # Messaging.
        self.batches_sent = 0
        self.contexts_sent = 0
        self.bytes_sent = 0
        self.done_messages = 0
        self.status_messages = 0
        # Work.
        self.bootstrapped = 0
        self.edges_traversed = 0
        self.filter_evals = 0
        self.outputs = 0
        self.dynamic_context_allocs = 0
        # Virtual time.
        self.busy_rounds = 0
        self.idle_rounds = 0
        self.blocked_rounds = 0
        # Rounds this machine was down (stalled/crashed) under fault
        # injection; always 0 on fault-free runs.
        self.stalled_rounds = 0
        self.cost_units = 0.0

    # -- crash recovery (:mod:`repro.recovery`) --------------------------
    def clone(self):
        """Value copy for checkpoints (Counters and dicts duplicated)."""
        new = MachineStats()
        for name, value in self.__dict__.items():
            if isinstance(value, Counter):
                value = Counter(value)
            elif isinstance(value, dict):
                value = {k: Counter(v) for k, v in value.items()}
            setattr(new, name, value)
        return new

    def restore(self, snapshot):
        """Roll this object back to ``snapshot`` *in place*, keeping every
        reference to it (controllers, trackers, sinks) valid."""
        fresh = snapshot.clone()
        self.__dict__.clear()
        self.__dict__.update(fresh.__dict__)

    # -- helpers ---------------------------------------------------------
    def record_control_matches(self, rpq_id, depths):
        """Add ``{depth: entries}`` of one RPQ segment's control stage."""
        self.control_matches.setdefault(rpq_id, Counter()).update(depths)

    def record_eliminated(self, rpq_id, depth):
        counter = self.eliminated.get(rpq_id)
        if counter is None:
            counter = self.eliminated[rpq_id] = Counter()
        counter[depth] += 1

    def record_duplicated(self, rpq_id, depth):
        counter = self.duplicated.get(rpq_id)
        if counter is None:
            counter = self.duplicated[rpq_id] = Counter()
        counter[depth] += 1


class RunStats:
    """Aggregated statistics for one distributed query execution."""

    def __init__(
        self,
        machine_stats,
        rounds,
        wall_seconds,
        config,
        quiescent_round=None,
        schedule_fingerprint=None,
        partial=False,
        down_machines=(),
        transport=None,
        fault_events=None,
        recovery=None,
        timed_out=False,
        profile=None,
        membership=None,
    ):
        self.per_machine = machine_stats
        self.rounds = rounds
        self.quiescent_round = quiescent_round
        self.wall_seconds = wall_seconds
        self.config = config
        # Accumulated hash of the permuted service orders when running
        # under ``config.schedule_seed`` (race-detector mode); ``None`` for
        # the canonical deterministic schedule.
        self.schedule_fingerprint = schedule_fingerprint
        self.num_machines = len(machine_stats)
        # Fault/transport epilogue (:mod:`repro.faults`): ``partial`` is
        # True when a permanently-down machine forced the scheduler to
        # return an incomplete result set; ``transport`` is the network's
        # ARQ counter summary (None when reliable transport was off);
        # ``fault_events`` the injected-fault counts (None when fault-free).
        self.partial = partial
        self.down_machines = tuple(down_machines)
        self.transport = transport
        self.fault_events = fault_events
        # Crash-recovery epilogue (:mod:`repro.recovery`): the manager's
        # summary dict (checkpoints, recoveries, host map, replay volume)
        # when recovery was enabled, else None.  ``timed_out`` is True when
        # ``EngineConfig.deadline`` expired before the protocol concluded.
        self.recovery = recovery
        self.timed_out = timed_out
        # Failure-detection epilogue (:mod:`repro.membership`): the
        # detector's summary dict (view, verdicts, probe traffic,
        # detection latencies) when the membership service ran, else None.
        self.membership = membership
        # Wall-clock phase breakdown (:mod:`repro.obs.prof`): the
        # profiler's ``summary()`` dict when ``EngineConfig.profile`` was
        # on, else None.  Deliberately kept out of :meth:`summary` — wall
        # time is reporting-only, virtual rounds stay the primary metric.
        self.profile = profile

    # -- aggregation helpers ----------------------------------------------
    def _sum(self, attr):
        return sum(getattr(m, attr) for m in self.per_machine)

    def _merge_depth_counters(self, attr):
        merged = {}
        for m in self.per_machine:
            for rpq_id, counter in getattr(m, attr).items():
                merged.setdefault(rpq_id, Counter()).update(counter)
        return merged

    @property
    def control_matches(self):
        """Per-depth RPQ control-stage matches: {rpq_id: {depth: count}}."""
        return self._merge_depth_counters("control_matches")

    @property
    def eliminated(self):
        return self._merge_depth_counters("eliminated")

    @property
    def stage_matches(self):
        """Successful matches per plan stage (for EXPLAIN ANALYZE)."""
        merged = Counter()
        for m in self.per_machine:
            merged.update(m.stage_matches)
        return merged

    @property
    def duplicated(self):
        return self._merge_depth_counters("duplicated")

    @property
    def flow_control_blocks(self):
        return self._sum("flow_control_blocks")

    @property
    def batches_sent(self):
        return self._sum("batches_sent")

    @property
    def contexts_sent(self):
        return self._sum("contexts_sent")

    @property
    def bytes_sent(self):
        return self._sum("bytes_sent")

    @property
    def outputs(self):
        return self._sum("outputs")

    @property
    def edges_traversed(self):
        return self._sum("edges_traversed")

    @property
    def index_entries(self):
        return self._sum("index_entries")

    @property
    def index_bytes(self):
        """Modelled index size: 12 bytes/entry (paper Section 4.4) plus any
        bulk-preallocated first-level pointer arrays."""
        return 12 * self.index_entries + self._sum("index_prealloc_bytes")

    @property
    def messaging_bytes_peak(self):
        """Modelled peak messaging memory: in-flight buffers x buffer size."""
        peak = max((m.peak_inflight_buffers for m in self.per_machine), default=0)
        return peak * BUFFER_BYTES

    @property
    def virtual_time(self):
        """Virtual makespan in scheduler rounds (the latency metric).

        Measured up to cluster quiescence — the point where all query work
        (bootstrap, traversal, messaging) has finished; the termination
        protocol's detection tail is excluded from latency but included in
        ``rounds``.
        """
        return self.quiescent_round if self.quiescent_round is not None else self.rounds

    def cost_units_total(self):
        """Total work (cost units) across machines — a finer-grained metric
        than rounds for comparing configurations whose latency differences
        are smaller than one quantum."""
        return self._sum("cost_units")

    def max_depth(self, rpq_id=0):
        matches = self.control_matches.get(rpq_id)
        return max(matches) if matches else -1

    def depth_table(self, rpq_id=0):
        """Rows of (depth, matches, eliminated, duplicated) — Table 2/3 shape."""
        matches = self.control_matches.get(rpq_id, {})
        eliminated = self.eliminated.get(rpq_id, {})
        duplicated = self.duplicated.get(rpq_id, {})
        depths = sorted(set(matches) | set(eliminated) | set(duplicated))
        return [
            (d, matches.get(d, 0), eliminated.get(d, 0), duplicated.get(d, 0))
            for d in depths
        ]

    def summary(self):
        out = {
            "rounds": self.rounds,
            "wall_seconds": round(self.wall_seconds, 4),
            "machines": self.num_machines,
            "outputs": self.outputs,
            "edges_traversed": self.edges_traversed,
            "batches_sent": self.batches_sent,
            "contexts_sent": self.contexts_sent,
            "bytes_sent": self.bytes_sent,
            "flow_control_blocks": self.flow_control_blocks,
            "index_entries": self.index_entries,
            "index_bytes": self.index_bytes,
        }
        if self.partial:
            out["partial"] = True
            out["down_machines"] = list(self.down_machines)
        if self.timed_out:
            out["timed_out"] = True
        if self.fault_events is not None:
            out["fault_events"] = dict(self.fault_events)
        if self.transport is not None:
            out["transport"] = dict(self.transport)
        if self.recovery is not None:
            out["recovery"] = dict(self.recovery)
        if self.membership is not None:
            out["membership"] = dict(self.membership)
        return out
