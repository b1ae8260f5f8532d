"""Incremental distributed termination detection (paper Section 3.4).

Work accounting
    Every unit of work is counted on a per-``(stage, depth)`` channel:
    bootstrap roots are self-addressed units on stage 0, and every batch
    shipped between machines is a unit on its target stage/depth.  ``sent``
    increments when the unit is created, ``processed`` when the receiving
    worker has *fully explored* it (including all local DFT descendants).
    Local hops never create units — their work is covered by the unit being
    processed.

Incremental conditions
    Stage ``i`` (at depth ``d`` for RPQ stages) has globally terminated when
    (a) all of its producer stages/depths have terminated — the paper's
    "previous stage terminated" condition generalized to the plan's actual
    hop topology, including the RPQ depth recursion (path stages at depth
    ``d`` feed the control stage at ``d+1``), and (b) the global ``sent``
    equals the global ``processed`` on its channel.  Condition (a) is what
    makes counting sound despite asynchrony: once producers are done,
    nothing can create new units on the channel.

Unbounded RPQs
    Machines include their maximum observed repetition depth in STATUS
    broadcasts.  The exit stage of an RPQ (an "any"-depth consumer) only
    terminates once all machines agree on the maximum observed depth *and*
    every depth up to it has terminated — the paper's consensus-like
    protocol.

Confirmation
    A machine that evaluates "everything terminated" holds a *candidate*
    and only concludes once a second evaluation succeeds with strictly newer
    snapshots from every machine and identical counter totals.  This closes
    the classic stale-snapshot race of counting-based detection.
"""

from collections import Counter

from .message import StatusMessage


class TerminationTracker:
    """Per-machine work counters feeding the protocol."""

    def __init__(self, machine_id, sanitizer=None, query_id=0):
        self.machine_id = machine_id
        # Multi-query runtime: counters (and the STATUS snapshots built from
        # them) belong to one query; the id rides every snapshot so a
        # misrouted heartbeat can be rejected instead of corrupting another
        # query's termination state.
        self.query_id = query_id
        self._san = sanitizer
        self.sent = Counter()  # {(stage, depth): units created}
        self.processed = Counter()  # {(stage, depth): units completed}
        self.max_depths = {}  # {rpq_id: max observed depth}
        self.generation = 0

    def record_sent(self, stage, depth):
        self.sent[(stage, depth)] += 1

    def record_processed(self, stage, depth, count=1):
        self.processed[(stage, depth)] += count

    def record_bootstrap(self, count):
        """Account ``count`` bootstrap roots as stage-0 work units.

        The only bulk entry point: all counter mutations go through the
        tracker (lint rule RPQ004) so monotonicity holds by construction.
        """
        self.sent[(0, 0)] += count

    def observe_depth(self, rpq_id, depth):
        if depth > self.max_depths.get(rpq_id, -1):
            self.max_depths[rpq_id] = depth

    # -- crash recovery (:mod:`repro.recovery`) -------------------------
    def checkpoint_state(self):
        return (
            Counter(self.sent),
            Counter(self.processed),
            dict(self.max_depths),
            self.generation,
        )

    def restore_state(self, state):
        sent, processed, max_depths, generation = state
        self.sent = Counter(sent)
        self.processed = Counter(processed)
        self.max_depths = dict(max_depths)
        self.generation = generation

    def snapshot(self, dst_machine):
        """Build a STATUS message with the current counter state."""
        if self._san is not None:
            self._san.on_snapshot(self.machine_id, self.sent, self.processed)
        return StatusMessage(
            src_machine=self.machine_id,
            dst_machine=dst_machine,
            query_id=self.query_id,
            generation=self.generation,
            sent=dict(self.sent),
            processed=dict(self.processed),
            max_depths=dict(self.max_depths),
        )


class TerminationEvaluator:
    """Evaluates the incremental conditions over a set of snapshots."""

    def __init__(self, plan):
        self.plan = plan
        self._segment_cache = {}
        for s in plan.stages:
            if s.rpq is not None:
                self._segment_cache[s.index] = s.rpq.rpq_id
                for idx in s.rpq.path_stages:
                    self._segment_cache[idx] = s.rpq.rpq_id

    def totals(self, snapshots):
        sent = Counter()
        processed = Counter()
        for snap in snapshots:
            sent.update(snap.sent)
            processed.update(snap.processed)
        return sent, processed

    def consensus_max_depths(self, snapshots):
        """{rpq_id: depth} where all machines agree; absent = no consensus."""
        consensus = {}
        rpq_ids = {s.rpq.rpq_id for s in self.plan.stages if s.rpq is not None}
        for rpq_id in rpq_ids:
            values = {snap.max_depths.get(rpq_id, -1) for snap in snapshots}
            if len(values) == 1:
                consensus[rpq_id] = values.pop()
        return consensus

    def known_max_depths(self, snapshots):
        known = {}
        for snap in snapshots:
            for rpq_id, depth in snap.max_depths.items():
                if depth > known.get(rpq_id, -1):
                    known[rpq_id] = depth
        return known

    def evaluate(self, snapshots):
        """Return ``(terminated_keys, all_done)``.

        ``terminated_keys`` is the set of ``(stage_index, depth)`` channels
        whose incremental conditions hold under these snapshots.
        """
        plan = self.plan
        sent, processed = self.totals(snapshots)
        consensus = self.consensus_max_depths(snapshots)
        known = self.known_max_depths(snapshots)

        terminated = set()

        def counts_ok(key):
            return sent.get(key, 0) == processed.get(key, 0)

        def producer_depth(producer_stage, d):
            return d if plan.stages[producer_stage].is_rpq_stage else 0

        def producers_ok(stage, d):
            for producer, rel in stage.producers:
                if rel == "zero":
                    if d == 0 and (producer, 0) not in terminated:
                        return False
                elif rel == "plus_one":
                    if d > 0 and (producer, d - 1) not in terminated:
                        return False
                elif rel == "any":
                    rpq_id = self._segment_cache[producer]
                    if rpq_id not in consensus:
                        return False
                    for dd in range(consensus[rpq_id] + 1):
                        if (producer, dd) not in terminated:
                            return False
                else:  # "same"
                    if (producer, producer_depth(producer, d)) not in terminated:
                        return False
            return True

    # fixpoint iteration: keys become terminated in dependency order
        changed = True
        while changed:
            changed = False
            for stage in plan.stages:
                if stage.is_rpq_stage:
                    rpq_id = self._segment_cache[stage.index]
                    depths = range(known.get(rpq_id, -1) + 1)
                else:
                    depths = (0,)
                for d in depths:
                    key = (stage.index, d)
                    if key in terminated:
                        continue
                    if producers_ok(stage, d) and counts_ok(key):
                        terminated.add(key)
                        changed = True

        all_done = True
        for stage in plan.stages:
            if stage.is_rpq_stage:
                rpq_id = self._segment_cache[stage.index]
                if rpq_id not in consensus:
                    all_done = False
                    break
                depths = range(consensus[rpq_id] + 1)
            else:
                depths = (0,)
            if any((stage.index, d) not in terminated for d in depths):
                all_done = False
                break
        return terminated, all_done


class TerminationProtocol:
    """One machine's view of the protocol: snapshots in, conclusion out."""

    def __init__(self, machine_id, plan, num_machines, tracker, sanitizer=None, obs=None):
        self.machine_id = machine_id
        self.num_machines = num_machines
        self.tracker = tracker
        self._san = sanitizer
        self._obs = obs
        self.evaluator = TerminationEvaluator(plan)
        self.views = {}  # {machine_id: latest StatusMessage}
        self._candidate = None  # (gen_vector, sent_totals, processed_totals)
        self.concluded = False
        self.last_terminated_keys = set()

    # -- crash recovery (:mod:`repro.recovery`) -------------------------
    def checkpoint_state(self):
        candidate = self._candidate
        if candidate is not None:
            gen_vector, (sent, processed) = candidate
            candidate = (gen_vector, (dict(sent), dict(processed)))
        return {
            "views": {mid: msg.clone() for mid, msg in self.views.items()},
            "candidate": candidate,
            "concluded": self.concluded,
            "terminated": set(self.last_terminated_keys),
        }

    def restore_state(self, state):
        self.views = {mid: msg.clone() for mid, msg in state["views"].items()}
        candidate = state["candidate"]
        if candidate is not None:
            gen_vector, (sent, processed) = candidate
            candidate = (gen_vector, (dict(sent), dict(processed)))
        self._candidate = candidate
        self.concluded = state["concluded"]
        self.last_terminated_keys = set(state["terminated"])

    def on_status(self, message):
        current = self.views.get(message.src_machine)
        if current is None or message.generation > current.generation:
            self.views[message.src_machine] = message
        elif self._obs is not None:
            # Reordered or retransmitted heartbeat: an older (or equal)
            # generation arrived after a newer one was already adopted.
            # Keeping only the newest view is what makes the protocol
            # tolerate lost/duplicated/reordered STATUS traffic.
            self._obs.metrics.counter(
                "repro_term_stale_status_total",
                "STATUS snapshots ignored because a newer generation "
                "was already known (reordering/retransmission)",
                ("machine",),
            ).labels(self.machine_id).inc()
        # Consensus mechanics (paper Section 3.4): a machine adopts larger
        # maximum observed depths learned from other machines' termination
        # messages, so all machines converge on the global maximum and
        # eventually broadcast the same value.
        for rpq_id, depth in message.max_depths.items():
            self.tracker.observe_depth(rpq_id, depth)

    def _snapshots(self):
        """Latest remote snapshots plus a live view of our own counters."""
        if len(self.views) < self.num_machines - 1:
            return None
        own = self.tracker.snapshot(dst_machine=self.machine_id)
        snaps = [own]
        for mid, snap in self.views.items():
            if mid != self.machine_id:
                snaps.append(snap)
        return snaps

    def check(self):
        """Re-evaluate; returns True once termination is *confirmed*."""
        if self.concluded:
            return True
        snapshots = self._snapshots()
        if snapshots is None:
            return False
        terminated, all_done = self.evaluator.evaluate(snapshots)
        self.last_terminated_keys = terminated
        if self._obs is not None:
            self._obs.metrics.gauge(
                "repro_term_terminated_channels",
                "(stage, depth) channels this machine currently evaluates "
                "as globally terminated",
                ("machine",),
            ).labels(self.machine_id).set(len(terminated))
        if not all_done:
            self._candidate = None
            return False
        gen_vector = tuple(
            sorted((snap.src_machine, snap.generation) for snap in snapshots)
        )
        sent, processed = self.evaluator.totals(snapshots)
        signature = (dict(sent), dict(processed))
        if self._candidate is None:
            self._set_candidate(gen_vector, signature)
            return False
        old_gens, old_signature = self._candidate
        if self._strictly_newer(gen_vector, old_gens):
            if signature == old_signature:
                self._conclude(gen_vector)
                return True
            self._set_candidate(gen_vector, signature)
        return False

    @property
    def confirming(self):
        """True once an evaluation found everything terminated: a candidate
        is held (or was confirmed) and only strictly newer snapshots from
        every machine can move this machine further."""
        return self._candidate is not None

    def _set_candidate(self, gen_vector, signature):
        self._candidate = (gen_vector, signature)
        if self._obs is not None:
            self._obs.instant(self.machine_id, "term.candidate", cat="protocol")
            self._obs.metrics.counter(
                "repro_term_candidates_total",
                "termination-confirmation candidates formed",
                ("machine",),
            ).labels(self.machine_id).inc()
        if self._san is not None:
            self._san.on_candidate(self.machine_id, gen_vector)

    @staticmethod
    def _strictly_newer(gen_vector, old_gens):
        """Every machine's snapshot generation advanced past the candidate's."""
        floor = dict(old_gens)
        return all(gen > floor.get(mid, -1) for mid, gen in gen_vector)

    def _conclude(self, gen_vector):
        if self._obs is not None:
            self._obs.instant(self.machine_id, "term.conclude", cat="protocol")
        if self._san is not None:
            self._san.on_conclude(self.machine_id, gen_vector)
        self.concluded = True
