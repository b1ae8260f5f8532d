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

When to send STATUS (:meth:`TerminationProtocol.idle_round`)
    One rule per machine, on the round clock both backends run: in a
    round in which it ran nothing, a machine evaluates, then broadcasts if
    (a) a counter moved since its last broadcast, (b) it holds a candidate
    and heard a STATUS since, or (c) a round trip passed since:
    ``2 * net_delay_rounds + 1`` rounds.  (b) hands peers the newer
    generations their confirmations need; (c) resends what the network
    may have lost.  The first conclusion anywhere ends the query.

Why no interval is needed
    Safety reads generations and counters, never a clock.  Counters only
    grow, so identical totals over strictly newer snapshots mean that no
    machine's counters moved between its two snapshots; a unit counts as
    ``processed`` only after every unit it created counts as ``sent``;
    stage 0's units are counted before any work.  From these the
    four-counter method (Mattern, "Algorithms for Distributed Termination
    Detection", Distributed Computing 2(3), 1987) concludes termination
    from two agreeing waves however close they are: the old 4-round
    interval only set how long detection took.  The check also requires
    the global sums to balance, which covers a unit in flight on a depth
    no snapshot reports yet.  ``tests/test_termination.py`` catches a
    protocol that concludes on its first all-done evaluation.
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
        self.version = 0  # bumped by every write below
        self._shipped = (-1,)  # (version, sent, processed, max_depths)

    def record_sent(self, stage, depth):
        self.sent[(stage, depth)] += 1
        self.version += 1

    def record_processed(self, stage, depth, count=1):
        self.processed[(stage, depth)] += count
        self.version += 1

    def record_bootstrap(self, count):
        """Account ``count`` bootstrap roots as stage-0 work units.

        The only bulk entry point: all counter mutations go through the
        tracker so monotonicity holds by construction.
        """
        self.sent[(0, 0)] += count
        self.version += 1

    def observe_depth(self, rpq_id, depth):
        if depth > self.max_depths.get(rpq_id, -1):
            self.max_depths[rpq_id] = depth
            self.version += 1

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
        self.version += 1

    def snapshot(self, dst_machine=None):
        """A STATUS message with the current counter state (``None``: for a
        whole broadcast).  Its dicts are copies nobody writes, shipped again
        while the version stands still; only ``generation`` advances."""
        if self._san is not None:
            self._san.on_snapshot(self.machine_id, self.sent, self.processed)
        if self._shipped[0] != self.version:
            self._shipped = (
                self.version, dict(self.sent), dict(self.processed), dict(self.max_depths)
            )
        _, sent, processed, max_depths = self._shipped
        return StatusMessage(
            src_machine=self.machine_id, dst_machine=dst_machine, query_id=self.query_id,
            generation=self.generation, sent=sent, processed=processed, max_depths=max_depths,
        )


# Depth relations of ``Stage.producers``; the evaluator's table holds a
# relation as its index here.
_RELATIONS = ("same", "zero", "plus_one", "any")
_SAME, _ZERO, _PLUS_ONE, _ANY = range(4)


def termination_table(plan):
    """What the evaluator reads of ``plan``, resolved once and cached on it
    (like the step table: every machine and execution of the plan shares it).

    ``(rpq_ids, blocks)``: the plan's RPQ segment ids, and its stages in the
    order one evaluation pass visits them — a block ``(segment, stages)`` per
    non-RPQ stage (segment ``None``) and one per RPQ segment (its rpq id) in
    place of its control stage, each stage as ``(index, producers)`` with a
    producer as ``(stage index, relation, its segment)``.  A segment's block
    is walked depth-major: its control stage at depth ``d + 1`` waits on a
    path stage listed after it.  Every other producer precedes its consumer
    (the compiler emits it first), so one pass reaches the fixpoint; a pass
    in a wrong order could only terminate fewer channels, never more.
    """
    table = plan.termination_table
    if table is None:
        segment = {}
        for stage in plan.stages:
            if stage.rpq is not None:
                for index in (stage.index, *stage.rpq.path_stages):
                    segment[index] = stage.rpq.rpq_id
        blocks, segments = [], {}
        for stage in plan.stages:
            entry = (stage.index, tuple(
                (producer, _RELATIONS.index(rel), segment.get(producer))
                for producer, rel in stage.producers
            ))
            rpq_id = segment.get(stage.index)
            if rpq_id is None:
                blocks.append((None, (entry,)))
            elif rpq_id in segments:
                segments[rpq_id].append(entry)
            else:
                segments[rpq_id] = [entry]
                blocks.append((rpq_id, segments[rpq_id]))
        blocks = tuple((rpq_id, tuple(members)) for rpq_id, members in blocks)
        rpq_ids = tuple(spec.rpq_id for spec in plan.rpq_specs())
        table = plan.termination_table = (rpq_ids, blocks)
    return table


def counter_totals(snapshots):
    """Global ``(sent, processed)`` per channel over ``snapshots``."""
    first, *rest = snapshots
    sent, processed = dict(first.sent), dict(first.processed)
    for snap in rest:
        for key, count in snap.sent.items():
            sent[key] = sent.get(key, 0) + count
        for key, count in snap.processed.items():
            processed[key] = processed.get(key, 0) + count
    return sent, processed


class TerminationEvaluator:
    """Evaluates the incremental conditions over a set of snapshots: any
    objects with ``sent`` / ``processed`` / ``max_depths`` mappings
    (:class:`StatusMessage`, or a live :class:`TerminationTracker`)."""

    def __init__(self, plan):
        self.rpq_ids, self.blocks = termination_table(plan)

    def evaluate(self, snapshots, totals=None):
        """Return ``(terminated_keys, all_done)``.

        ``terminated_keys`` is the set of ``(stage_index, depth)`` channels
        whose incremental conditions hold under these snapshots; ``totals``
        is ``counter_totals(snapshots)`` when the caller already has it.
        """
        sent, processed = totals or counter_totals(snapshots)
        # Per segment: the depth all machines agree on (absent = no
        # consensus) and the largest depth any machine has seen.
        consensus, known = {}, {}
        for rpq_id in self.rpq_ids:
            depths = [snap.max_depths.get(rpq_id, -1) for snap in snapshots]
            known[rpq_id] = top = max(depths)
            if min(depths) == top:
                consensus[rpq_id] = top

        # One pass in dependency order: a channel terminates when its counts
        # balance and its producers have terminated.
        terminated = set()
        for rpq_id, stages in self.blocks:
            for d in range(known[rpq_id] + 1) if rpq_id is not None else (0,):
                for index, producers in stages:
                    key = (index, d)
                    if sent.get(key, 0) != processed.get(key, 0):
                        continue
                    for producer, rel, segment in producers:
                        if rel == _SAME:
                            ok = (producer, 0 if segment is None else d) in terminated
                        elif rel == _ZERO:
                            ok = d != 0 or (producer, 0) in terminated
                        elif rel == _PLUS_ONE:
                            ok = d == 0 or (producer, d - 1) in terminated
                        else:  # _ANY: every depth up to the agreed maximum
                            top = consensus.get(segment)
                            ok = top is not None and all(
                                (producer, dd) in terminated for dd in range(top + 1)
                            )
                        if not ok:
                            break
                    else:
                        terminated.add(key)

        for rpq_id, stages in self.blocks:
            if rpq_id is None:
                depths = (0,)
            elif rpq_id in consensus:
                depths = range(consensus[rpq_id] + 1)
            else:
                return terminated, False
            for index, _producers in stages:
                if any((index, d) not in terminated for d in depths):
                    return terminated, False
        return terminated, True


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
        # The last evaluation: ``(own version, totals, all_done)``.
        self._memo = None
        # The STATUS rule (:meth:`idle_round`): the tracker version at the
        # last broadcast (0: nothing to tell) and its round, and whether a
        # STATUS arrived since.
        self._announced = 0
        self._spoke = None
        self._heard = False

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
        }

    def restore_state(self, state):
        self.views = {mid: msg.clone() for mid, msg in state["views"].items()}
        candidate = state["candidate"]
        if candidate is not None:
            gen_vector, (sent, processed) = candidate
            candidate = (gen_vector, (dict(sent), dict(processed)))
        self._candidate = candidate
        self.concluded = state["concluded"]
        self._memo = None

    def on_status(self, message):
        # Keeping only the newest generation per machine is what makes the
        # protocol tolerate lost/duplicated/reordered STATUS traffic: an
        # older (or equal) generation arriving late is ignored.
        current = self.views.get(message.src_machine)
        if current is None or message.generation > current.generation:
            self.views[message.src_machine] = message
            # An unmoved machine ships the same counts again under a newer
            # generation: the last evaluation's verdict still holds.
            if current is None or (message.sent, message.processed, message.max_depths) != (
                current.sent, current.processed, current.max_depths
            ):
                self._memo = None
        self._heard = True
        # Consensus mechanics (paper Section 3.4): a machine adopts larger
        # maximum observed depths from other machines' STATUS (a dict shared
        # with the current view's was adopted with it), so all converge on
        # the global maximum and eventually broadcast the same value.
        if current is None or message.max_depths is not current.max_depths:
            for rpq_id, depth in message.max_depths.items():
                self.tracker.observe_depth(rpq_id, depth)

    def check(self):
        """Re-evaluate; returns True once termination is *confirmed*."""
        if self.concluded:
            return True
        if len(self.views) < self.num_machines - 1:
            return False
        # Latest remote snapshots plus a live view of our own counters.
        own = self.tracker
        if self._san is not None:
            self._san.on_snapshot(self.machine_id, own.sent, own.processed)
        views = [s for m, s in self.views.items() if m != self.machine_id]
        # The verdict is a function of the counters and max depths alone:
        # with our version as at the last evaluation and no view's counts
        # moved since (:meth:`on_status` drops the memo), reuse it.
        memo = self._memo
        if memo is None or memo[0] != own.version:
            snapshots = [own, *views]
            signature = counter_totals(snapshots)
            sent, processed = signature
            # Every channel balances only if the sums do: a unit still in
            # flight anywhere needs no evaluation.
            all_done = sum(sent.values()) == sum(processed.values()) and (
                self.evaluator.evaluate(snapshots, signature)[1]
            )
            memo = self._memo = (own.version, signature, all_done)
        _, signature, all_done = memo
        if not all_done:
            self._candidate = None
            return False
        gen_vector = tuple(sorted(
            [(self.machine_id, own.generation)]
            + [(snap.src_machine, snap.generation) for snap in views]
        ))
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

    def idle_round(self, now, round_trip):
        """The STATUS rule (module docstring) in round ``now``, one in which
        this machine ran nothing: check, then True, booked, if it is to
        broadcast."""
        if self.check():
            return False  # the conclusion ends the query: nobody listens
        if self._spoke is None:  # its first idle round starts the clock
            self._spoke = now
        moved = self.tracker.version != self._announced
        if not (moved or (self._heard and self.confirming) or now - self._spoke >= round_trip):
            return False
        self._spoke, self._announced, self._heard = now, self.tracker.version, False
        return True

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
