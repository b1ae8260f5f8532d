"""Tests for the incremental termination protocol (paper Section 3.4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import EngineConfig, Session
from repro.graph import GraphBuilder
from repro.graph.generators import chain_graph, random_graph
from repro.pgql import parse
from repro.plan import compile_query
from repro.runtime import termination
from repro.runtime.termination import (
    TerminationEvaluator,
    TerminationProtocol,
    TerminationTracker,
    counter_totals,
)

from .onetask import make_execution, run


def two_stage_plan():
    b = GraphBuilder()
    b.add_vertex("N")
    b.add_vertex("N")
    b.add_edge(0, 1, "E")
    g = b.build()
    return compile_query(parse("SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)"), g)


def rpq_plan():
    b = GraphBuilder()
    b.add_vertex("N")
    b.add_vertex("N")
    b.add_edge(0, 1, "E")
    g = b.build()
    return compile_query(parse("SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)"), g)


def snapshots(trackers):
    return [t.snapshot(0) for t in trackers]


class TestTracker:
    def test_counters(self):
        t = TerminationTracker(0)
        t.record_sent(1, 0)
        t.record_sent(1, 0)
        t.record_processed(1, 0)
        assert t.sent[(1, 0)] == 2
        assert t.processed[(1, 0)] == 1

    def test_observe_depth_is_monotone(self):
        t = TerminationTracker(0)
        t.observe_depth(0, 3)
        t.observe_depth(0, 1)
        assert t.max_depths[0] == 3


class TestEvaluator:
    def test_fixed_plan_terminates_when_counts_match(self):
        plan = two_stage_plan()
        ev = TerminationEvaluator(plan)
        t0, t1 = TerminationTracker(0), TerminationTracker(1)
        t0.sent[(0, 0)] = 2  # bootstrap units
        t0.processed[(0, 0)] = 2
        t0.record_sent(1, 0)
        t1.record_processed(1, 0)
        terminated, all_done = ev.evaluate(snapshots([t0, t1]))
        assert (0, 0) in terminated
        assert (1, 0) in terminated
        assert all_done

    def test_unprocessed_message_blocks_stage(self):
        plan = two_stage_plan()
        ev = TerminationEvaluator(plan)
        t0, t1 = TerminationTracker(0), TerminationTracker(1)
        t0.sent[(0, 0)] = 1
        t0.processed[(0, 0)] = 1
        t0.record_sent(1, 0)  # batch in flight, never processed
        terminated, all_done = ev.evaluate(snapshots([t0, t1]))
        assert (0, 0) in terminated
        assert (1, 0) not in terminated
        assert not all_done

    def test_unfinished_producer_blocks_consumer_even_with_equal_counts(self):
        # The incremental condition: stage 1 counts are 0==0, but stage 0 is
        # still running so stage 1 must NOT be declared terminated.
        plan = two_stage_plan()
        ev = TerminationEvaluator(plan)
        t0 = TerminationTracker(0)
        t0.sent[(0, 0)] = 5
        t0.processed[(0, 0)] = 3  # bootstrap still in progress
        terminated, all_done = ev.evaluate(snapshots([t0]))
        assert (0, 0) not in terminated
        assert (1, 0) not in terminated
        assert not all_done

    def test_rpq_depth_recursion(self):
        plan = rpq_plan()
        ev = TerminationEvaluator(plan)
        t = TerminationTracker(0)
        t.sent[(0, 0)] = 2
        t.processed[(0, 0)] = 2
        t.observe_depth(0, 1)
        terminated, all_done = ev.evaluate(snapshots([t]))
        control = next(s.index for s in plan.stages if s.rpq is not None)
        assert (control, 0) in terminated
        assert (control, 1) in terminated
        assert all_done

    def test_no_consensus_blocks_exit_stage(self):
        plan = rpq_plan()
        ev = TerminationEvaluator(plan)
        t0, t1 = TerminationTracker(0), TerminationTracker(1)
        t0.sent[(0, 0)] = 1
        t0.processed[(0, 0)] = 1
        t0.observe_depth(0, 2)
        t1.observe_depth(0, 1)  # machines disagree on max depth
        terminated, all_done = ev.evaluate(snapshots([t0, t1]))
        exit_stage = plan.rpq_specs()[0].exit_stage
        assert (exit_stage, 0) not in terminated
        assert not all_done

    def test_consensus_unblocks_exit_stage(self):
        plan = rpq_plan()
        ev = TerminationEvaluator(plan)
        t0, t1 = TerminationTracker(0), TerminationTracker(1)
        t0.sent[(0, 0)] = 1
        t0.processed[(0, 0)] = 1
        t0.observe_depth(0, 2)
        t1.observe_depth(0, 2)
        terminated, all_done = ev.evaluate(snapshots([t0, t1]))
        exit_stage = plan.rpq_specs()[0].exit_stage
        assert (exit_stage, 0) in terminated
        assert all_done


class TestProtocolConfirmation:
    def test_requires_two_matching_evaluations_with_fresh_snapshots(self):
        plan = two_stage_plan()
        t0 = TerminationTracker(0)
        t1 = TerminationTracker(1)
        t0.sent[(0, 0)] = 1
        t0.processed[(0, 0)] = 1
        protocol = TerminationProtocol(0, plan, 2, t0)

        t1.generation = 1
        protocol.on_status(t1.snapshot(0))
        assert protocol.check() is False  # first success: candidate only
        assert protocol.check() is False  # same generations: no confirm
        t1.generation = 2
        protocol.on_status(t1.snapshot(0))
        # Own snapshot is live; remote generation advanced with identical
        # totals -> confirmation... but own generation must also advance.
        t0.generation = 1
        assert protocol.check() is True
        assert protocol.concluded

    def test_changed_totals_reset_candidate(self):
        plan = two_stage_plan()
        t0 = TerminationTracker(0)
        t1 = TerminationTracker(1)
        t0.sent[(0, 0)] = 1
        t0.processed[(0, 0)] = 1
        protocol = TerminationProtocol(0, plan, 2, t0)
        t1.generation = 1
        protocol.on_status(t1.snapshot(0))
        assert protocol.check() is False
        # New work shows up: totals change, candidate must reset.
        t0.record_sent(1, 0)
        t0.generation = 1
        t1.generation = 2
        protocol.on_status(t1.snapshot(0))
        assert protocol.check() is False
        assert protocol._candidate is None

    def test_status_propagates_max_depth(self):
        plan = rpq_plan()
        t0 = TerminationTracker(0)
        protocol = TerminationProtocol(0, plan, 2, t0)
        t1 = TerminationTracker(1)
        t1.observe_depth(0, 7)
        protocol.on_status(t1.snapshot(0))
        assert t0.max_depths[0] == 7  # consensus mechanics: adopt larger max


class TestProtocolEndToEnd:
    @pytest.mark.parametrize("machines", [1, 2, 4])
    def test_protocol_never_concludes_early(self, machines):
        # The scheduler raises if the protocol concludes while ground truth
        # says work remains; a clean run implies soundness held throughout.
        g = random_graph(40, 120, seed=13)
        eng = Session(g, EngineConfig(num_machines=machines))
        r = eng.execute("SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)")
        assert r.scalar() > 0

    def test_protocol_with_delayed_status_messages(self):
        from repro.runtime.message import StatusMessage

        cluster, task, _sinks, _plan = make_execution(
            chain_graph(12),
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)",
            EngineConfig(num_machines=3),
            lossy=True,
        )
        delayed = []
        task.channel.extra_delay_fn = (
            lambda m: 7 if isinstance(m, StatusMessage) and m.seq % 3 == 0
            and not delayed.append(m) else 0
        )
        stats = run(cluster, task)
        assert stats.outputs == 66  # 45 pairs... depends; see below
        assert delayed  # the hook fired

    def test_duplicated_status_messages_are_harmless(self):
        from repro.runtime.message import StatusMessage

        cluster, task, _sinks, _plan = make_execution(
            chain_graph(12),
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)",
            EngineConfig(num_machines=3),
            lossy=True,
        )
        task.channel.duplicate_fn = lambda m: isinstance(m, StatusMessage)
        stats = run(cluster, task)
        assert stats.outputs == 66
        # Every STATUS copy went out twice: the hook fired on each.
        assert task.channel.total_messages == sum(
            2 * m.status_messages + m.batches_sent + m.done_messages
            for m in stats.per_machine
        )


# ---------------------------------------------------------------------------
# Evaluator equivalence: the table-driven evaluator against a straight-line
# reading of the incremental conditions, over every golden-oracle plan.
# ---------------------------------------------------------------------------


def reference_evaluate(plan, snaps):
    """The conditions of the module docstring, written for clarity only."""
    keys = set().union(*(s.sent for s in snaps), *(s.processed for s in snaps))
    balanced = {
        k for k in keys
        if sum(s.sent.get(k, 0) for s in snaps) == sum(s.processed.get(k, 0) for s in snaps)
    }
    segment = {}
    for stage in plan.stages:
        if stage.rpq is not None:
            for index in (stage.index, *stage.rpq.path_stages):
                segment[index] = stage.rpq.rpq_id
    seen = {r: [s.max_depths.get(r, -1) for s in snaps] for r in set(segment.values())}
    consensus = {r: d[0] for r, d in seen.items() if len(set(d)) == 1}

    def depths(index, upto):
        if index not in segment:
            return [0]
        return list(range(upto[segment[index]] + 1)) if segment[index] in upto else None

    def producer_done(producer, rel, d, done):
        if rel == "zero":
            return d != 0 or (producer, 0) in done
        if rel == "plus_one":
            return d == 0 or (producer, d - 1) in done
        if rel == "any":
            needed = depths(producer, consensus)
            return needed is not None and all((producer, dd) in done for dd in needed)
        return (producer, d if producer in segment else 0) in done

    done, grew = set(), True
    while grew:
        grew = False
        for stage in plan.stages:
            for d in depths(stage.index, {r: max(d) for r, d in seen.items()}):
                key = (stage.index, d)
                if key not in done and (key in balanced or key not in keys) and all(
                    producer_done(p, rel, d, done) for p, rel in stage.producers
                ):
                    done.add(key)
                    grew = True
    all_done = all(
        (needed := depths(stage.index, consensus)) is not None
        and all((stage.index, d) in done for d in needed)
        for stage in plan.stages
    )
    return done, all_done


def _golden_plans():
    from repro.datagen import mini_ldbc

    from .dft_golden_cases import SMALL_QUERIES, ldbc_queries, small_graph

    graph, info = mini_ldbc("s")
    plans = [compile_query(parse(q), graph) for q in ldbc_queries(info).values()]
    small = small_graph()
    plans += [compile_query(parse(q), small) for q in SMALL_QUERIES.values()]
    return plans


GOLDEN_PLANS = _golden_plans()


@st.composite
def snapshot_sets(draw, disagree=False):
    """Counter states of 1-4 machines over one golden plan: units are sent
    by one machine and (mostly) processed by another, max depths (mostly)
    agree — so terminated channels, candidates and near misses all occur.
    With ``disagree`` there are 2-4 machines and each draws its own max
    depth."""
    plan = draw(st.sampled_from(GOLDEN_PLANS))
    trackers = [TerminationTracker(m) for m in range(draw(st.integers(1 + disagree, 4)))]
    machine = st.sampled_from(trackers)
    top = draw(st.integers(0, 3))
    for stage in plan.stages:
        for depth in range(top + 1 if stage.is_rpq_stage else 1):
            for _ in range(draw(st.integers(0, 2))):
                draw(machine).record_sent(stage.index, depth)
                if draw(st.integers(0, 7)):
                    draw(machine).record_processed(stage.index, depth)
    for spec in plan.rpq_specs():
        agreed = draw(st.integers(-1, top))
        for tracker in trackers:
            depth = (
                agreed if not disagree and draw(st.integers(0, 7))
                else draw(st.integers(-1, top))
            )
            if depth >= 0:
                tracker.observe_depth(spec.rpq_id, depth)
    return plan, snapshots(trackers)


class TestEvaluatorEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(snapshot_sets())
    def test_same_verdicts_as_the_reference(self, case):
        plan, snaps = case
        assert TerminationEvaluator(plan).evaluate(snaps) == reference_evaluate(
            plan, snaps
        )

    def test_scripted_check_sequence_forms_and_confirms_on_the_same_calls(self):
        """Machine 0's protocol while a two-machine RPQ runs.  Each entry
        is ``(what happened, check() result, candidate held?, terminated
        channels)`` — recorded from the protocol before its evaluation was
        made cheap, and unchanged by that."""
        plan = rpq_plan()  # S0 -> control S1 (path S2, S3) -> exit S4
        t0, t1 = TerminationTracker(0), TerminationTracker(1)
        protocol = TerminationProtocol(0, plan, 2, t0)
        trace = []

        def step(label, remote=True):
            t0.generation += 1
            t1.generation += 1
            if remote:
                protocol.on_status(t1.snapshot(0))
            trace.append((
                label, protocol.check(), protocol.confirming,
                sorted(protocol.evaluator.evaluate([t0, protocol.views[1]])[0]),
            ))

        assert protocol.check() is False  # no view of machine 1 yet
        t0.record_bootstrap(1)
        step("root in progress")
        t0.record_processed(0, 0)
        t0.record_sent(1, 0)
        t0.observe_depth(0, 0)
        step("batch in flight to machine 1")
        t1.record_processed(1, 0)
        step("balanced, but machine 1 has not seen depth 0")
        t1.observe_depth(0, 0)
        step("consensus: candidate")
        step("no newer remote snapshot", remote=False)
        t1.record_sent(1, 1)
        t1.observe_depth(0, 1)
        step("deeper work shows up: candidate dropped")
        t0.record_processed(1, 1)
        step("balanced at depth 1: new candidate")
        step("newer snapshots, same totals: confirmed")
        step("concluded stays concluded")
        depth0 = [(0, 0), (1, 0), (2, 0), (3, 0)]
        depth1 = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0)]
        assert trace == [
            ("root in progress", False, False, [(4, 0)]),
            ("batch in flight to machine 1", False, False, [(0, 0)]),
            ("balanced, but machine 1 has not seen depth 0", False, False, depth0),
            ("consensus: candidate", False, True, depth0 + [(4, 0)]),
            ("no newer remote snapshot", False, True, depth0 + [(4, 0)]),
            ("deeper work shows up: candidate dropped", False, False, depth0),
            ("balanced at depth 1: new candidate", False, True, depth1),
            ("newer snapshots, same totals: confirmed", True, True, depth1),
            ("concluded stays concluded", True, True, depth1),
        ]


# ---------------------------------------------------------------------------
# The fixpoint evaluator the one-pass order replaced, kept as a reference,
# and the memo of the last evaluation.
# ---------------------------------------------------------------------------

_RELATIONS = ("same", "zero", "plus_one", "any")


def fixpoint_evaluate(plan, snaps):
    """Pass over the blocked channels until a pass terminates none."""
    segment = {}
    for stage in plan.stages:
        if stage.rpq is not None:
            for index in (stage.index, *stage.rpq.path_stages):
                segment[index] = stage.rpq.rpq_id
    stages = [
        (stage.index, segment.get(stage.index), [
            (producer, _RELATIONS.index(rel), segment.get(producer))
            for producer, rel in stage.producers
        ])
        for stage in plan.stages
    ]
    sent, processed = counter_totals(snaps)
    consensus, known = {}, {}
    for spec in plan.rpq_specs():
        depths = [snap.max_depths.get(spec.rpq_id, -1) for snap in snaps]
        known[spec.rpq_id] = top = max(depths)
        if min(depths) == top:
            consensus[spec.rpq_id] = top
    waiting = []
    for index, rpq_id, producers in stages:
        for d in range(known[rpq_id] + 1) if rpq_id is not None else (0,):
            key = (index, d)
            if sent.get(key, 0) == processed.get(key, 0):
                waiting.append((key, d, producers))
    terminated = set()
    changed = True
    while changed and waiting:
        changed = False
        blocked = []
        for item in waiting:
            key, d, producers = item
            for producer, rel, seg in producers:
                if rel == 0:
                    ok = (producer, 0 if seg is None else d) in terminated
                elif rel == 1:
                    ok = d != 0 or (producer, 0) in terminated
                elif rel == 2:
                    ok = d == 0 or (producer, d - 1) in terminated
                else:
                    top = consensus.get(seg)
                    ok = top is not None and all(
                        (producer, dd) in terminated for dd in range(top + 1)
                    )
                if not ok:
                    blocked.append(item)
                    break
            else:
                terminated.add(key)
                changed = True
        waiting = blocked
    for index, rpq_id, _producers in stages:
        if rpq_id is None:
            depths = (0,)
        elif rpq_id in consensus:
            depths = range(consensus[rpq_id] + 1)
        else:
            return terminated, False
        if any((index, d) not in terminated for d in depths):
            return terminated, False
    return terminated, True


class TestOnePassEvaluator:
    def test_golden_plans_cover_every_quantifier_shape(self):
        specs = [spec for plan in GOLDEN_PLANS for spec in plan.rpq_specs()]
        assert any(spec.min_hops == 0 for spec in specs)  # zero-hop ``*``
        assert any(spec.max_hops is None and spec.min_hops == 1 for spec in specs)  # ``+``
        assert any(spec.max_hops is not None and spec.min_hops > 1 for spec in specs)  # ``{n,m}``
        assert any(len(plan.rpq_specs()) > 1 for plan in GOLDEN_PLANS)

    @settings(max_examples=400, deadline=None)
    @given(snapshot_sets())
    def test_same_verdicts_as_the_fixpoint(self, case):
        plan, snaps = case
        assert TerminationEvaluator(plan).evaluate(snaps) == fixpoint_evaluate(plan, snaps)

    @settings(max_examples=300, deadline=None)
    @given(snapshot_sets(disagree=True))
    def test_same_verdicts_as_the_fixpoint_when_max_depths_disagree(self, case):
        plan, snaps = case
        assert TerminationEvaluator(plan).evaluate(snaps) == fixpoint_evaluate(plan, snaps)


class _Recorder:
    """The sanitizer hooks the protocol calls, recorded."""

    def __init__(self):
        self.snapshots = 0

    def on_snapshot(self, machine_id, sent, processed):
        self.snapshots += 1

    def on_candidate(self, machine_id, gen_vector):
        pass

    def on_conclude(self, machine_id, gen_vector):
        pass


class TestEvaluationMemo:
    def _protocol(self, monkeypatch):
        plan = rpq_plan()
        t0, t1 = TerminationTracker(0), TerminationTracker(1)
        t0.record_bootstrap(1)
        t0.record_processed(0, 0)
        t0.record_sent(1, 0)  # in flight: nothing downstream terminates yet
        t0.observe_depth(0, 0)
        t1.observe_depth(0, 0)
        recorder = _Recorder()
        protocol = TerminationProtocol(0, plan, 2, t0, sanitizer=recorder)
        protocol.on_status(t1.snapshot(0))
        # Every evaluation that is not a memo hit sums the counters first.
        calls = []
        counter_totals = termination.counter_totals
        monkeypatch.setattr(
            termination, "counter_totals",
            lambda snaps: calls.append(1) or counter_totals(snaps),
        )
        return plan, protocol, t0, t1, recorder, calls

    def test_unchanged_inputs_skip_the_evaluation_not_the_sanitizer(self, monkeypatch):
        _plan, protocol, t0, _t1, recorder, calls = self._protocol(monkeypatch)
        assert protocol.check() is False
        assert protocol.check() is False
        assert len(calls) == 1  # the second check reused the first result
        assert recorder.snapshots == 2  # ... and still showed the sanitizer its counters
        t0.observe_depth(0, 1)  # only a max depth moved: evaluate again
        protocol.check()
        assert len(calls) == 2
        t0.record_processed(1, 0)  # the counters moved: evaluate again
        protocol.check()
        assert len(calls) == 3

    def test_a_memo_hit_reports_what_a_fresh_evaluation_would(self, monkeypatch):
        plan, protocol, t0, t1, _recorder, calls = self._protocol(monkeypatch)
        protocol.check()
        t0.generation += 1  # a newer snapshot with the same counters
        t1.generation += 1
        protocol.on_status(t1.snapshot(0))
        protocol.check()
        assert len(calls) == 1
        _terminated, done = TerminationEvaluator(plan).evaluate([t0, protocol.views[1]])
        assert protocol.confirming == done

    def test_restore_state_drops_the_memo(self, monkeypatch):
        _plan, protocol, _t0, _t1, _recorder, calls = self._protocol(monkeypatch)
        state = protocol.checkpoint_state()
        protocol.check()
        protocol.restore_state(state)
        assert protocol._memo is None
        protocol.check()
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# A planted defect: a protocol that concludes on its first all-done
# evaluation.  The STATUS rule drives both through a stale-snapshot race.
# ---------------------------------------------------------------------------


class _ConcludesOnFirstEvaluation(TerminationProtocol):
    """No confirmation: the first candidate is taken as the conclusion."""

    def _set_candidate(self, gen_vector, signature):
        super()._set_candidate(gen_vector, signature)
        self._conclude(gen_vector)


def _stale_snapshot_race(protocol_cls):
    """Machine 0 of three under the STATUS rule while unit ``x`` (stage 1,
    machine 0 -> machine 2) is in flight.  Machine 1's snapshot counts a
    unit ``y`` processed whose send (by machine 2) machine 2's older
    snapshot does not count yet, so the totals balance by accident.
    Returns ``(step, units in flight)`` at the step machine 0 concluded."""
    plan = two_stage_plan()
    t0, t1, t2 = (TerminationTracker(m) for m in range(3))
    protocol = protocol_cls(0, plan, 3, t0)
    t0.record_bootstrap(1)
    t0.record_sent(1, 0)  # x, to machine 2
    t0.record_processed(0, 0)
    t1.record_processed(1, 0)  # y, sent by machine 2 after its snapshot
    stale = t2.snapshot()  # machine 2 has sent y and received x since
    steps = [
        ("stale views balance by accident", 1, [t1.snapshot(), stale]),
        ("machine 2 sent y and processed x", 0, None),
        ("nothing moved since", 0, None),
    ]
    for now, (step, in_flight, views) in enumerate(steps):
        if views is None:
            if now == 1:
                t2.record_sent(1, 0)
                t2.record_processed(1, 0)
            for tracker in (t1, t2):
                tracker.generation += 1
            views = [t1.snapshot(), t2.snapshot()]
        for view in views:
            protocol.on_status(view)
        if protocol.idle_round(now, 3):
            t0.generation += 1
        if protocol.concluded:
            return step, in_flight
    return None, 0


class TestPlantedDefect:
    def test_a_protocol_without_confirmation_concludes_with_a_unit_in_flight(self):
        assert _stale_snapshot_race(_ConcludesOnFirstEvaluation) == (
            "stale views balance by accident", 1
        )

    def test_the_protocol_concludes_once_nothing_is_in_flight(self):
        assert _stale_snapshot_race(TerminationProtocol) == ("nothing moved since", 0)

    def test_an_unbalanced_sum_skips_the_evaluation(self, monkeypatch):
        calls = []
        evaluate = TerminationEvaluator.evaluate
        monkeypatch.setattr(
            TerminationEvaluator, "evaluate",
            lambda self, snaps, totals=None: calls.append(1) or evaluate(self, snaps, totals),
        )
        t0, t1 = TerminationTracker(0), TerminationTracker(1)
        protocol = TerminationProtocol(0, two_stage_plan(), 2, t0)
        t0.record_bootstrap(1)
        protocol.on_status(t1.snapshot())
        assert protocol.check() is False and calls == []
        t0.record_processed(0, 0)
        assert protocol.check() is False and calls == [1]  # balanced: a candidate
        assert protocol.confirming


class TestStatusRule:
    """:meth:`TerminationProtocol.idle_round` on one machine."""

    def _protocol(self):
        t0 = TerminationTracker(0)
        return t0, TerminationProtocol(0, two_stage_plan(), 2, t0)

    def test_nothing_counted_waits_a_round_trip_and_a_move_broadcasts_at_once(self):
        t0, protocol = self._protocol()
        assert not protocol.idle_round(0, 3)  # the clock starts
        assert not protocol.idle_round(2, 3)
        assert protocol.idle_round(3, 3)  # (c)
        t0.record_bootstrap(1)
        assert protocol.idle_round(4, 3)  # (a)
        assert not protocol.idle_round(5, 3)

    def test_a_round_trip_after_a_broadcast_broadcasts_again(self):
        t0, protocol = self._protocol()
        t0.record_bootstrap(1)
        assert protocol.idle_round(0, 3)
        assert not protocol.idle_round(2, 3)
        assert protocol.idle_round(3, 3)

    def test_only_a_candidate_answers_what_it_heard(self):
        _t0, protocol = self._protocol()
        t1 = TerminationTracker(1)
        t1.record_bootstrap(1)  # machine 1 has a root to run: no candidate
        assert not protocol.idle_round(0, 3)
        protocol.on_status(t1.snapshot())
        assert not protocol.idle_round(1, 3)
        assert not protocol.confirming
        t1.record_processed(0, 0)
        t1.generation += 1
        protocol.on_status(t1.snapshot())
        assert protocol.idle_round(2, 3)  # (b): a candidate heard
        assert protocol.confirming
        assert not protocol.idle_round(3, 3)  # nothing heard since
