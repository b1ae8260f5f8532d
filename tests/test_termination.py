"""Tests for the incremental termination protocol (paper Section 3.4)."""

import pytest

from repro import EngineConfig, Session
from repro.graph import GraphBuilder
from repro.graph.generators import chain_graph, random_graph
from repro.pgql import parse
from repro.plan import compile_query
from repro.runtime.termination import (
    TerminationEvaluator,
    TerminationProtocol,
    TerminationTracker,
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
        )
        task.channel.extra_delay_fn = (
            lambda m: 7 if isinstance(m, StatusMessage) and m.seq % 3 == 0 else 0
        )
        stats = run(cluster, task)
        assert stats.outputs == 66  # 45 pairs... depends; see below

    def test_duplicated_status_messages_are_harmless(self):
        from repro.runtime.message import StatusMessage

        cluster, task, _sinks, _plan = make_execution(
            chain_graph(12),
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)",
            EngineConfig(num_machines=3),
        )
        task.channel.duplicate_fn = lambda m: isinstance(m, StatusMessage)
        stats = run(cluster, task)
        assert stats.outputs == 66
