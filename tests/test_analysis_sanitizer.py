"""Tests for the runtime protocol sanitizer (repro.analysis.sanitizer).

Covers each invariant family with (a) a clean run that must not trip it
and (b) a seeded violation it must catch: flow-control credit
conservation, termination counter monotonicity and stale-snapshot
confirmation, and reachability-index depth monotonicity.
"""

import heapq

import pytest

from repro import EngineConfig, GraphBuilder, Session
from repro.analysis.sanitizer import (
    RuntimeSanitizer,
    sanitizer_enabled,
    sanitizer_from_config,
)
from repro.errors import SanitizerViolation
from repro.graph.generators import random_graph
from repro.pgql import parse
from repro.plan import compile_query
from repro.rpq.reachability import IndexOutcome, ReachabilityIndex
from repro.runtime.buffers import FlowControl
from repro.runtime.machine import Machine
from repro.runtime.stats import MachineStats
from repro.runtime.termination import TerminationProtocol, TerminationTracker

from .onetask import make_execution, run


@pytest.fixture(scope="module")
def graph():
    return random_graph(120, 360, seed=5, edge_label="E")


@pytest.fixture(scope="module")
def rpq_plan():
    b = GraphBuilder()
    for i in range(4):
        b.add_vertex("N", idx=i)
    b.add_edge(0, 1, "E")
    g = b.build()
    return compile_query(parse("SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)"), g)


CONFIG = EngineConfig(num_machines=4, buffers_per_machine=2048)


def acquire_one(flow):
    """Acquire a credit from the first configured non-path bucket."""
    dst, stage_idx, _ = next(k for k in flow._capacity if k[2] == 0)
    key = flow.try_acquire(dst, stage_idx, 0, False)
    assert key is not None
    return key


class TestGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitizer_from_config(EngineConfig()) is None

    def test_config_flag(self):
        assert sanitizer_from_config(EngineConfig(sanitize=True)) is not None

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitizer_enabled(EngineConfig())
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitizer_enabled(EngineConfig())

    def test_components_skip_hooks_when_disabled(self, rpq_plan):
        flow = FlowControl(0, rpq_plan, CONFIG, MachineStats(), sanitizer=None)
        flow.release(acquire_one(flow))
        assert flow.in_flight == 0


class TestFlowControlInvariants:
    def make(self, plan):
        san = RuntimeSanitizer()
        flow = FlowControl(0, plan, CONFIG, MachineStats(), sanitizer=san)
        return flow, san

    def test_clean_acquire_release_cycle(self, rpq_plan):
        flow, san = self.make(rpq_plan)
        flow.release(acquire_one(flow))
        san.on_query_end([flow])
        assert san.checks > 0

    def test_total_bucket_mismatch_caught(self, rpq_plan):
        flow, san = self.make(rpq_plan)
        key = acquire_one(flow)
        flow._total_in_flight += 1  # seeded drift
        with pytest.raises(SanitizerViolation, match="sum of buckets"):
            flow.release(key)

    def test_bucket_over_capacity_caught(self, rpq_plan):
        flow, san = self.make(rpq_plan)
        key = acquire_one(flow)
        # Seed a violation: force the bucket beyond its configured capacity,
        # keeping the total consistent so only the capacity check can fire.
        capacity = flow._capacity[key]
        flow._in_flight[key] = capacity + 5
        flow._total_in_flight = capacity + 5
        with pytest.raises(SanitizerViolation, match="capacity"):
            san.on_credit_acquired(flow, key, capacity)

    def test_unreturned_credit_caught_at_query_end(self, rpq_plan):
        flow, san = self.make(rpq_plan)
        acquire_one(flow)  # never released
        with pytest.raises(SanitizerViolation, match="credits returned"):
            san.on_query_end([flow])


class TestTerminationInvariants:
    def test_snapshot_monotone_clean(self):
        san = RuntimeSanitizer()
        tracker = TerminationTracker(0, sanitizer=san)
        tracker.record_sent(1, 0)
        tracker.snapshot(1)
        tracker.record_sent(1, 0)
        tracker.record_processed(1, 0)
        tracker.snapshot(1)  # strictly growing counters: fine

    def test_counter_regression_caught(self):
        san = RuntimeSanitizer()
        tracker = TerminationTracker(0, sanitizer=san)
        tracker.record_sent(1, 0)
        tracker.record_sent(1, 0)
        tracker.snapshot(1)
        tracker.sent[(1, 0)] = 1  # seeded drift: counter moved backwards
        with pytest.raises(SanitizerViolation, match="monotone"):
            tracker.snapshot(1)

    def test_processed_exceeding_sent_caught(self):
        san = RuntimeSanitizer()
        t0 = TerminationTracker(0)
        t1 = TerminationTracker(1)
        t0.record_sent(1, 0)
        t1.record_processed(1, 0)
        san.check_global_counts([t0, t1])  # 1 == 1: fine
        t1.record_processed(1, 0)  # seeded violation: processing outran creation
        with pytest.raises(SanitizerViolation, match="processed <= sent"):
            san.check_global_counts([t0, t1])

    def test_final_counts_must_balance(self):
        san = RuntimeSanitizer()
        t0 = TerminationTracker(0)
        t0.record_sent(1, 0)
        with pytest.raises(SanitizerViolation, match="sent == processed"):
            san.check_final_counts([t0])


def _two_machine_protocol(plan, sanitizer=None, protocol_cls=TerminationProtocol):
    tracker = TerminationTracker(0, sanitizer=sanitizer)
    protocol = protocol_cls(0, plan, 2, tracker, sanitizer=sanitizer)
    return tracker, protocol


def _remote_status(remote_tracker, generation):
    remote_tracker.generation = generation
    return remote_tracker.snapshot(0)


class TestConfirmationRace:
    """Satellite: the stale-snapshot confirmation race (paper Section 3.4).

    A machine that evaluates "everything terminated" holds a candidate and
    may conclude only once a second evaluation succeeds with strictly
    newer snapshots from every machine.  A stale snapshot arriving before
    the second evaluation must not confirm — and a protocol patched to
    skip the newness check must be caught by the sanitizer.
    """

    def make_quiescent_pair(self, plan, sanitizer=None,
                            protocol_cls=TerminationProtocol):
        # Machine 1 did one unit of stage-0 work; machine 0 none.
        remote = TerminationTracker(1)
        remote.record_bootstrap(1)
        remote.record_processed(0, 0)
        tracker, protocol = _two_machine_protocol(
            plan, sanitizer=sanitizer, protocol_cls=protocol_cls
        )
        return tracker, protocol, remote

    def test_candidate_not_confirmed_by_stale_snapshot(self, rpq_plan):
        tracker, protocol, remote = self.make_quiescent_pair(rpq_plan)
        protocol.on_status(_remote_status(remote, generation=1))
        assert protocol.check() is False  # first success: candidate only
        assert protocol._candidate is not None
        # The same (stale) generation arrives again before the second
        # evaluation: the conclusion must be withheld.
        protocol.on_status(_remote_status(remote, generation=1))
        assert protocol.check() is False
        assert not protocol.concluded
        # A strictly newer snapshot with identical totals confirms.
        protocol.on_status(_remote_status(remote, generation=2))
        tracker.generation += 1
        assert protocol.check() is True

    def test_candidate_discarded_when_counts_move(self, rpq_plan):
        tracker, protocol, remote = self.make_quiescent_pair(rpq_plan)
        protocol.on_status(_remote_status(remote, generation=1))
        assert protocol.check() is False
        # New work appears between the evaluations: counts differ, so the
        # candidate must be replaced, not confirmed.
        remote.record_bootstrap(1)
        protocol.on_status(_remote_status(remote, generation=2))
        tracker.generation += 1
        assert protocol.check() is False
        assert not protocol.concluded

    def test_sanitizer_catches_stale_confirmation(self, rpq_plan):
        class BrokenProtocol(TerminationProtocol):
            """Seeded bug: treats any snapshot set as strictly newer."""

            @staticmethod
            def _strictly_newer(gen_vector, old_gens):
                return True

        san = RuntimeSanitizer()
        tracker, protocol, remote = self.make_quiescent_pair(
            rpq_plan, sanitizer=san, protocol_cls=BrokenProtocol
        )
        protocol.on_status(_remote_status(remote, generation=1))
        assert protocol.check() is False
        protocol.on_status(_remote_status(remote, generation=1))  # stale
        with pytest.raises(SanitizerViolation, match="strictly newer"):
            protocol.check()
        assert not protocol.concluded

    def test_sanitizer_requires_a_candidate(self):
        san = RuntimeSanitizer()
        with pytest.raises(SanitizerViolation, match="prior candidate"):
            san.on_conclude(0, ((0, 1), (1, 1)))


class TestReachabilityInvariants:
    def test_duplicated_overwrite_is_clean(self):
        san = RuntimeSanitizer()
        index = ReachabilityIndex(0, 0, sanitizer=san)
        assert index.check_and_update(7, 3, depth=4) is IndexOutcome.INSERTED
        assert index.check_and_update(7, 3, depth=2) is IndexOutcome.DUPLICATED
        assert index.depth_of(7, 3) == 2

    def test_non_decreasing_overwrite_caught(self):
        san = RuntimeSanitizer()
        index = ReachabilityIndex(0, 0, sanitizer=san)
        index.check_and_update(7, 3, depth=2)
        with pytest.raises(SanitizerViolation, match="strictly decreases"):
            san.on_index_overwrite(index, 7, 3, old=2, new=2)

    def test_broken_index_subclass_caught(self):
        class BrokenIndex(ReachabilityIndex):
            """Seeded bug: overwrites on *greater-or-equal* depth."""

            def check_and_update(self, source_path_id, dst_vertex, depth):
                second = self._first_level.setdefault(dst_vertex, {})
                old = second.get(source_path_id)
                if old is None:
                    second[source_path_id] = depth
                    return IndexOutcome.INSERTED
                if self._san is not None:
                    self._san.on_index_overwrite(
                        self, source_path_id, dst_vertex, old, depth
                    )
                second[source_path_id] = depth
                return IndexOutcome.DUPLICATED

        index = BrokenIndex(0, 0, sanitizer=RuntimeSanitizer())
        index.check_and_update(7, 3, depth=2)
        with pytest.raises(SanitizerViolation, match="strictly decreases"):
            index.check_and_update(7, 3, depth=5)


class TestEndToEnd:
    def run_query(self, graph, query, config):
        cluster, task, _sinks, _plan = make_execution(graph, query, config)
        return task, run(cluster, task)

    def test_tier1_workload_clean_under_sanitizer(self, graph):
        config = CONFIG.with_(sanitize=True)
        for query in (
            "SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)",
            "SELECT COUNT(*) FROM MATCH (a)-/:E{1,3}/->(b)",
            "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)",
        ):
            task, _stats = self.run_query(graph, query, config)
            assert task.sanitizer is not None
            assert task.sanitizer.checks > 0

    def test_sanitized_result_matches_unsanitized(self, graph):
        query = "SELECT COUNT(*) FROM MATCH (a)-/:E{1,4}/->(b)"
        plain = Session(graph, CONFIG).execute(query).scalar()
        sanitized = (
            Session(graph, CONFIG.with_(sanitize=True)).execute(query).scalar()
        )
        assert plain == sanitized

    def test_broken_done_protocol_caught(self, graph, monkeypatch):
        """A deliberately broken credit release trips credit conservation."""

        def broken_pop_batch(self):
            batch = heapq.heappop(self.inbox)[1]  # absorb without DONE
            self._absorbed += 1
            return batch

        monkeypatch.setattr(Machine, "pop_batch", broken_pop_batch)
        engine = Session(graph, CONFIG.with_(sanitize=True))
        with pytest.raises(SanitizerViolation):
            engine.execute("SELECT COUNT(*) FROM MATCH (a)-/:E{1,3}/->(b)")
