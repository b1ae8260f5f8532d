"""Chaos under concurrency: faults, ARQ, and recovery on the shared cluster.

The tentpole invariant: every admitted query's result set must be
bit-identical to its fault-free *solo* run, at concurrency >= 4, under
seeded fault plans injected on the shared interconnect — including
permanent machine crashes, which may roll back only the queries that
actually lost state (bounded blast radius).
"""

import pytest

from repro import EngineConfig, connect
from repro.errors import QueryCancelledError
from repro.faults import FaultPlan, MachineCrash
from repro.graph.generators import random_graph
from repro.sweep import Variant, run_sweep

QUERIES = [
    "SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)",
    "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b)",
    "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)",
    "SELECT COUNT(*) FROM MATCH (a)-/:LINK{2,4}/->(b)",
]

CONFIG = EngineConfig(
    num_machines=4, buffers_per_machine=2048, sanitize=True,
    max_concurrent_queries=4,
)


def _graph(seed=11):
    return random_graph(50, 150, seed=seed)


def _rows(result):
    return sorted(tuple(row) for row in result.rows)


def _solo_baselines(graph, queries):
    solo = connect(graph, CONFIG.with_(reliable_transport=True))
    return [_rows(solo.execute(q)) for q in queries]


def concurrent_chaos_sweep(graph, plans, config=CONFIG):
    """``QUERIES`` submitted together at concurrency 4 under each plan,
    each checked against its fault-free *solo* baseline."""
    return run_sweep(
        graph,
        QUERIES,
        [Variant(plan.seed, {"faults": plan}, concurrency=4) for plan in plans],
        config=config,
        baseline_overrides={"faults": None, "reliable_transport": True},
    )


def _recoveries(run):
    return sum(r.stats.recovery["recoveries"] for r in run.results)


class TestConcurrentChaosInvariance:
    def test_drop_dup_reorder_bit_identical_at_concurrency_4(self):
        plans = [
            FaultPlan(
                seed=seed, drop_prob=0.05, dup_prob=0.05,
                reorder_prob=0.10, reorder_window=3,
            )
            for seed in (1, 2)
        ]
        report = concurrent_chaos_sweep(_graph(), plans)
        assert report.ok, report.mismatches
        assert [run.label for run in report.runs] == [1, 2]
        for run in report.runs:
            assert sum(run.fault_counts.values()) > 0  # the chaos fired
            assert run.cluster_rounds > 0
            assert all(r.complete for r in run.results)

    def test_every_query_reports_the_shared_fault_counts(self):
        """``fault_events`` is the shared injector's count as of each
        query's finish: never empty under a plan that fires, and the last
        query to finish has seen every fault."""
        plan = FaultPlan(seed=1, drop_prob=0.05, dup_prob=0.05)
        session = connect(_graph(), CONFIG.with_(faults=plan))
        handles = [session.submit(q) for q in QUERIES]
        finished = session._scheduler.run()
        counts = [h.result().stats.fault_events for h in handles]
        assert all(counts)
        assert all(sum(c.values()) > 0 for c in counts)
        assert finished[-1].stats.fault_events == dict(
            session._scheduler.chaos.injector.counts
        )
        assert "fault_events" in handles[0].result().stats.summary()

    def test_two_sequential_permanent_crashes(self):
        plan = FaultPlan(
            seed=9,
            crashes=(
                MachineCrash(machine=2, round=4),
                MachineCrash(machine=3, round=9),
            ),
        )
        report = concurrent_chaos_sweep(
            _graph(), [plan], CONFIG.with_(recovery=True)
        )
        assert report.ok, report.mismatches
        (run,) = report.runs
        assert len(run.blast_radius) == 2
        assert [entry["dead"] for entry in run.blast_radius] == [[2], [3]]
        assert _recoveries(run) > 0

    def test_crash_racing_a_conclude(self):
        """A permanent crash landing right at a query's solo conclude round
        must still replay to the exact baseline for every co-resident."""
        graph = _graph()
        solo = connect(graph, CONFIG.with_(reliable_transport=True))
        clean = solo.execute(QUERIES[2])
        crash_round = max(1, int(clean.stats.virtual_time))
        plan = FaultPlan(
            seed=13, crashes=(MachineCrash(machine=1, round=crash_round),)
        )
        report = concurrent_chaos_sweep(
            graph, [plan], CONFIG.with_(recovery=True)
        )
        assert report.ok, report.mismatches


class TestBlastRadiusIsolation:
    def test_crash_rolls_back_only_the_active_queries(self):
        """Nine queries through a 3-wide scheduler; machine 2 dies while the
        first three are active.  All three recover; the six admitted later
        run on the failed-over host map without ever rolling back."""
        graph = _graph()
        nine = (QUERIES[1:] * 3)[:9]
        baselines = _solo_baselines(graph, nine)
        plan = FaultPlan(seed=5, crashes=(MachineCrash(machine=2, round=4),))
        session = connect(
            graph,
            CONFIG.with_(
                max_concurrent_queries=3, recovery=True, faults=plan
            ),
        )
        handles = [session.submit(q) for q in nine]
        session.drain()
        first_ids = sorted(h.query_id for h in handles[:3])
        for handle, baseline in zip(handles, baselines):
            result = handle.result()
            assert result.complete
            assert _rows(result) == baseline
        recoveries = [
            (h.result().stats.recovery or {}).get("recoveries", 0)
            for h in handles
        ]
        assert all(n >= 1 for n in recoveries[:3]), recoveries
        assert all(n == 0 for n in recoveries[3:]), recoveries
        blast = session.cluster_blast_radius
        assert len(blast) == 1
        assert blast[0]["dead"] == [2]
        assert sorted(blast[0]["rolled_back"]) == first_ids

    def test_cancel_mid_chaos_releases_without_perturbing_others(self):
        graph = _graph()
        baselines = _solo_baselines(graph, QUERIES)
        plan = FaultPlan(
            seed=5, drop_prob=0.05, dup_prob=0.05,
            crashes=(MachineCrash(machine=1, round=6),),
        )
        session = connect(graph, CONFIG.with_(recovery=True, faults=plan))
        handles = [session.submit(q) for q in QUERIES]
        # A few rounds so every query holds live ARQ + checkpoint state.
        for _ in range(3):
            session._scheduler.step()
        victim = handles[1]
        recovery = session._scheduler.chaos.recovery
        manager = recovery[victim._task]
        assert len(manager.store) > 0
        assert victim.cancel()
        assert len(manager.store) == 0  # checkpoints released
        assert victim._task not in recovery
        session.drain()
        with pytest.raises(QueryCancelledError):
            victim.result()
        for index, handle in enumerate(handles):
            if handle is victim:
                continue
            result = handle.result()
            assert result.complete
            assert _rows(result) == baselines[index]

    def test_deadline_expiry_mid_chaos_spares_the_others(self):
        graph = _graph()
        baselines = _solo_baselines(graph, QUERIES)
        plan = FaultPlan(seed=5, drop_prob=0.05, dup_prob=0.05)
        session = connect(graph, CONFIG.with_(recovery=True, faults=plan))
        doomed = session.submit(QUERIES[1], config=session.config.with_(deadline=2))
        manager = session._scheduler.chaos.recovery[doomed._task]
        rest = [session.submit(q) for q in QUERIES]
        session.drain()
        assert doomed.result().timed_out
        assert len(manager.store) == 0  # resources released
        for handle, baseline in zip(rest, baselines):
            result = handle.result()
            assert result.complete
            assert _rows(result) == baseline
