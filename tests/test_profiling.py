"""Coverage for the wall-clock phase profiler (repro.obs.prof), its engine
wiring, planner estimates, and EXPLAIN ANALYZE reconciliation."""

import pytest

from repro import EngineConfig, connect
from repro.graph.generators import chain_graph, random_graph
from repro.obs.prof import (
    PhaseProfiler,
    format_profile,
    peak_rss_bytes,
    profiled,
)


class TestPhaseProfiler:
    def test_aggregates_calls_and_extrema(self):
        prof = PhaseProfiler()
        for _ in range(3):
            prof.enter("a")
            prof.exit()
        summary = prof.summary()
        assert summary["a"]["calls"] == 3
        assert summary["a"]["total_s"] >= summary["a"]["max_s"]
        assert 0 <= summary["a"]["min_s"] <= summary["a"]["max_s"]

    def test_nesting_attributes_self_time(self):
        prof = PhaseProfiler()
        prof.enter("outer")
        prof.enter("inner")
        prof.exit()
        prof.exit()
        summary = prof.summary()
        outer, inner = summary["outer"], summary["inner"]
        # The child's elapsed time is subtracted from the parent's self
        # time; totals remain inclusive.
        assert outer["total_s"] >= inner["total_s"]
        assert outer["self_s"] <= outer["total_s"] - inner["total_s"] + 1e-9
        assert inner["self_s"] == pytest.approx(inner["total_s"])

    def test_unwind_closes_open_phases(self):
        prof = PhaseProfiler()
        prof.enter("a")
        prof.enter("b")
        assert prof.depth == 2
        prof.unwind()
        assert prof.depth == 0
        assert prof.summary()["a"]["calls"] == 1

    def test_summary_sorted_by_total_descending(self):
        prof = PhaseProfiler()
        prof.enter("slow")
        for _ in range(50_000):
            pass
        prof.exit()
        prof.enter("fast")
        prof.exit()
        assert list(prof.summary()) == ["slow", "fast"]

    def test_format_profile_renders_every_phase(self):
        prof = PhaseProfiler()
        prof.enter("x")
        prof.exit()
        text = format_profile(prof.summary())
        assert "x" in text
        assert "calls" in text


class TestProfiledDecorator:
    class Thing:
        def __init__(self, prof):
            self.prof = prof

        @profiled("thing.work")
        def work(self):
            return 42

    def test_records_when_profiler_attached(self):
        prof = PhaseProfiler()
        assert self.Thing(prof).work() == 42
        assert prof.summary()["thing.work"]["calls"] == 1

    def test_direct_call_when_absent(self):
        assert self.Thing(None).work() == 42

    def test_exception_still_exits_phase(self):
        prof = PhaseProfiler()

        class Boom:
            def __init__(self):
                self.prof = prof

            @profiled("boom")
            def go(self):
                raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            Boom().go()
        assert prof.depth == 0
        assert prof.summary()["boom"]["calls"] == 1


class TestPeakRss:
    def test_positive_or_unsupported(self):
        rss = peak_rss_bytes()
        assert rss is None or (isinstance(rss, int) and rss > 0)


RPQ_QUERY = "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"


class TestEngineWiring:
    def test_disabled_profile_leaves_stats_bare(self):
        session = connect(chain_graph(10), num_machines=2)
        result = session.execute(RPQ_QUERY)
        assert result.profile is None
        assert result.stats.profile is None

    def test_profile_does_not_change_results(self):
        g = random_graph(30, 80, seed=4)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)"
        plain = connect(g, num_machines=3).execute(q)
        prof = connect(
            g, EngineConfig(num_machines=3, profile=True)
        ).execute(q)
        assert prof.rows == plain.rows
        assert prof.virtual_time == plain.virtual_time
        assert prof.stats.batches_sent == plain.stats.batches_sent

    def test_expected_phases_recorded(self):
        # A chain is a forest: pin the paper's index so it is probed.
        session = connect(
            chain_graph(12),
            EngineConfig(num_machines=2, profile=True, use_reachability_index=True),
        )
        result = session.execute(RPQ_QUERY)
        phases = set(result.profile)
        assert {"worker.dft", "sched.compute", "sched.deliver",
                "net.deliver", "index.probe"} <= phases

    def test_per_run_profile_override(self):
        session = connect(chain_graph(8), num_machines=2)
        result = session.execute(RPQ_QUERY, config=session.config.with_(profile=True))
        assert result.profile
        assert session.execute(RPQ_QUERY).profile is None

    def test_wall_seconds_property(self):
        session = connect(chain_graph(8), num_machines=2)
        result = session.execute(RPQ_QUERY)
        assert result.wall_seconds == result.stats.wall_seconds
        assert result.wall_seconds >= 0

    def test_concurrent_submit_shares_cluster_profiler(self):
        session = connect(
            chain_graph(12),
            EngineConfig(num_machines=2, profile=True),
            max_concurrent_queries=2,
        )
        h1 = session.submit(RPQ_QUERY)
        h2 = session.submit("SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)")
        session.drain()
        assert h1.result().profile
        assert "worker.dft" in h2.result().profile


class TestEstimates:
    def test_compiled_plans_carry_estimates(self):
        session = connect(chain_graph(10), num_machines=2)
        result = session.execute(RPQ_QUERY)
        estimated = [s.estimated_matches for s in result.plan.stages]
        assert all(e is not None for e in estimated)
        assert all(e >= 0 for e in estimated)

    def test_bootstrap_estimate_matches_vertex_count(self):
        session = connect(chain_graph(10), num_machines=2)
        result = session.execute(RPQ_QUERY)
        # Unfiltered, unlabelled stage 0 matches every vertex exactly.
        assert result.plan.stages[0].estimated_matches == pytest.approx(10)

    def test_filter_selectivity_recorded(self):
        session = connect(chain_graph(10), num_machines=2)
        result = session.execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b) WHERE a.idx = 3"
        )
        assert result.plan.stages[0].filter_selectivity < 1.0


class TestExplainAnalyzeReconciliation:
    def test_estimates_and_actuals_side_by_side(self):
        session = connect(
            chain_graph(10), EngineConfig(num_machines=2, profile=True)
        )
        result = session.execute(RPQ_QUERY)
        text = result.explain_analyze()
        assert "est~" in text
        assert "act=" in text
        assert " q=" in text and "estimates: worst q=" in text
        assert "virtual rounds" in text
        assert "profile (wall-clock phases)" in text
        assert "worker.dft" in text

    def test_unprofiled_analyze_omits_phase_table(self):
        session = connect(chain_graph(10), num_machines=2)
        text = session.execute(RPQ_QUERY).explain_analyze()
        assert "act=" in text
        assert "profile (wall-clock phases)" not in text
