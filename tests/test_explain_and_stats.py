"""Coverage for EXPLAIN rendering and RunStats aggregation."""

import pytest

from repro import EngineConfig, GraphBuilder, Session
from repro.config import EngineConfig as Config
from repro.graph.generators import chain_graph, random_graph, two_label_graph
from repro.plan import explain
from repro.runtime.stats import MachineStats, RunStats


@pytest.fixture(scope="module")
def engine():
    return Session(two_label_graph(20, seed=2), EngineConfig(num_machines=2))


class TestExplain:
    def test_mentions_every_stage_kind(self, engine):
        text = engine.explain(
            "SELECT COUNT(*) FROM MATCH (a:A)-[:X]->(b:B)-/:Y{1,2}/->(c), "
            "MATCH (b)-[:X]->(d), MATCH (a)-[:Y]->(c)"
        )
        assert "vertex" in text
        assert "rpq_control" in text
        assert "path" in text
        assert "noop" in text

    def test_mentions_every_hop_kind(self, engine):
        text = engine.explain(
            "SELECT COUNT(*) FROM MATCH (a:A)-[:X]->(b:B)-/:Y{1,2}/->(c), "
            "MATCH (b)-[:X]->(d), MATCH (a)-[:Y]->(c)"
        )
        for hop in ("neighbor", "transition", "inspect", "edge", "OUTPUT"):
            assert hop in text, hop

    def test_single_vertex_bootstrap_shown(self, engine):
        text = engine.explain("SELECT COUNT(*) FROM MATCH (a)->(b) WHERE id(a) = 3")
        assert "single vertex id=3" in text

    def test_slot_names_listed(self, engine):
        text = engine.explain("SELECT a.weight FROM MATCH (a:A)")
        assert "p:a.weight" in text
        assert "v:a" in text

    def test_filter_and_captures_flags(self, engine):
        text = engine.explain(
            "SELECT COUNT(*) FROM MATCH (a:A) WHERE a.weight > 3"
        )
        assert "filtered" in text
        assert "captures=" in text


class TestExplainAnalyze:
    def test_annotates_stage_match_counts(self):
        g = chain_graph(10)
        r = Session(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"
        )
        text = r.explain_analyze()
        assert "act=10 q=1.0]" in text  # stage 0 matches every vertex
        assert "act=45 q=1.1]" in text  # the exit stage: one per result
        assert "est~" in text  # planner estimates rendered beside actuals
        # Every stage line carries its q-error; the footer names the worst
        # stage and the median.
        stage_lines = [l for l in text.splitlines() if "[est~" in l]
        assert all(" q=" in line for line in stage_lines)
        footer = next(l for l in text.splitlines() if "estimates:" in l)
        assert "worst q=1.2 at S2 (path)" in footer
        assert f"median q=1.1 over {len(stage_lines)} stages" in footer
        assert "virtual rounds" in text  # analyze footer: timing
        assert "s wall" in text

    def test_q_error_is_symmetric_and_floored_at_one(self):
        from repro.plan.explain import q_error

        assert q_error(10.0, 40) == q_error(40.0, 10) == 4.0
        assert q_error(240.0, 0) == 240.0  # the smaller side floored at 1
        assert q_error(0.3, 0) == 1.0  # both below one match: exact
        assert q_error(7.0, 7) == 1.0

    def test_control_stage_counts_all_entries(self):
        g = chain_graph(5)
        r = Session(g, EngineConfig(num_machines=1)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"
        )
        control = next(s for s in r.plan.stages if s.rpq is not None)
        total_entries = sum(r.stats.control_matches[0].values())
        assert r.stats.stage_matches[control.index] == total_entries

    def test_plain_explain_has_no_annotations(self):
        g = chain_graph(5)
        engine = Session(g, EngineConfig(num_machines=1))
        text = engine.explain("SELECT COUNT(*) FROM MATCH (a)->(b)")
        assert "act=" not in text
        assert "analyze:" not in text


class TestRunStats:
    def make(self, n=2, **overrides):
        machines = [MachineStats() for _ in range(n)]
        return machines, RunStats(machines, rounds=10, wall_seconds=0.5,
                                  config=Config(num_machines=max(2, n)), **overrides)

    def test_sums_across_machines(self):
        machines, stats = self.make()
        machines[0].outputs = 3
        machines[1].outputs = 4
        machines[0].bytes_sent = 100
        assert stats.outputs == 7
        assert stats.bytes_sent == 100

    def test_depth_counters_merge(self):
        machines, stats = self.make()
        machines[0].record_control_matches(0, {1: 1})
        machines[1].record_control_matches(0, {1: 1, 2: 1})
        machines[0].record_eliminated(0, 2)
        machines[1].record_duplicated(0, 1)
        assert stats.control_matches[0] == {1: 2, 2: 1}
        assert stats.depth_table(0) == [(1, 2, 0, 1), (2, 1, 1, 0)]
        assert stats.max_depth(0) == 2

    def test_virtual_time_prefers_quiescence(self):
        _machines, stats = self.make(quiescent_round=6)
        assert stats.virtual_time == 6
        _machines, stats2 = self.make()
        assert stats2.virtual_time == 10

    def test_memory_models(self):
        machines, stats = self.make()
        machines[0].index_entries = 10
        machines[0].index_prealloc_bytes = 80
        machines[1].peak_inflight_buffers = 3
        assert stats.index_bytes == 120 + 80
        assert stats.messaging_bytes_peak == 3 * stats.config.buffer_bytes

    def test_summary_keys(self):
        _machines, stats = self.make()
        summary = stats.summary()
        for key in ("rounds", "outputs", "flow_control_blocks", "index_bytes"):
            assert key in summary

    def test_empty_depth_table(self):
        _machines, stats = self.make()
        assert stats.depth_table(0) == []
        assert stats.max_depth(0) == -1


class TestStatsFromRealRuns:
    def test_filter_evals_counted(self):
        g = chain_graph(10)
        r = Session(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b) WHERE a.idx > 2"
        )
        assert r.stats._sum("filter_evals") > 0

    def test_edges_traversed_matches_structure(self):
        g = chain_graph(10)
        r = Session(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)"
        )
        # A single forward hop traverses each edge exactly once.
        assert r.stats.edges_traversed == 9

    def test_bootstrap_counts_local_vertices(self):
        g = random_graph(21, 40, seed=5)
        r = Session(g, EngineConfig(num_machines=3)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)"
        )
        assert r.stats._sum("bootstrapped") == 21
