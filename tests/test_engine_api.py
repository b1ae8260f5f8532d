"""Tests for the engine facade, plan caching, and the bench harness."""

import pytest

from repro import EngineConfig, Session
from repro.bench import (
    BenchHarness,
    baseline_executor,
    format_table,
    rpqd_executor,
    total_virtual_time,
)
from repro.baselines import BftEngine
from repro.graph.generators import chain_graph, random_graph
from repro.pgql import parse


class TestEngineFacade:
    @pytest.fixture
    def engine(self):
        return Session(chain_graph(8), EngineConfig(num_machines=2))

    def test_plan_cache_reuses_compiled_plan(self, engine):
        q = "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)"
        p1 = engine.compile(q)
        p2 = engine.compile(q)
        assert p1 is p2

    def test_execute_parsed_query_object(self, engine):
        q = parse("SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)")
        assert engine.execute(q).scalar() == 7

    def test_execute_precompiled_plan(self, engine):
        plan = engine.compile("SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)")
        assert engine.execute(plan).scalar() == 7

    def test_config_override_repartitions(self, engine):
        q = "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"
        default = engine.execute(q)
        override = engine.execute(q, config=EngineConfig(num_machines=5))
        assert default.scalar() == override.scalar() == 28
        assert override.stats.num_machines == 5

    def test_explain_string(self, engine):
        text = engine.explain("SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)")
        assert "rpq_control" in text

    def test_query_result_passthroughs(self, engine):
        r = engine.execute(
            "SELECT a.idx AS i FROM MATCH (a)-[:NEXT]->(b) ORDER BY i LIMIT 3"
        )
        assert len(r) == 3
        assert r.columns == ["i"]
        assert r.column("i") == [0, 1, 2]
        assert r.to_dicts()[0] == {"i": 0}
        assert list(iter(r))[0] == (0,)

    def test_index_preallocate_flag(self):
        g = chain_graph(12)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"
        # A chain is a forest: pin the paper's index in both runs.
        dynamic = Session(
            g, EngineConfig(num_machines=2, use_reachability_index=True)
        ).execute(q)
        prealloc = Session(
            g, EngineConfig(num_machines=2, index_preallocate=True, use_reachability_index=True)
        ).execute(q)
        assert dynamic.scalar() == prealloc.scalar()
        assert prealloc.stats.index_bytes > dynamic.stats.index_bytes
        assert prealloc.stats.cost_units_total() < dynamic.stats.cost_units_total()

    def test_block_partitioner_option(self):
        g = random_graph(30, 90, seed=4)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)"
        hash_r = Session(g, EngineConfig(num_machines=3)).execute(q)
        block_r = Session(
            g, EngineConfig(num_machines=3), partitioner="block"
        ).execute(q)
        assert hash_r.scalar() == block_r.scalar()


class TestBenchHarness:
    def test_round_robin_medians(self):
        g = chain_graph(10)
        engines = {
            "rpqd-2": rpqd_executor(g, 2),
            "bft": baseline_executor(BftEngine, g),
        }
        queries = {"q": "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"}
        cells = BenchHarness(repetitions=3).run(engines, queries)
        cell = cells[("rpqd-2", "q")]
        assert len(cell.samples) == 3
        assert cell.value == (45,)
        assert cell.virtual_time > 0
        assert cells[("bft", "q")].value == (45,)

    def test_total_virtual_time(self):
        g = chain_graph(6)
        engines = {"rpqd-2": rpqd_executor(g, 2)}
        queries = {
            "q1": "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)",
            "q2": "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)",
        }
        cells = BenchHarness(repetitions=1).run(engines, queries)
        total = total_virtual_time(cells, "rpqd-2")
        assert total == sum(c.virtual_time for c in cells.values())


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["a", 1], ["long-name", 123456]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "123,456" in text
        # All data lines have equal width.
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_format_table_floats(self):
        text = format_table(["x"], [[1.23456]])
        assert "1.23" in text
