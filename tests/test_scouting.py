"""Tests for scouting-based planning (sampled selectivity estimation)."""

import pytest

from repro import EngineConfig, GraphBuilder, Session
from repro.pgql import parse
from repro.plan.compiler import PlanCompiler
from repro.plan.planner import Planner
from repro.plan.scouting import Scout


@pytest.fixture(scope="module")
def skewed_graph():
    """Everyone is an adult; only three people are seniors (age > 76).

    Static heuristics rank the two range filters equally and fall back to
    the alphabetical tie-break; scouting measures the real skew.
    """
    b = GraphBuilder()
    people = []
    for i in range(60):
        age = 80 if i < 3 else 30
        people.append(b.add_vertex("Person", age=age, idx=i))
    for i in range(59):
        b.add_edge(people[i], people[i + 1], "KNOWS")
    return b.build()


QUERY = (
    "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/-(z:Person) "
    "WHERE z.age > 76 AND a.age >= 18"
)


class TestScout:
    def test_selectivity_measures_skew(self, skewed_graph):
        scout = Scout(skewed_graph, samples=60)
        planner = Planner(parse(QUERY), scout=scout)
        pv_z = planner.pattern_graph.vertices["z"]
        pv_a = planner.pattern_graph.vertices["a"]
        assert scout.selectivity(pv_z) < 0.2
        assert scout.selectivity(pv_a) > 0.8

    def test_selectivity_never_zero(self, skewed_graph):
        scout = Scout(skewed_graph, samples=16)
        planner = Planner(
            parse("SELECT COUNT(*) FROM MATCH (a:Person) WHERE a.age = 999"),
            scout=scout,
        )
        pv = planner.pattern_graph.vertices["a"]
        assert scout.selectivity(pv) > 0.0

    def test_probe_count_bounded(self, skewed_graph):
        scout = Scout(skewed_graph, samples=16)
        planner = Planner(parse(QUERY), scout=scout)
        planner.plan()
        # At most one pass over the sample per distinct variable.
        assert scout.probes <= 16 * len(planner.pattern_graph.vertices)

    def test_deterministic(self, skewed_graph):
        s1 = Scout(skewed_graph, samples=20)
        s2 = Scout(skewed_graph, samples=20)
        planner = Planner(parse(QUERY))
        pv = planner.pattern_graph.vertices["z"]
        assert s1.selectivity(pv) == s2.selectivity(pv)


class TestScoutedPlans:
    def test_static_heuristics_tie_break_alphabetically(self, skewed_graph):
        ops = Planner(parse(QUERY)).plan().ops
        assert ops[0].var == "a"  # the unselective side

    def test_scouting_picks_the_rare_side(self, skewed_graph):
        compiler = PlanCompiler(parse(QUERY), skewed_graph, scouting=True)
        assert compiler.logical.ops[0].var == "z"

    def test_scouted_plan_does_less_work(self, skewed_graph):
        static = Session(skewed_graph, EngineConfig(num_machines=2)).execute(QUERY)
        scouted = Session(
            skewed_graph, EngineConfig(num_machines=2, scouting=True)
        ).execute(QUERY)
        assert static.scalar() == scouted.scalar()
        assert (
            scouted.stats.edges_traversed < static.stats.edges_traversed
        )

    def test_single_match_still_wins(self, skewed_graph):
        query = QUERY + " AND id(a) = 5"
        compiler = PlanCompiler(parse(query), skewed_graph, scouting=True)
        assert compiler.logical.ops[0].var == "a"
