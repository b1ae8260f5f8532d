"""Tests for the Neo4j-like BFT and PostgreSQL-like recursive baselines."""

import pytest

from repro import EngineConfig, GraphBuilder, QueryResult, Session
from repro.baselines import (
    BftEngine,
    DistributedBftEngine,
    RecursiveEngine,
    UnsupportedQueryError,
)
from repro.graph.generators import (
    chain_graph,
    complete_graph,
    random_graph,
    reply_forest,
    two_label_graph,
)

ENGINES = [BftEngine, RecursiveEngine, DistributedBftEngine]


@pytest.fixture(params=ENGINES, ids=["bft", "recursive", "distributed-bft"])
def engine_cls(request):
    return request.param


class TestBaselineBasics:
    def test_edge_count(self, engine_cls):
        g = random_graph(20, 50, seed=1)
        assert engine_cls(g).execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)"
        ).scalar() == 50

    def test_projections_and_order(self, engine_cls):
        g = chain_graph(4)
        r = engine_cls(g).execute(
            "SELECT a.idx AS i FROM MATCH (a)-[:NEXT]->(b) ORDER BY i DESC"
        )
        assert r.column("i") == [2, 1, 0]

    def test_group_by(self, engine_cls):
        g = two_label_graph(30, seed=5)
        r = engine_cls(g).execute(
            "SELECT label(a), COUNT(*) FROM MATCH (a)-[:X]->(b) GROUP BY label(a)"
        )
        assert set(dict(r.rows)) <= {"A", "B"}

    def test_rpq_plus(self, engine_cls):
        g = chain_graph(8)
        assert engine_cls(g).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"
        ).scalar() == 28

    def test_macro_filter(self, engine_cls):
        b = GraphBuilder()
        for age in [10, 20, 15, 30]:
            b.add_vertex("Person", age=age)
        for s, d in [(0, 1), (1, 2), (2, 3)]:
            b.add_edge(s, d, "KNOWS")
        g = b.build()
        r = engine_cls(g).execute(
            "PATH p AS (x)-[:KNOWS]->(y) WHERE x.age <= y.age "
            "SELECT COUNT(*) FROM MATCH (a)-/:p+/->(b)"
        )
        # ascending edges: 0->1 (10<=20), 2->3 (15<=30): chains {(0,1),(2,3)}
        assert r.scalar() == 2

    def test_macro_edge_property_filter(self, engine_cls):
        # Regression: edge variables must bind to edge ids so macro filters
        # read edge properties (not vertex properties).
        b = GraphBuilder()
        for _ in range(4):
            b.add_vertex("Account")
        b.add_edge(0, 1, "TRANSFER", amount=10_000)
        b.add_edge(1, 2, "TRANSFER", amount=50)  # breaks the big-chain
        b.add_edge(1, 3, "TRANSFER", amount=9_000)
        g = b.build()
        q = (
            "PATH big AS (x:Account)-[t:TRANSFER]->(y:Account) "
            "WHERE t.amount >= 8000 "
            "SELECT COUNT(*) FROM MATCH (a:Account)-/:big+/->(c:Account)"
        )
        got = engine_cls(g).execute(q).scalar()
        rpqd = Session(g, EngineConfig(num_machines=2)).execute(q).scalar()
        assert got == rpqd == 3  # (0,1), (0,3), (1,3)

    def test_deferred_cross_filter_rejected(self, engine_cls):
        g = chain_graph(4)
        with pytest.raises(UnsupportedQueryError):
            engine_cls(g).execute(
                "PATH p AS (pa)-[:NEXT]->(pb) "
                "SELECT COUNT(*) FROM MATCH (p1)-/:p+/->(p2) WHERE pb.idx <= p2.idx"
            )

    def test_inline_cross_filter_supported(self, engine_cls):
        g = chain_graph(5)
        r = engine_cls(g).execute(
            "PATH p AS (pa)-[:NEXT]->(pb) "
            "SELECT COUNT(*) FROM MATCH (p1)-/:p+/->(p2) WHERE p1.idx <= pa.idx"
        )
        assert r.scalar() == 10  # always true on a chain: all pairs

    def test_stats_populated(self, engine_cls):
        g = reply_forest(10, 3, 4, seed=2)
        r = engine_cls(g).execute(
            "SELECT COUNT(*) FROM MATCH (p:Post)<-/:REPLY_OF+/-(c:Comment)"
        )
        assert r.stats.edges_traversed > 0
        assert r.stats.cost_units > 0
        assert r.stats.virtual_time > 0
        assert r.stats.wall_seconds >= 0

    def test_result_is_a_query_result(self, engine_cls):
        r = engine_cls(chain_graph(6)).execute("SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)")
        assert isinstance(r, QueryResult) and r.plan is None and r.obs is None
        assert r.complete and not r.timed_out and r.profile is None
        assert r.wall_seconds == r.stats.wall_seconds
        assert r.virtual_time == r.stats.virtual_time and r.scalar() == 15


class TestEngineEquivalence:
    QUERIES = [
        "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b)",
        "SELECT COUNT(*) FROM MATCH (a)-/:LINK*/->(b) WHERE id(a) = 4",
        "SELECT COUNT(*) FROM MATCH (a)-/:LINK{2,4}/->(b)",
        "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/-(b) WHERE id(a) = 0",
        "SELECT COUNT(*) FROM MATCH (a)<-/:LINK{1,3}/-(b)",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_three_way_equivalence(self, query):
        g = random_graph(22, 60, seed=33)
        rpqd = Session(g, EngineConfig(num_machines=3)).execute(query).scalar()
        bft = BftEngine(g).execute(query).scalar()
        rec = RecursiveEngine(g).execute(query).scalar()
        assert rpqd == bft == rec

    def test_distributed_bft_agrees_on_cycles(self):
        g = complete_graph(8)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)"
        assert (
            DistributedBftEngine(g, num_machines=4).execute(q).scalar()
            == BftEngine(g).execute(q).scalar()
        )

    def test_distributed_bft_charges_barriers(self):
        # More supersteps (deeper quantifier) => more barrier time even
        # when the extra levels discover nothing new.
        g = chain_graph(6)
        shallow = DistributedBftEngine(g).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{1,1}/->(b) WHERE id(a)=0"
        )
        deep = DistributedBftEngine(g).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{1,4}/->(b) WHERE id(a)=0"
        )
        assert deep.stats.cost_units > shallow.stats.cost_units

    def test_memory_profiles_differ(self):
        # The recursive engine materializes the full relation; BFS only the
        # frontier+visited set; this asymmetry is what Figure 2 leans on.
        g = reply_forest(40, 3, 6, seed=4)
        q = "SELECT COUNT(*) FROM MATCH (p:Post)<-/:REPLY_OF+/-(c:Comment)"
        bft = BftEngine(g).execute(q)
        rec = RecursiveEngine(g).execute(q)
        assert bft.scalar() == rec.scalar()
        assert rec.stats.peak_relation >= 1
        assert rec.stats.cost_units > bft.stats.cost_units
