"""Integration tests for complex query shapes that combine multiple
engine features: non-linear patterns around RPQs, multi-segment chains,
aggregation pipelines, and configuration extremes."""

import pytest

from repro import EngineConfig, GraphBuilder, Session
from repro.baselines import BftEngine, RecursiveEngine
from repro.datagen import mini_ldbc
from repro.graph.generators import chain_graph, random_graph


def agree(graph, query, machines=(1, 3)):
    values = set()
    for m in machines:
        values.add(
            Session(graph, EngineConfig(num_machines=m)).execute(query).rows and
            tuple(Session(graph, EngineConfig(num_machines=m)).execute(query).rows[0])
        )
    bft = BftEngine(graph).execute(query).rows
    rec = RecursiveEngine(graph).execute(query).rows
    values.add(tuple(bft[0]) if bft else None)
    values.add(tuple(rec[0]) if rec else None)
    assert len(values) == 1, values
    return values.pop()


class TestBranchAfterRpq:
    @pytest.fixture(scope="class")
    def graph(self):
        # a -> chain -> b ; a also has LIKES edges to posts.
        b = GraphBuilder()
        people = [b.add_vertex("Person", idx=i) for i in range(5)]
        for i in range(4):
            b.add_edge(people[i], people[i + 1], "KNOWS")
        posts = [b.add_vertex("Post", idx=100 + i) for i in range(3)]
        for p in posts:
            b.add_edge(people[0], p, "LIKES")
        return b.build()

    def test_inspect_back_to_pre_rpq_variable(self, graph):
        # After the RPQ binds b, the pattern branches from a again.
        q = (
            "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS+/->(b:Person), "
            "MATCH (a)-[:LIKES]->(p:Post) WHERE id(a) = 0"
        )
        # b in {1,2,3,4} x p in 3 posts = 12
        assert agree(graph, q) == (12,)

    def test_branch_from_rpq_destination(self, graph):
        q = (
            "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b:Person)"
            "-[:KNOWS]->(c:Person) WHERE id(a) = 0"
        )
        # b in {1,2}: b=1 -> c=2; b=2 -> c=3 => 2
        assert agree(graph, q) == (2,)


class TestRpqBetweenBoundVertices:
    def test_verification_semantics(self):
        b = GraphBuilder()
        for _ in range(5):
            b.add_vertex("N")
        for s, d in [(0, 1), (0, 2), (2, 1), (2, 3), (3, 4)]:
            b.add_edge(s, d, "E")
        g = b.build()
        # Direct edge AND a 2..3-hop walk between the same endpoints:
        # (0,1): direct + 0->2->1 two-hop => counts.
        # (2,3) direct: walks 2..3 hops from 2 to 3? 2->1(dead), 2->3->4;
        #   no return to 3 => no.
        q = "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b), MATCH (a)-/:E{2,3}/->(b)"
        assert agree(g, q) == (1,)


class TestThreeSegments:
    def test_triple_rpq_chain(self):
        g = chain_graph(8)
        q = (
            "SELECT COUNT(*) FROM MATCH "
            "(a)-/:NEXT+/->(b)-/:NEXT+/->(c)-/:NEXT+/->(d)"
        )
        # Choose 4 distinct ascending positions from 8: C(8,4) = 70.
        assert agree(g, q) == (70,)

    def test_mixed_segments_and_edges(self):
        g = chain_graph(7)
        q = (
            "SELECT COUNT(*) FROM MATCH "
            "(a)-/:NEXT{1,2}/->(b)-[:NEXT]->(c)-/:NEXT*/->(d)"
        )
        # a<b (by 1..2), c=b+1, d>=c. Count over chain 0..6.
        expected = 0
        for a in range(7):
            for step in (1, 2):
                b_v = a + step
                c = b_v + 1
                if c <= 6:
                    expected += 6 - c + 1
        assert agree(g, q) == (expected,)


class TestAggregationPipelines:
    @pytest.fixture(scope="class")
    def ldbc(self):
        return mini_ldbc("xs")

    def test_group_having_order_limit_offset(self, ldbc):
        graph, _info = ldbc
        q = (
            "SELECT p.firstName AS name, COUNT(*) "
            "FROM MATCH (p:Person)-[:KNOWS]-(q:Person) "
            "GROUP BY p.firstName HAVING COUNT(*) >= 2 "
            "ORDER BY COUNT(*) DESC, name LIMIT 5 OFFSET 2"
        )
        rpqd = Session(graph, EngineConfig(num_machines=3)).execute(q)
        bft = BftEngine(graph).execute(q)
        assert rpqd.rows == bft.rows
        assert len(rpqd.rows) == 5
        counts = [row[1] for row in rpqd.rows]
        assert counts == sorted(counts, reverse=True)

    def test_aggregate_over_rpq_with_distinct(self, ldbc):
        graph, info = ldbc
        q = (
            "SELECT COUNT(DISTINCT expert.firstName) "
            "FROM MATCH (p:Person)-/:KNOWS{1,2}/-(expert:Person) "
            f"WHERE id(p) = {info.start_person}"
        )
        rpqd = Session(graph, EngineConfig(num_machines=2)).execute(q)
        assert rpqd.scalar() == BftEngine(graph).execute(q).scalar()


class TestConfigurationExtremes:
    QUERY = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)"

    @pytest.fixture(scope="class")
    def graph(self):
        return random_graph(30, 90, seed=31)

    @pytest.fixture(scope="class")
    def expected(self, graph):
        return BftEngine(graph).execute(self.QUERY).scalar()

    def test_single_worker_per_machine(self, graph, expected):
        r = Session(
            graph, EngineConfig(num_machines=4, workers_per_machine=1)
        ).execute(self.QUERY)
        assert r.scalar() == expected

    def test_many_workers(self, graph, expected):
        r = Session(
            graph, EngineConfig(num_machines=2, workers_per_machine=16)
        ).execute(self.QUERY)
        assert r.scalar() == expected

    def test_zero_network_delay(self, graph, expected):
        r = Session(
            graph, EngineConfig(num_machines=4, net_delay_rounds=0)
        ).execute(self.QUERY)
        assert r.scalar() == expected

    def test_slow_network(self, graph, expected):
        fast = Session(
            graph, EngineConfig(num_machines=4, net_delay_rounds=0)
        ).execute(self.QUERY)
        slow = Session(
            graph, EngineConfig(num_machines=4, net_delay_rounds=8)
        ).execute(self.QUERY)
        assert slow.scalar() == expected
        assert slow.virtual_time > fast.virtual_time

    def test_tiny_quantum(self, graph, expected):
        r = Session(
            graph, EngineConfig(num_machines=2, quantum=10.0)
        ).execute(self.QUERY)
        assert r.scalar() == expected

    def test_sixteen_machines(self, graph, expected):
        r = Session(graph, EngineConfig(num_machines=16)).execute(self.QUERY)
        assert r.scalar() == expected
