"""End-to-end correctness tests for the distributed engine.

Reference results are computed with an independent BFS over the raw graph
(no shared code with the engine or the baselines).
"""

from collections import deque

import pytest

from repro import EngineConfig, GraphBuilder, Session
from repro.graph import Direction
from repro.graph.generators import (
    chain_graph,
    complete_graph,
    cycle_graph,
    random_graph,
    reply_forest,
    star_graph,
    two_label_graph,
)


def reference_reachable(graph, src, label, direction, min_hops, max_hops):
    """Independent reference with homomorphic *walk* semantics.

    ``dst`` is reachable iff some walk of length within ``[min, max]``
    exists.  Bounded: per-level frontier sets, union of levels min..max.
    Unbounded: exact-``min`` prefix of level sets, then a visited-set BFS
    closure (any suffix length).  Note a plain visited-set BFS is wrong for
    ``min >= 2``.
    """
    label_id = graph.edge_labels.id_of(label)

    def successors(level):
        nxt = set()
        if label_id is None:  # label absent from the graph: no edges match
            return nxt
        for v in level:
            for w, _e in graph.neighbors(v, direction, label_id):
                nxt.add(w)
        return nxt

    level = {src}
    results = set()
    if min_hops == 0:
        results.add(src)
    if max_hops is not None:
        for depth in range(1, max_hops + 1):
            level = successors(level)
            if not level:
                break
            if depth >= min_hops:
                results |= level
        return results
    for _ in range(min_hops):
        level = successors(level)
        if not level:
            return results
    visited = set(level)
    results |= level
    frontier = level
    while frontier:
        frontier = {w for w in successors(frontier) if w not in visited}
        visited |= frontier
        results |= frontier
    return results


def reference_pair_count(graph, label, direction, min_hops, max_hops, sources=None):
    total = 0
    for src in sources if sources is not None else graph.vertices():
        total += len(
            reference_reachable(graph, src, label, direction, min_hops, max_hops)
        )
    return total


@pytest.fixture(params=[1, 2, 4])
def machines(request):
    return request.param


class TestFixedPatterns:
    def test_edge_count(self, machines):
        g = random_graph(30, 80, seed=1)
        eng = Session(g, EngineConfig(num_machines=machines))
        assert eng.execute("SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)").scalar() == 80

    def test_two_hop(self, machines):
        g = star_graph(6)
        eng = Session(g, EngineConfig(num_machines=machines))
        # star: 0 -> leaves; two-hop paths: none except via 0: (0,leaf) only
        assert eng.execute("SELECT COUNT(*) FROM MATCH (a)->(b)->(c)").scalar() == 0

    def test_triangle_cycle_closing(self, machines):
        b = GraphBuilder()
        for _ in range(4):
            b.add_vertex("N")
        for s, d in [(0, 1), (1, 2), (2, 0), (1, 3)]:
            b.add_edge(s, d, "E")
        g = b.build()
        eng = Session(g, EngineConfig(num_machines=machines))
        assert (
            eng.execute("SELECT COUNT(*) FROM MATCH (a)->(b)->(c)->(a)").scalar() == 3
        )

    def test_branching_pattern_with_inspect(self, machines):
        # (a)->(b)->(c) and (b)->(d): count over a path 0->1->2, 1->3
        b = GraphBuilder()
        for _ in range(4):
            b.add_vertex("N")
        for s, d in [(0, 1), (1, 2), (1, 3)]:
            b.add_edge(s, d, "E")
        g = b.build()
        eng = Session(g, EngineConfig(num_machines=machines))
        # b=1: c in {2,3}, d in {2,3} -> 4 combos
        assert (
            eng.execute(
                "SELECT COUNT(*) FROM MATCH (a)->(b)->(c), MATCH (b)->(d)"
            ).scalar()
            == 4
        )

    def test_undirected_edge(self, machines):
        g = chain_graph(5)
        eng = Session(g, EngineConfig(num_machines=machines))
        assert eng.execute("SELECT COUNT(*) FROM MATCH (a)-[:NEXT]-(b)").scalar() == 8

    def test_filters_on_properties(self, machines):
        g = two_label_graph(40, seed=6)
        eng = Session(g, EngineConfig(num_machines=machines))
        expected = 0
        for e in range(g.num_edges):
            src, dst = g.edge_src[e], g.edge_dst[e]
            if (g.vprops.get("weight", src) or 0) > 50 and (
                g.vprops.get("weight", dst) or 0
            ) < 50:
                expected += 1
        got = eng.execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:X|Y]->(b) "
            "WHERE a.weight > 50 AND b.weight < 50"
        ).scalar()
        assert got == expected


class TestRpqAgainstReference:
    @pytest.mark.parametrize(
        "min_hops,max_hops,quant",
        [(1, None, "+"), (0, None, "*"), (2, 3, "{2,3}"), (1, 1, "{1}"), (0, 1, "?")],
    )
    def test_random_graph_counts(self, machines, min_hops, max_hops, quant):
        g = random_graph(25, 70, seed=42)
        eng = Session(g, EngineConfig(num_machines=machines))
        got = eng.execute(
            f"SELECT COUNT(*) FROM MATCH (a)-/:LINK{quant}/->(b)"
        ).scalar()
        expected = reference_pair_count(g, "LINK", Direction.OUT, min_hops, max_hops)
        assert got == expected

    def test_reverse_direction(self, machines):
        g = random_graph(20, 50, seed=11)
        eng = Session(g, EngineConfig(num_machines=machines))
        got = eng.execute("SELECT COUNT(*) FROM MATCH (a)<-/:LINK{1,2}/-(b)").scalar()
        expected = reference_pair_count(g, "LINK", Direction.IN, 1, 2)
        assert got == expected

    def test_undirected_rpq(self, machines):
        g = chain_graph(7)
        eng = Session(g, EngineConfig(num_machines=machines))
        got = eng.execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{2,3}/-(b) WHERE id(a)=0"
        ).scalar()
        expected = len(reference_reachable(g, 0, "NEXT", Direction.BOTH, 2, 3))
        assert got == expected

    def test_complete_graph_cycles(self, machines):
        g = complete_graph(5)
        eng = Session(g, EngineConfig(num_machines=machines))
        # Within 2 hops every vertex reaches all 5 (itself via a 2-cycle).
        assert eng.execute("SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)").scalar() == 25

    def test_unbounded_on_cycle_terminates(self, machines):
        g = cycle_graph(8)
        eng = Session(g, EngineConfig(num_machines=machines))
        assert eng.execute("SELECT COUNT(*) FROM MATCH (a)-/:NEXT*/->(b)").scalar() == 64

    def test_single_source(self, machines):
        g = random_graph(30, 90, seed=5)
        eng = Session(g, EngineConfig(num_machines=machines))
        got = eng.execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b) WHERE id(a) = 7"
        ).scalar()
        expected = len(reference_reachable(g, 7, "LINK", Direction.OUT, 1, None))
        assert got == expected

    def test_multi_hop_macro(self, machines):
        # PATH of two hops: each repetition advances two edges.
        g = chain_graph(9)
        eng = Session(g, EngineConfig(num_machines=machines))
        got = eng.execute(
            "PATH two AS (x)-[:NEXT]->(m)-[:NEXT]->(y) "
            "SELECT COUNT(*) FROM MATCH (a)-/:two+/->(b)"
        ).scalar()
        # pairs (i, i+2k): for chain of 9: k=1..4 -> 7+5+3+1 = 16
        assert got == 16

    def test_two_rpq_segments(self, machines):
        g = chain_graph(6)
        eng = Session(g, EngineConfig(num_machines=machines))
        got = eng.execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)-/:NEXT+/->(c)"
        ).scalar()
        assert got == 20  # C(6,3)

    def test_rpq_then_fixed_edge(self, machines):
        g = chain_graph(6)
        eng = Session(g, EngineConfig(num_machines=machines))
        got = eng.execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)-[:NEXT]->(c)"
        ).scalar()
        # pairs (a,b) with b < 5 then c=b+1: pairs ending at b in 1..4:
        # b=1:1, b=2:2, b=3:3, b=4:4 -> 10
        assert got == 10


class TestProjectionsAndAggregates:
    @pytest.fixture
    def people(self):
        b = GraphBuilder()
        cities = ["Oslo", "Oslo", "Rome", "Rome", "Rome"]
        for i, c in enumerate(cities):
            b.add_vertex("Person", name=f"p{i}", city=c, age=20 + i * 5)
        for s, d in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]:
            b.add_edge(s, d, "KNOWS")
        return b.build()

    def test_projection_rows(self, people, machines):
        eng = Session(people, EngineConfig(num_machines=machines))
        r = eng.execute(
            "SELECT a.name, b.name FROM MATCH (a)-[:KNOWS]->(b) WHERE a.city = 'Oslo'"
        )
        assert sorted(r.rows) == [("p0", "p1"), ("p0", "p2"), ("p1", "p2")]

    def test_group_by_count(self, people, machines):
        eng = Session(people, EngineConfig(num_machines=machines))
        r = eng.execute(
            "SELECT a.city, COUNT(*) FROM MATCH (a)-[:KNOWS]->(b) GROUP BY a.city"
        )
        assert dict(r.rows) == {"Oslo": 3, "Rome": 2}

    def test_sum_min_max_avg(self, people, machines):
        eng = Session(people, EngineConfig(num_machines=machines))
        r = eng.execute(
            "SELECT SUM(b.age), MIN(b.age), MAX(b.age), AVG(b.age) "
            "FROM MATCH (a)-[:KNOWS]->(b) WHERE a.name = 'p0'"
        )
        # b in {p1, p2}: ages 25, 30
        assert r.rows[0] == (55, 25, 30, 27.5)

    def test_count_distinct(self, people, machines):
        eng = Session(people, EngineConfig(num_machines=machines))
        r = eng.execute(
            "SELECT COUNT(DISTINCT b.city) FROM MATCH (a)-[:KNOWS]->(b)"
        )
        assert r.scalar() == 2

    def test_distinct_rows(self, people, machines):
        eng = Session(people, EngineConfig(num_machines=machines))
        r = eng.execute("SELECT DISTINCT b.city FROM MATCH (a)-[:KNOWS]->(b)")
        assert sorted(v[0] for v in r.rows) == ["Oslo", "Rome"]

    def test_order_by_limit(self, people, machines):
        eng = Session(people, EngineConfig(num_machines=machines))
        r = eng.execute(
            "SELECT b.age AS age FROM MATCH (a)-[:KNOWS]->(b) ORDER BY age DESC LIMIT 2"
        )
        assert r.column("age") == [40, 35]

    def test_empty_match_aggregate(self, people, machines):
        eng = Session(people, EngineConfig(num_machines=machines))
        r = eng.execute("SELECT COUNT(*) FROM MATCH (a:Robot)")
        assert r.scalar() == 0

    def test_empty_match_sum_is_null(self, people, machines):
        eng = Session(people, EngineConfig(num_machines=machines))
        r = eng.execute("SELECT SUM(a.age) FROM MATCH (a:Robot)")
        assert r.rows[0][0] is None


class TestStatsSurface:
    def test_depth_table_shape(self):
        g = reply_forest(30, 3, 5, seed=3)
        eng = Session(g, EngineConfig(num_machines=4))
        # Walking up from the comments (an unlabelled end prices at 1, so
        # the planner starts at ``c``): every comment at depth 0, decaying
        # toward the few deepest chains.
        up = "SELECT COUNT(*) FROM MATCH (c:Comment)-/:REPLY_OF+/->(p)"
        assert eng.compile(up).stages[0].var == "c"
        table = eng.execute(up).stats.depth_table(0)
        assert table[0][0] == 0  # depth column starts at 0
        matches = [row[1] for row in table]
        assert matches[0] >= matches[-1]  # decay toward the deep end
        # With the posts labelled the 30 posts are the rarer end: the walk
        # fans out down the reply trees instead, growing with depth.
        down = "SELECT COUNT(*) FROM MATCH (c:Comment)-/:REPLY_OF+/->(p:Post)"
        assert eng.compile(down).stages[0].var == "p"
        table = eng.execute(down).stats.depth_table(0)
        assert (table[0][:2], table[-1][:2]) == ((0, 30), (5, 256))

    def test_machine_count_does_not_change_results(self):
        g = random_graph(40, 150, seed=21)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)"
        results = {
            m: Session(g, EngineConfig(num_machines=m)).execute(q).scalar()
            for m in (1, 2, 4, 8)
        }
        assert len(set(results.values())) == 1

    def test_messages_only_flow_with_multiple_machines(self):
        g = random_graph(30, 90, seed=2)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)"
        r1 = Session(g, EngineConfig(num_machines=1)).execute(q)
        r4 = Session(g, EngineConfig(num_machines=4)).execute(q)
        assert r1.stats.batches_sent == 0
        assert r4.stats.batches_sent > 0
        assert r1.scalar() == r4.scalar()

    def test_index_entries_accounted(self):
        g = chain_graph(10)
        # A chain is a forest: pin the paper's index to account its entries.
        eng = Session(g, EngineConfig(num_machines=2, use_reachability_index=True))
        r = eng.execute("SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)")
        assert r.stats.index_entries == 45
        assert r.stats.index_bytes == 45 * 12
