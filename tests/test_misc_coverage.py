"""Coverage for less-traveled paths: label captures, edge filters on edge
hops, inspect-hop flow control targets, scalar functions in distributed
queries, and undirected fixed patterns."""

import pytest

from repro import EngineConfig, GraphBuilder, Session
from repro.baselines import BftEngine
from repro.pgql import parse
from repro.plan import compile_query
from repro.runtime.buffers import remote_target_stages


@pytest.fixture(scope="module")
def social():
    b = GraphBuilder()
    ann = b.add_vertex("Person", name="Ann")
    post = b.add_vertex("Post", extra_labels=("Message",), text="hi")
    comment = b.add_vertex("Comment", extra_labels=("Message",), text="yo")
    bob = b.add_vertex("Person", name="Bob")
    b.add_edge(post, ann, "HAS_CREATOR", weight=1)
    b.add_edge(comment, post, "REPLY_OF", weight=9)
    b.add_edge(comment, bob, "HAS_CREATOR", weight=2)
    b.add_edge(ann, bob, "KNOWS", weight=5)
    return b.build()


class TestLabelCaptures:
    def test_label_projection_distributed(self, social):
        engine = Session(social, EngineConfig(num_machines=2))
        r = engine.execute(
            "SELECT label(m), COUNT(*) FROM MATCH (m:Message) GROUP BY label(m)"
        )
        assert dict(r.rows) == {"Post": 1, "Comment": 1}

    def test_label_in_where(self, social):
        engine = Session(social, EngineConfig(num_machines=2))
        r = engine.execute(
            "SELECT COUNT(*) FROM MATCH (m:Message) WHERE label(m) = 'Post'"
        )
        assert r.scalar() == 1


class TestEdgeFiltersOnHops:
    def test_neighbor_hop_edge_filter(self, social):
        engine = Session(social, EngineConfig(num_machines=2))
        r = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a)-[e:HAS_CREATOR]->(b) WHERE e.weight >= 2"
        )
        assert r.scalar() == 1

    def test_edge_property_projection(self, social):
        engine = Session(social, EngineConfig(num_machines=2))
        r = engine.execute(
            "SELECT e.weight FROM MATCH (a:Comment)-[e]->(b) ORDER BY e.weight"
        )
        assert r.column(0) == [2, 9]

    def test_cycle_closing_edge_hop_with_filter(self):
        b = GraphBuilder()
        for _ in range(3):
            b.add_vertex("N")
        b.add_edge(0, 1, "E", w=1)
        b.add_edge(1, 2, "E", w=1)
        b.add_edge(2, 0, "E", w=7)  # closing edge, heavy
        b.add_edge(1, 0, "E", w=1)  # closing edge for the 2-cycle, light
        g = b.build()
        engine = Session(g, EngineConfig(num_machines=2))
        r = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)-[:E]->(c)-[x:E]->(a) "
            "WHERE x.w > 5"
        )
        # Triangles whose closing edge has w > 5: rotations of (0,1,2)
        # close with edges (2->0 w=7), (0->1 w=1), (1->2 w=1): exactly one
        # rotation has the heavy closing edge.
        assert r.scalar() == 1
        assert BftEngine(g).execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)-[:E]->(c)-[x:E]->(a) "
            "WHERE x.w > 5"
        ).scalar() == 1


class TestRemoteTargets:
    def test_inspect_targets_are_remote(self, social):
        plan = compile_query(
            parse(
                "SELECT COUNT(*) FROM MATCH (a)->(b)->(c), MATCH (a)->(d) "
                "WHERE id(a) = 0"
            ),
            social,
        )
        targets = remote_target_stages(plan)
        # Both neighbor-hop targets and the inspect-hop target need inboxes.
        from repro.plan import HopKind

        inspect_targets = [
            s.hop.target for s in plan.stages
            if s.hop is not None and s.hop.kind is HopKind.INSPECT
        ]
        assert inspect_targets
        assert all(t in targets for t in inspect_targets)


class TestScalarFunctionsDistributed:
    def test_functions_in_projection(self, social):
        engine = Session(social, EngineConfig(num_machines=2))
        r = engine.execute(
            "SELECT upper(a.name), length(a.name), coalesce(a.missing, 0) "
            "FROM MATCH (a:Person) ORDER BY upper(a.name)"
        )
        assert r.rows == [("ANN", 3, 0), ("BOB", 3, 0)]

    def test_arithmetic_in_filters(self, social):
        engine = Session(social, EngineConfig(num_machines=2))
        r = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a)-[e]->(b) WHERE e.weight % 2 = 1"
        )
        assert r.scalar() == 3  # weights 1, 9, 5


class TestUndirectedFixedPatterns:
    def test_both_direction_two_hop(self, social):
        engine = Session(social, EngineConfig(num_machines=2))
        got = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a:Person)-[:KNOWS]-(b:Person)"
        ).scalar()
        assert got == 2  # each direction of the single KNOWS edge

    def test_mixed_directions_chain(self, social):
        engine = Session(social, EngineConfig(num_machines=2))
        got = engine.execute(
            "SELECT COUNT(*) FROM MATCH (c:Comment)-[:REPLY_OF]->(p:Post)"
            "-[:HAS_CREATOR]->(who:Person)"
        ).scalar()
        assert got == 1


class TestDistinctWithRpq:
    def test_distinct_destinations(self):
        b = GraphBuilder()
        for i in range(5):
            b.add_vertex("N", group=i % 2)
        for s, d in [(0, 2), (1, 2), (2, 3), (2, 4)]:
            b.add_edge(s, d, "E")
        g = b.build()
        engine = Session(g, EngineConfig(num_machines=2))
        r = engine.execute(
            "SELECT DISTINCT b.group FROM MATCH (a)-/:E+/->(b)"
        )
        assert sorted(v[0] for v in r.rows) == [0, 1]
