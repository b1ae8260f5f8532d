"""Tests for the CSV loader, ALL_DIFFERENT, and LIMIT/OFFSET."""

import pytest

from repro import EngineConfig, GraphBuilder, Session
from repro.baselines import BftEngine
from repro.errors import GraphError, PlanningError
from repro.graph import load_csv_graph
from repro.pgql import parse


VERTICES = """id,label,labels,name,age,vip
p1,Person,,Ann,34,true
p2,Person,,Bo,29,false
m1,Post,Message,,,
"""

EDGES = """src,dst,label,since
p1,p2,KNOWS,2019
m1,p1,HAS_CREATOR,
"""


@pytest.fixture
def csv_graph(tmp_path):
    vpath = tmp_path / "v.csv"
    epath = tmp_path / "e.csv"
    vpath.write_text(VERTICES)
    epath.write_text(EDGES)
    return load_csv_graph(vpath, epath)


class TestCsvLoader:
    def test_counts_and_mapping(self, csv_graph):
        graph, id_map = csv_graph
        assert graph.num_vertices == 3
        assert graph.num_edges == 2
        assert set(id_map) == {"p1", "p2", "m1"}

    def test_auto_typing(self, csv_graph):
        graph, id_map = csv_graph
        assert graph.vprops.get("age", id_map["p1"]) == 34
        assert graph.vprops.get("vip", id_map["p1"]) is True
        assert graph.vprops.get("vip", id_map["p2"]) is False
        assert graph.vprops.get("name", id_map["m1"]) is None
        assert graph.eprops.get("since", 0) == 2019

    def test_extra_labels(self, csv_graph):
        graph, id_map = csv_graph
        message = graph.vertex_labels.id_of("Message")
        assert graph.vertex_has_label(id_map["m1"], message)

    def test_queryable(self, csv_graph):
        graph, _ = csv_graph
        engine = Session(graph, EngineConfig(num_machines=2))
        r = engine.execute(
            "SELECT a.name FROM MATCH (a:Person)-[:KNOWS]->(b:Person)"
        )
        assert r.rows == [("Ann",)]

    def test_duplicate_id_rejected(self, tmp_path):
        vpath = tmp_path / "v.csv"
        vpath.write_text("id,label\nx,N\nx,N\n")
        epath = tmp_path / "e.csv"
        epath.write_text("src,dst,label\n")
        with pytest.raises(GraphError):
            load_csv_graph(vpath, epath)

    def test_unknown_endpoint_rejected(self, tmp_path):
        vpath = tmp_path / "v.csv"
        vpath.write_text("id,label\nx,N\n")
        epath = tmp_path / "e.csv"
        epath.write_text("src,dst,label\nx,nope,E\n")
        with pytest.raises(GraphError):
            load_csv_graph(vpath, epath)

    def test_missing_columns_rejected(self, tmp_path):
        vpath = tmp_path / "v.csv"
        vpath.write_text("name,label\nx,N\n")
        epath = tmp_path / "e.csv"
        epath.write_text("src,dst,label\n")
        with pytest.raises(GraphError):
            load_csv_graph(vpath, epath)


@pytest.fixture(scope="module")
def triangle_graph():
    b = GraphBuilder()
    for i in range(4):
        b.add_vertex("N", idx=i)
    for s, d in [(0, 1), (1, 2), (2, 0), (0, 0)]:  # triangle + self loop
        b.add_edge(s, d, "E")
    return b.build()


class TestAllDifferent:
    def test_excludes_repeated_vertices(self, triangle_graph):
        engine = Session(triangle_graph, EngineConfig(num_machines=2))
        plain = engine.execute("SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)-[:E]->(c)")
        distinct = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)-[:E]->(c) "
            "WHERE all_different(a, b, c)"
        )
        assert distinct.scalar() < plain.scalar()
        # Triangle walks with distinct vertices: the 3 rotations.
        assert distinct.scalar() == 3

    def test_baseline_agrees(self, triangle_graph):
        q = (
            "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)-[:E]->(c) "
            "WHERE all_different(a, b, c)"
        )
        rpqd = Session(triangle_graph, EngineConfig(num_machines=2)).execute(q)
        assert BftEngine(triangle_graph).execute(q).scalar() == rpqd.scalar()

    def test_requires_variables(self, triangle_graph):
        engine = Session(triangle_graph, EngineConfig(num_machines=1))
        with pytest.raises(PlanningError):
            engine.execute(
                "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b) WHERE all_different(a.idx, b)"
            )


class TestLimitOffset:
    @pytest.fixture(scope="class")
    def engine(self):
        b = GraphBuilder()
        for i in range(6):
            b.add_vertex("N", idx=i)
        for i in range(5):
            b.add_edge(i, i + 1, "E")
        return Session(b.build(), EngineConfig(num_machines=2))

    def test_offset_parses_and_round_trips(self):
        q = parse("SELECT a.idx FROM MATCH (a) ORDER BY a.idx LIMIT 2 OFFSET 3")
        assert q.limit == 2 and q.offset == 3
        assert "OFFSET 3" in str(q)

    def test_offset_applies_after_order(self, engine):
        r = engine.execute(
            "SELECT a.idx AS i FROM MATCH (a:N) ORDER BY i LIMIT 2 OFFSET 3"
        )
        assert r.column("i") == [3, 4]

    def test_offset_past_end(self, engine):
        r = engine.execute(
            "SELECT a.idx AS i FROM MATCH (a:N) ORDER BY i LIMIT 5 OFFSET 10"
        )
        assert r.rows == []

    def test_baseline_offset(self, engine):
        r = BftEngine(engine.graph).execute(
            "SELECT a.idx AS i FROM MATCH (a:N) ORDER BY i LIMIT 2 OFFSET 1"
        )
        assert r.column("i") == [1, 2]
