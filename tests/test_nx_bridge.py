"""Tests for NetworkX interop, including cross-checks against NetworkX
reachability algorithms."""

import networkx as nx
import pytest

from repro import EngineConfig, GraphBuilder, Session
from repro.graph import from_networkx, to_networkx
from repro.graph.generators import random_graph


class TestExport:
    @pytest.fixture
    def graph(self):
        b = GraphBuilder()
        a = b.add_vertex("Person", name="Ann")
        p = b.add_vertex("Post", extra_labels=("Message",))
        b.add_edge(a, p, "LIKES", weight=2)
        b.add_edge(a, p, "LIKES")  # parallel edge
        b.add_edge(a, a, "SELF")  # self loop
        return b.build()

    def test_preserves_topology(self, graph):
        g = to_networkx(graph)
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 3

    def test_preserves_attributes(self, graph):
        g = to_networkx(graph)
        assert g.nodes[0]["label"] == "Person"
        assert g.nodes[0]["name"] == "Ann"
        assert g.nodes[1]["labels"] == ["Message"]
        weights = [d.get("weight") for _u, _v, d in g.edges(data=True)]
        assert 2 in weights


class TestImport:
    def test_round_trip(self):
        original = random_graph(15, 40, seed=6)
        back, id_map = from_networkx(to_networkx(original))
        assert back.num_vertices == original.num_vertices
        assert back.num_edges == original.num_edges
        # ids preserved (nodes were dense ints exported in order)
        assert all(id_map[v] == v for v in range(15))

    def test_import_plain_digraph(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", label="KNOWS")
        g.add_edge("b", "c")
        graph, id_map = from_networkx(g)
        assert graph.num_vertices == 3
        assert graph.edge_label_name(0) in ("KNOWS", "EDGE")
        knows = graph.edge_labels.id_of("KNOWS")
        assert knows is not None

    def test_import_then_query(self):
        g = nx.gnp_random_graph(20, 0.15, seed=3, directed=True)
        graph, id_map = from_networkx(g, default_edge_label="E")
        engine = Session(graph, EngineConfig(num_machines=2))
        got = engine.execute("SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)").scalar()
        # descendants() excludes the source; add self-reach for nodes on
        # cycles (walk semantics count the (n, n) pair then).
        expected = sum(len(nx.descendants(g, n)) for n in g.nodes)
        for n in g.nodes:
            if any(s == n or n in nx.descendants(g, s) for s in g.successors(n)):
                expected += 1
        assert got == expected

    def test_self_reach_via_cycles_matches_networkx(self):
        g = nx.DiGraph([(0, 1), (1, 0), (1, 2)])
        graph, _ = from_networkx(g, default_edge_label="E")
        engine = Session(graph, EngineConfig(num_machines=1))
        got = engine.execute("SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)").scalar()
        # descendants() excludes the node itself even on cycles; add those.
        expected = 0
        for n in g.nodes:
            desc = nx.descendants(g, n)
            expected += len(desc)
            if any(n in nx.descendants(g, m) or m == n for m in g.successors(n)):
                expected += 0  # placeholder for readability
        # Compute self-reach explicitly: n reaches n iff n lies on a cycle.
        for n in g.nodes:
            if any(n in nx.descendants(g, s) or s == n for s in g.successors(n)):
                expected += 1
        assert got == expected
