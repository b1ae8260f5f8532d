"""Per-graph statistics and the planner estimates built on them.

``GraphStatistics`` is checked against a brute-force scan; the estimates
against ``tests/estimates_golden.json``, recorded before the statistics
replaced the per-compile graph scans (see ``estimates_golden_cases.py``).
The per-vertex label bitmasks the DFT loop tests labels with are checked
against ``vertex_has_label`` the same way.
"""

import json

from hypothesis import given, settings, strategies as st

import repro
from repro import GraphBuilder
from repro.graph.graph import PropertyGraph
from repro.graph.types import Direction
from repro.plan.stages import Hop, HopKind, Stage, StageKind
from repro.runtime.steptable import Step

from . import estimates_golden_cases as cases

LABELS = ("A", "B", "C", "Unused")
EDGE_LABELS = ("X", "Y", "Z")


@st.composite
def labelled_graphs(draw):
    """Small graphs whose vertices carry 0-3 extra labels, the primary one
    possibly among them; ``Unused`` is interned but may tag nobody."""
    n = draw(st.integers(1, 12))
    b = GraphBuilder()
    for _ in range(n):
        primary = draw(st.sampled_from(LABELS[:3]))
        extra = draw(st.lists(st.sampled_from(LABELS), max_size=3))
        b.add_vertex(primary, extra_labels=extra)
    for _ in range(draw(st.integers(0, 20))):
        b.add_edge(
            draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
            draw(st.sampled_from(EDGE_LABELS)),
        )
    graph = b.build()
    graph.vertex_labels.intern("Unused")
    return graph


class TestGraphStatistics:
    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs())
    def test_equals_brute_force_scan(self, graph):
        stats = graph.statistics
        assert stats.num_vertices == graph.num_vertices
        assert stats.num_edges == graph.num_edges
        for label_id in range(len(graph.vertex_labels)):
            scanned = sum(
                graph.vertex_has_label(v, label_id) for v in graph.vertices()
            )
            # Primary *or* extra membership, once per vertex; a label id
            # nobody carries counts 0.
            assert stats.vertices_per_label.get(label_id, 0) == scanned
        for label_id in range(len(graph.edge_labels)):
            scanned = sum(1 for l in graph.edge_label_ids if l == label_id)
            assert stats.edges_per_label.get(label_id, 0) == scanned
        assert sum(stats.edges_per_label.values()) == graph.num_edges

    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs())
    def test_max_fanout_equals_brute_force_scan(self, graph):
        stats = graph.statistics
        for direction in (Direction.OUT, Direction.IN):
            for label_id in range(len(graph.edge_labels)):
                # Every vertex counts, those without such an edge included.
                scanned = max(
                    sum(1 for _ in graph.neighbors(v, direction, label_id))
                    for v in graph.vertices()
                )
                assert stats.max_fanout.get((label_id, direction), 0) == scanned
                assert stats.functional((label_id,), direction) == (scanned <= 1)
                assert not stats.functional((label_id,), Direction.BOTH)

    def test_functional_needs_one_label_and_one_direction(self):
        b = GraphBuilder()
        for _ in range(3):
            b.add_vertex("A", extra_labels=("B",))
        b.add_edge(0, 1, "X")
        b.add_edge(0, 2, "Y")
        graph = b.build()
        stats = graph.statistics
        x, y = graph.edge_labels.id_of("X"), graph.edge_labels.id_of("Y")
        assert stats.functional((x,), Direction.OUT)
        assert stats.functional((y,), Direction.IN)
        # Vertex 0 has one X and one Y out-edge: two neighbors through [:X|Y].
        assert not stats.functional((x, y), Direction.OUT)
        # A label no edge carries reaches nobody; BOTH is never functional.
        assert stats.functional((None,), Direction.OUT)
        assert not stats.functional((x,), Direction.BOTH)
        assert not GraphBuilder().build().statistics.functional((x,), Direction.BOTH)
        assert not stats.functional((), Direction.OUT)

    def test_extra_label_equal_to_primary_counts_once(self):
        b = GraphBuilder()
        b.add_vertex("A", extra_labels=("A", "B"))
        b.add_vertex("B")
        graph = b.build()
        a, bb = graph.vertex_labels.id_of("A"), graph.vertex_labels.id_of("B")
        assert graph.statistics.vertices_per_label == {a: 1, bb: 2}

    def test_scanned_once_per_graph(self):
        graph = GraphBuilder().build()
        assert graph.statistics is graph.statistics


class TestLabelMasks:
    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs())
    def test_masks_equal_vertex_has_label(self, graph):
        masks = graph.label_masks
        assert graph.label_masks is masks  # built once per graph
        # Two ids past the interned ones: labels the graph lacks entirely.
        for label_id in range(len(graph.vertex_labels) + 2):
            for v in graph.vertices():
                assert bool(masks[v] >> label_id & 1) == graph.vertex_has_label(v, label_id)

    @settings(max_examples=60, deadline=None)
    @given(
        labelled_graphs(),
        st.lists(st.lists(st.integers(-2, 5), min_size=1, max_size=3), max_size=3),
    )
    def test_stage_masks_test_and_of_or_groups(self, graph, groups):
        """A stage's AND of OR-groups — negative ids are labels the query
        names but the graph lacks — passes a vertex exactly when every group
        holds one of its labels, as the loop tests it (one AND per group)."""
        stage = Stage(
            index=0, kind=StageKind.VERTEX,
            label_ids=tuple(tuple(g) for g in groups), hop=Hop(kind=HopKind.OUTPUT),
        )
        step = Step(None, stage)
        for v in graph.vertices():
            want = all(
                any(l >= 0 and graph.vertex_has_label(v, l) for l in group)
                for group in groups
            )
            vmask = graph.label_masks[v]
            got = step.label_mask is None or bool(vmask & step.label_mask) and all(
                vmask & mask for mask in step.label_rest
            )
            assert got == want


class TestEstimatesGolden:
    def test_estimates_and_explain_text_unchanged(self):
        with open(cases.GOLDEN) as fh:
            golden = json.load(fh)
        got = cases.compute()
        assert sorted(got) == sorted(golden)
        for name, want in golden.items():
            # ``==`` on the floats: the cached statistics must feed the
            # same operands into the same arithmetic.
            assert got[name]["estimated_matches"] == want["estimated_matches"], name
            assert got[name]["explain"] == want["explain"], name


class _CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def test_compiles_after_the_first_read_no_label_data(monkeypatch):
    """Only a session's first compile may scan the graph's labels."""
    from repro.datagen import mini_ldbc

    graph, info = mini_ldbc("xs", 7)
    calls = []
    real = PropertyGraph.vertex_has_label
    monkeypatch.setattr(
        PropertyGraph, "vertex_has_label",
        lambda self, v, label_id: calls.append(v) or real(self, v, label_id),
    )
    graph.edge_label_ids = _CountingList(graph.edge_label_ids)
    _CountingList.iterations = 0
    texts = [text for text, _scouting in cases.queries(info).values()]
    with repro.connect(graph) as session:
        session.compile(texts[0])
        assert _CountingList.iterations == 1  # the one statistics scan
        del calls[:]
        for text in texts[1:]:
            session.compile(text)
    assert calls == []
    assert _CountingList.iterations == 1
