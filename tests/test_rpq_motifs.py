"""Regression battery: RPQ semantics on hand-analyzed graph motifs.

Every case documents its expected result with the full enumeration, runs on
all three engines and several machine counts, and exercises a distinct
structural hazard: diamonds (duplicate paths), self loops, parallel edges,
bipartite alternation, grids, and mixed-label alternation.
"""

import pytest

from repro import EngineConfig, GraphBuilder, Session
from repro.baselines import BftEngine, RecursiveEngine


def run_everywhere(graph, query):
    """Execute on rpqd (1/2/4 machines) + both baselines; assert agreement;
    return the common scalar."""
    values = set()
    for machines in (1, 2, 4):
        values.add(
            Session(graph, EngineConfig(num_machines=machines))
            .execute(query)
            .scalar()
        )
    values.add(BftEngine(graph).execute(query).scalar())
    values.add(RecursiveEngine(graph).execute(query).scalar())
    assert len(values) == 1, f"engines disagree: {values}"
    return values.pop()


class TestDiamond:
    """0 -> {1, 2} -> 3: two length-2 paths to the same destination."""

    @pytest.fixture(scope="class")
    def graph(self):
        b = GraphBuilder()
        for _ in range(4):
            b.add_vertex("N")
        for s, d in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            b.add_edge(s, d, "E")
        return b.build()

    def test_reachability_dedups_duplicate_paths(self, graph):
        # From 0: {1, 2, 3}; from 1: {3}; from 2: {3}. Pairs, not paths.
        assert run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)") == 5

    def test_fixed_pattern_keeps_both_paths(self, graph):
        # Homomorphic fixed 2-hop: 0->1->3 and 0->2->3 both count.
        assert run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a)->(b)->(c)") == 2

    def test_exact_two(self, graph):
        # Exactly 2 reps: only (0, 3) regardless of the two witnesses.
        assert run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a)-/:E{2}/->(b)") == 1


class TestSelfLoop:
    @pytest.fixture(scope="class")
    def graph(self):
        b = GraphBuilder()
        for _ in range(3):
            b.add_vertex("N")
        b.add_edge(0, 0, "E")  # self loop
        b.add_edge(0, 1, "E")
        b.add_edge(1, 2, "E")
        return b.build()

    def test_unbounded_terminates_and_counts_self(self, graph):
        # 0 reaches {0 (loop), 1, 2}; 1 reaches {2}; 2 reaches {}.
        assert run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)") == 4

    def test_star_adds_zero_hop_pairs(self, graph):
        # * adds (v, v) for every vertex; (0,0) must not double count.
        assert run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a)-/:E*/->(b)") == 6

    def test_loop_enables_arbitrarily_long_walks(self, graph):
        # With min 5: 0 can loop 4x then step out: reaches {0, 1, 2};
        # other sources cannot build length >= 5 walks.
        assert run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a)-/:E{5,}/->(b)") == 3


class TestParallelEdges:
    @pytest.fixture(scope="class")
    def graph(self):
        b = GraphBuilder()
        for _ in range(2):
            b.add_vertex("N")
        b.add_edge(0, 1, "E")
        b.add_edge(0, 1, "E")  # parallel duplicate
        return b.build()

    def test_fixed_pattern_counts_each_edge(self, graph):
        assert run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)") == 2

    def test_reachability_counts_pair_once(self, graph):
        assert run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)") == 1


class TestBipartiteAlternation:
    """A-vertices only point to B-vertices and vice versa: even path
    lengths return to the same side."""

    @pytest.fixture(scope="class")
    def graph(self):
        b = GraphBuilder()
        a_side = [b.add_vertex("A") for _ in range(3)]
        b_side = [b.add_vertex("B") for _ in range(3)]
        for i, a in enumerate(a_side):
            b.add_edge(a, b_side[i], "E")
            b.add_edge(a, b_side[(i + 1) % 3], "E")
        for i, bb in enumerate(b_side):
            b.add_edge(bb, a_side[(i + 2) % 3], "E")
        return b.build()

    def test_odd_lengths_land_on_b(self, graph):
        count = run_everywhere(
            graph, "SELECT COUNT(*) FROM MATCH (a:A)-/:E{1}/->(b:B)"
        )
        assert count == 6  # two outgoing edges per A vertex

    def test_even_lengths_filtered_by_label(self, graph):
        # Length-2 walks from A end on A; requiring :B yields nothing.
        assert (
            run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a:A)-/:E{2}/->(b:B)")
            == 0
        )

    def test_macro_enforcing_alternation(self, graph):
        count = run_everywhere(
            graph,
            "PATH step AS (x:A)-[:E]->(m:B)-[:E]->(y:A) "
            "SELECT COUNT(*) FROM MATCH (a:A)-/:step+/->(b:A)",
        )
        # Each A reaches every A (3x3 pairs) through repeated two-steps.
        assert count == 9


class TestGrid:
    """3x3 directed grid (right + down edges)."""

    @pytest.fixture(scope="class")
    def graph(self):
        b = GraphBuilder()
        ids = [[b.add_vertex("N", r=r, c=c) for c in range(3)] for r in range(3)]
        for r in range(3):
            for c in range(3):
                if c + 1 < 3:
                    b.add_edge(ids[r][c], ids[r][c + 1], "E")
                if r + 1 < 3:
                    b.add_edge(ids[r][c], ids[r + 1][c], "E")
        return b.build()

    def test_corner_reaches_everything(self, graph):
        count = run_everywhere(
            graph,
            "SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b) WHERE a.r = 0 AND a.c = 0",
        )
        assert count == 8  # everything except itself

    def test_total_reachable_pairs(self, graph):
        # Pair (u, v) reachable iff v is right/down of u (inclusive order,
        # excluding equality): for each u at (r, c): (3-r)*(3-c) - 1.
        expected = sum((3 - r) * (3 - c) - 1 for r in range(3) for c in range(3))
        assert (
            run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)")
            == expected
        )

    def test_exact_path_length_manhattan(self, graph):
        # Length-4 walks from the corner: only the far corner (2,2).
        count = run_everywhere(
            graph,
            "SELECT COUNT(*) FROM MATCH (a)-/:E{4}/->(b) WHERE a.r = 0 AND a.c = 0",
        )
        assert count == 1


class TestLabelAlternatives:
    @pytest.fixture(scope="class")
    def graph(self):
        b = GraphBuilder()
        for _ in range(4):
            b.add_vertex("N")
        b.add_edge(0, 1, "X")
        b.add_edge(1, 2, "Y")
        b.add_edge(2, 3, "X")
        return b.build()

    def test_single_label_rpq_respects_labels(self, graph):
        assert run_everywhere(graph, "SELECT COUNT(*) FROM MATCH (a)-/:X+/->(b)") == 2

    def test_macro_with_label_alternation(self, graph):
        count = run_everywhere(
            graph,
            "PATH any AS (x)-[:X|Y]->(y) "
            "SELECT COUNT(*) FROM MATCH (a)-/:any+/->(b)",
        )
        assert count == 6  # full chain reachability 0<1<2<3

    def test_concatenated_segments_model_regex(self, graph):
        # X+ then Y then X*: the language X+ Y X* over the chain.
        count = run_everywhere(
            graph,
            "SELECT COUNT(*) FROM MATCH (a)-/:X+/->(m)-[:Y]->(n)-/:X*/->(b)",
        )
        # a=0..m=1 (X+), n=2 (Y), b in {2, 3} (X*): 2 matches.
        assert count == 2
