"""Tests for pattern-graph construction and logical-plan ordering heuristics."""

import pytest

from repro.errors import PlanningError
from repro.pgql import parse
from repro.plan import build_pattern_graph
from repro.plan.logical import (
    EdgeMatchOp,
    InspectOp,
    NeighborMatchOp,
    OutputOp,
    RpqMatchOp,
    VertexMatchOp,
)
from repro import GraphBuilder
from repro.datagen import BENCHMARK_QUERIES, mini_ldbc
from repro.graph.graph import PropertyGraph
from repro.plan.compiler import PlanCompiler
from repro.plan.planner import (
    Planner,
    conjunct_selectivity,
    extract_single_match,
    label_fractions,
    vertex_score,
)
from repro.pgql import parse_expression


def plan_ops(text):
    return Planner(parse(text)).plan().ops


class TestPatternGraph:
    def test_shared_variables_merge(self):
        q = parse("SELECT COUNT(*) FROM MATCH (a)->(b), MATCH (b)->(c)")
        pg = build_pattern_graph(q)
        assert set(pg.vertices) == {"a", "b", "c"}
        assert len(pg.connectors) == 2

    def test_anonymous_vertices_are_distinct(self):
        q = parse("SELECT COUNT(*) FROM MATCH (a)->()->()")
        pg = build_pattern_graph(q)
        assert len(pg.vertices) == 3

    def test_labels_accumulate_as_groups(self):
        q = parse("SELECT COUNT(*) FROM MATCH (a:Person)->(b), MATCH (a:Message)->(c)")
        pg = build_pattern_graph(q)
        assert pg.vertices["a"].label_groups == (("Person",), ("Message",))

    def test_disconnected_pattern_rejected(self):
        q = parse("SELECT COUNT(*) FROM MATCH (a)->(b), MATCH (c)->(d)")
        with pytest.raises(PlanningError):
            build_pattern_graph(q)

    def test_cartesian_vertices_rejected(self):
        q = parse("SELECT COUNT(*) FROM MATCH (a), MATCH (b)")
        with pytest.raises(PlanningError):
            build_pattern_graph(q)

    def test_single_vertex_allowed(self):
        q = parse("SELECT COUNT(*) FROM MATCH (a:Person)")
        pg = build_pattern_graph(q)
        assert set(pg.vertices) == {"a"}


class TestSingleMatchExtraction:
    def test_id_equals_literal(self):
        assert extract_single_match(parse_expression("id(v) = 42")) == ("v", 42)

    def test_literal_equals_id(self):
        assert extract_single_match(parse_expression("42 = id(v)")) == ("v", 42)

    def test_non_single_match(self):
        assert extract_single_match(parse_expression("id(v) < 42")) is None
        assert extract_single_match(parse_expression("v.x = 42")) is None


class TestOrderingHeuristics:
    def test_single_match_vertex_starts(self):
        # Heuristic (i): ID(b)=7 makes b the start even though a is first.
        ops = plan_ops("SELECT COUNT(*) FROM MATCH (a)->(b) WHERE id(b) = 7")
        assert isinstance(ops[0], VertexMatchOp) and ops[0].var == "b"
        # Traversal from b follows the edge in reverse.
        assert isinstance(ops[1], NeighborMatchOp) and ops[1].var == "a"

    def test_filtered_vertex_preferred(self):
        # Heuristic (ii): equality filter on c beats unfiltered a.
        ops = plan_ops(
            "SELECT COUNT(*) FROM MATCH (a)->(b)->(c) WHERE c.name = 'x'"
        )
        assert ops[0].var == "c"

    def test_cycle_closes_with_edge_match(self):
        # Heuristic (iii): triangle pattern uses one edge match.
        ops = plan_ops("SELECT COUNT(*) FROM MATCH (a)->(b)->(c)->(a)")
        kinds = [type(op).__name__ for op in ops]
        assert kinds.count("EdgeMatchOp") == 1
        assert kinds[-1] == "OutputOp"

    def test_rpq_runs_before_neighbor(self):
        # Heuristic (iv): from the start vertex, the RPQ segment is taken
        # before the plain neighbor edge.
        ops = plan_ops(
            "SELECT COUNT(*) FROM MATCH (a)-/:knows+/->(b), MATCH (a)-[:LIKES]->(c) "
            "WHERE id(a) = 1"
        )
        rpq_pos = next(i for i, op in enumerate(ops) if isinstance(op, RpqMatchOp))
        nbr_pos = next(
            i for i, op in enumerate(ops)
            if isinstance(op, NeighborMatchOp) and op.var == "c"
        )
        assert rpq_pos < nbr_pos

    def test_branching_pattern_gets_inspect(self):
        # (a)->(b)->(c) plus (b)->(d): after reaching c we must return to b.
        ops = plan_ops(
            "SELECT COUNT(*) FROM MATCH (a)->(b)->(c), MATCH (b)->(d) WHERE id(a) = 0"
        )
        assert any(isinstance(op, InspectOp) and op.var == "b" for op in ops)

    def test_plan_ends_with_output(self):
        ops = plan_ops("SELECT COUNT(*) FROM MATCH (a)->(b)")
        assert isinstance(ops[-1], OutputOp)

    def test_all_connectors_covered(self):
        ops = plan_ops("SELECT COUNT(*) FROM MATCH (a)->(b)->(c), MATCH (b)->(d)")
        traversals = [
            op for op in ops if isinstance(op, (NeighborMatchOp, EdgeMatchOp, RpqMatchOp))
        ]
        assert len(traversals) == 3

    def test_describe_is_printable(self):
        plan = Planner(
            parse("SELECT COUNT(*) FROM MATCH (a)-/:p{1,3}/->(b) WHERE id(a)=0")
        ).plan()
        text = plan.describe()
        assert "Rpq" in text and "Output" in text


class TestMacroShadowing:
    def test_macro_var_shadowing_match_var_rejected(self):
        q = parse(
            "PATH p AS (a)-[:X]->(y) "
            "SELECT COUNT(*) FROM MATCH (a)-/:p+/->(b)"
        )
        with pytest.raises(PlanningError):
            Planner(q)


class TestLabelHistogram:
    """Heuristic (ii) prices a label group at the fraction of the graph's
    vertices carrying it, read off the cached label histogram."""

    Q09R = (
        "SELECT COUNT(*) FROM MATCH (post:Post)<-/:REPLY_OF+/-(reply:Comment) "
        "WHERE reply.creationDate >= {lo}"
    )

    @pytest.mark.parametrize(
        "scale, posts, comments", [("xs", 51, 330), ("s", 200, 2062), ("m", 693, 6896)]
    )
    def test_q09r_starts_from_the_rarer_posts(self, scale, posts, comments):
        graph, info = mini_ldbc(scale, 7)
        counts = graph.statistics.vertices_per_label
        assert counts[graph.vertex_labels.id_of("Post")] == posts
        assert counts[graph.vertex_labels.id_of("Comment")] == comments
        # 693 posts against 6,896 x 0.4 recent replies at ``m``: the flat
        # 0.3 per label group priced the filtered replies cheaper.
        assert posts < comments * conjunct_selectivity(parse_expression("a.x >= 1"))
        compiler = PlanCompiler(parse(self.Q09R.format(lo=info.date_lo)), graph)
        assert compiler.logical.ops[0].var == "post"
        assert Planner(parse(self.Q09R.format(lo=info.date_lo))).plan().ops[0].var == "reply"

    def test_an_absent_label_never_ties_a_single_match(self):
        graph = mini_ldbc("xs", 7)[0]
        fraction = label_fractions(graph)
        assert fraction(("Ghost",)) == 0.5 / graph.num_vertices
        text = "SELECT COUNT(*) FROM MATCH (g:Ghost)-[:KNOWS]->(a:Person) WHERE id(a) = 3"
        planner = Planner(parse(text), graph=graph)
        ghost, anchor = (planner.pattern_graph.vertices[v] for v in ("g", "a"))
        assert vertex_score(ghost, fraction) > vertex_score(anchor, fraction) == 0.0
        assert planner.plan().ops[0].var == "a"

    def test_an_or_group_sums_its_labels_capped_at_one(self):
        b = GraphBuilder()
        for i in range(10):
            b.add_vertex("A" if i < 3 else "B", extra_labels=("C",) if i < 8 else ())
        fraction = label_fractions(b.build())
        assert fraction(("A",)) == 0.3 and fraction(("B",)) == 0.7
        assert fraction(("A", "Ghost")) == 0.3
        assert fraction(("A", "C")) == 1.0  # 11 of 10 vertices: capped
        assert fraction(("A", "B")) == 1.0

    def test_compile_reads_only_the_cached_statistics(self, monkeypatch):
        graph, info = mini_ldbc("xs", 7)
        graph.statistics  # scanned once per graph, before any compile

        def scan(*_args, **_kwargs):
            raise AssertionError("a compile scanned the graph")

        for name in ("vertices", "vertices_with_label", "vertex_has_label",
                     "neighbors", "neighbor_runs", "degree", "label_histogram"):
            monkeypatch.setattr(PropertyGraph, name, scan)
        for build in BENCHMARK_QUERIES.values():
            PlanCompiler(parse(build(info)), graph).compile()
