"""Tests for the LDBC-like generator and the benchmark workload queries."""

import pytest

from repro import EngineConfig, Session
from repro.baselines import BftEngine, RecursiveEngine
from repro.datagen import (
    BENCHMARK_QUERIES,
    FIGURE3_HOPS,
    LdbcParams,
    generate_ldbc,
    mini_ldbc,
    reply_depth_query,
    schema,
)
from repro.graph import Direction


@pytest.fixture(scope="module")
def xs():
    return mini_ldbc("xs")


class TestGenerator:
    def test_deterministic(self):
        g1, i1 = mini_ldbc("xs", seed=5)
        g2, i2 = mini_ldbc("xs", seed=5)
        assert g1.num_vertices == g2.num_vertices
        assert g1.num_edges == g2.num_edges
        assert g1.edge_src == g2.edge_src
        assert i1.start_person == i2.start_person

    def test_different_seeds_differ(self):
        g1, _ = mini_ldbc("xs", seed=5)
        g2, _ = mini_ldbc("xs", seed=6)
        assert g1.edge_src != g2.edge_src

    def test_counts_consistent(self, xs):
        g, info = xs
        hist = g.label_histogram()
        assert hist[schema.PERSON] == info.counts["persons"]
        assert hist[schema.POST] == info.counts["posts"]
        assert info.counts["vertices"] == g.num_vertices

    def test_message_supertype(self, xs):
        g, _ = xs
        message = g.vertex_labels.id_of(schema.MESSAGE)
        post = g.vertex_labels.id_of(schema.POST)
        comment = g.vertex_labels.id_of(schema.COMMENT)
        n_posts = sum(1 for _ in g.vertices_with_label(post))
        n_comments = sum(1 for _ in g.vertices_with_label(comment))
        n_messages = sum(1 for _ in g.vertices_with_label(message))
        assert n_messages == n_posts + n_comments

    def test_reply_trees_are_forests(self, xs):
        # Every comment has exactly one REPLY_OF out-edge (a tree parent).
        g, _ = xs
        reply = g.edge_labels.id_of(schema.REPLY_OF)
        comment = g.vertex_labels.id_of(schema.COMMENT)
        for v in g.vertices_with_label(comment):
            out = [n for n, _ in g.neighbors(v, Direction.OUT, reply)]
            assert len(out) == 1

    def test_every_person_has_a_city(self, xs):
        g, _ = xs
        located = g.edge_labels.id_of(schema.LOCATED_IN)
        person = g.vertex_labels.id_of(schema.PERSON)
        for v in g.vertices_with_label(person):
            assert g.degree(v, Direction.OUT) >= 1
            assert any(True for _ in g.neighbors(v, Direction.OUT, located))

    def test_narrow_country_is_small(self, xs):
        g, info = xs
        # Persons located in the narrow country are a small minority.
        country_label = g.vertex_labels.id_of(schema.COUNTRY)
        narrow = next(
            v
            for v in g.vertices_with_label(country_label)
            if g.vprops.get("name", v) == info.narrow_country
        )
        part_of = g.edge_labels.id_of(schema.IS_PART_OF)
        located = g.edge_labels.id_of(schema.LOCATED_IN)
        persons_in_narrow = 0
        for city, _ in g.neighbors(narrow, Direction.IN, part_of):
            persons_in_narrow += sum(1 for _ in g.neighbors(city, Direction.IN, located))
        assert 0 < persons_in_narrow < info.counts["persons"] * 0.25

    def test_start_person_has_high_degree(self, xs):
        g, info = xs
        knows = g.edge_labels.id_of(schema.KNOWS)
        start_degree = sum(1 for _ in g.neighbors(info.start_person, Direction.BOTH, knows))
        assert start_degree >= 3

    def test_custom_params(self):
        g, info = generate_ldbc(LdbcParams(num_persons=50, num_forums=5, seed=1))
        assert info.counts["persons"] == 50

    def test_reply_depth_histogram_decays(self):
        g, info = mini_ldbc("s")
        eng = Session(g, EngineConfig(num_machines=2))
        r = eng.execute(BENCHMARK_QUERIES["Q09"](info))
        table = r.stats.depth_table(0)
        matches = [row[1] for row in table]
        # Tail decays: the last depth has far fewer matches than the peak.
        assert max(matches) > 5 * matches[-1]


class TestWorkloads:
    def test_nine_queries(self):
        assert len(BENCHMARK_QUERIES) == 9
        assert [n for n in BENCHMARK_QUERIES if n.endswith("*")] == [
            "Q03*", "Q09*", "Q10*",
        ]

    @pytest.mark.parametrize("name", list(BENCHMARK_QUERIES))
    def test_query_parses_and_runs_everywhere(self, xs, name):
        g, info = xs
        query = BENCHMARK_QUERIES[name](info)
        rpqd = Session(g, EngineConfig(num_machines=2)).execute(query)
        bft = BftEngine(g).execute(query)
        rec = RecursiveEngine(g).execute(query)
        assert rpqd.rows == bft.rows == rec.rows

    def test_reply_depth_query_quantifiers(self):
        assert "{0}" in reply_depth_query(0, 0)
        assert "{1,3}" in reply_depth_query(1, 3)

    def test_figure3_hops_cover_paper_axis(self):
        assert (0, 0) in FIGURE3_HOPS
        assert (3, 3) in FIGURE3_HOPS
        assert len(FIGURE3_HOPS) == 10

    def test_q10_results_nonempty(self, xs):
        g, info = xs
        r = Session(g, EngineConfig(num_machines=2)).execute(
            BENCHMARK_QUERIES["Q10"](info)
        )
        assert r.scalar() > 0
