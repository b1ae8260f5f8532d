"""Forest segments run without a reachability index.

An RPQ segment of one hop over one directed label whose edges form a forest
(:meth:`GraphStatistics.forest`: functional one way or the other, acyclic)
reaches each ``(source path, destination)`` pair at most once, so the index
could never eliminate there.  The planner marks such a segment
(``RpqSpec.forest``), the machine builds no index shard for it under the
default ``use_reachability_index=None``, and the rows stay those of the
paper's RPQd (``True``) and of the BFT baseline.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import EngineConfig, GraphBuilder, Session
from repro.baselines import BftEngine
from repro.cli import main
from repro.errors import SanitizerViolation
from repro.graph import Direction
from repro.plan.compiler import IMPOSSIBLE_LABEL
from repro.runtime.machine import Machine

OUT, IN, BOTH = Direction.OUT, Direction.IN, Direction.BOTH


def build(n, edges):
    """``n`` vertices labelled ``N``; ``edges`` are ``(src, dst, label)``."""
    b = GraphBuilder()
    for i in range(n):
        b.add_vertex("N", idx=i)
    for src, dst, label in edges:
        b.add_edge(src, dst, label)
    return b.build()


def forest(graph, labels, direction):
    ids = tuple(graph.edge_labels.id_of(name) for name in labels)
    return graph.statistics.forest(ids, direction)


def specs(session, query):
    return session.compile(query).rpq_specs()


class TestForestStatistic:
    def test_chain_qualifies_both_ways(self):
        graph = build(5, [(i, i + 1, "L") for i in range(4)])
        assert forest(graph, ["L"], OUT) and forest(graph, ["L"], IN)

    def test_down_tree_qualifies(self):
        # Edges parent -> child: fan-out 3 along OUT, one predecessor each.
        graph = build(7, [(0, 1, "L"), (0, 2, "L"), (0, 3, "L"), (1, 4, "L"),
                          (1, 5, "L"), (3, 6, "L")])
        assert not graph.statistics.functional((0,), OUT)
        assert forest(graph, ["L"], OUT)

    def test_up_walk_on_functional_label_qualifies(self):
        # Reply-shaped: each child has one edge up to its parent.
        graph = build(6, [(1, 0, "R"), (2, 0, "R"), (3, 1, "R"), (4, 1, "R"), (5, 4, "R")])
        assert graph.statistics.functional((0,), OUT)
        assert forest(graph, ["R"], OUT)  # up to the root: a chain
        assert forest(graph, ["R"], IN)  # down the tree

    def test_ring_does_not_qualify(self):
        graph = build(4, [(0, 1, "L"), (1, 2, "L"), (2, 3, "L"), (3, 0, "L")])
        stats = graph.statistics
        assert stats.functional((0,), OUT) and stats.functional((0,), IN)
        assert not forest(graph, ["L"], OUT) and not forest(graph, ["L"], IN)

    def test_self_loop_does_not_qualify(self):
        graph = build(3, [(0, 1, "L"), (2, 2, "L")])
        assert not forest(graph, ["L"], OUT)

    def test_cycle_under_a_tail_does_not_qualify(self):
        # 0 -> 1 -> 2 -> 3 -> 1: every pointer but one starts off the cycle.
        graph = build(5, [(0, 1, "L"), (1, 2, "L"), (2, 3, "L"), (3, 1, "L")])
        assert not forest(graph, ["L"], OUT)

    def test_diamond_does_not_qualify(self):
        graph = build(4, [(0, 1, "L"), (0, 2, "L"), (1, 3, "L"), (2, 3, "L")])
        assert not forest(graph, ["L"], OUT) and not forest(graph, ["L"], IN)

    def test_both_and_multi_label_hops_never_qualify(self):
        graph = build(4, [(0, 1, "L"), (1, 2, "L"), (2, 3, "M")])
        assert forest(graph, ["L"], OUT) and forest(graph, ["M"], OUT)
        assert not forest(graph, ["L"], BOTH)
        assert not forest(graph, ["L", "M"], OUT)

    def test_label_no_edge_carries_qualifies(self):
        graph = build(3, [(0, 1, "L"), (1, 0, "L")])
        assert graph.statistics.forest((IMPOSSIBLE_LABEL,), OUT)
        with repro.connect(graph) as session:
            (spec,) = specs(session, "SELECT COUNT(*) FROM MATCH (a)-/:NOPE+/->(b)")
            assert spec.forest

    def test_acyclicity_is_read_off_the_statistics_scan(self):
        # One entry per label functional either way (not K: fan-out 2 both
        # ways), computed with the fan-outs; forest() reads it.
        graph = build(5, [(i, i + 1, "L") for i in range(4)]
                      + [(0, 1, "K"), (0, 2, "K"), (3, 2, "K")])
        assert graph.statistics._acyclic == {0: True}
        assert forest(graph, ["L"], OUT) and not forest(graph, ["K"], OUT)

    def test_each_segment_is_flagged_separately(self):
        # R is a reply-shaped forest, K a ring.
        graph = build(6, [(1, 0, "R"), (2, 1, "R"), (3, 4, "K"), (4, 5, "K"), (5, 3, "K")])
        with repro.connect(graph) as session:
            query = "SELECT COUNT(*) FROM MATCH (a)-/:R+/->(b)-/:K{1,2}/->(c)"
            assert [spec.forest for spec in specs(session, query)] == [True, False]
            query = "SELECT COUNT(*) FROM MATCH (a)-/:K+/->(b)<-/:R*/-(c)"
            assert [spec.forest for spec in specs(session, query)] == [False, True]
            # Two hops per repetition, or an unlabelled one, is never a forest.
            two = "PATH p AS (x)-[:R]->(y)-[:R]->(z) SELECT COUNT(*) FROM MATCH (a)-/:p+/->(b)"
            assert [spec.forest for spec in specs(session, two)] == [False]
            anything = "PATH p AS (x)-[]->(y) SELECT COUNT(*) FROM MATCH (a)-/:p+/->(b)"
            assert [spec.forest for spec in specs(session, anything)] == [False]

    def test_explain_names_the_forest(self):
        graph = build(3, [(1, 0, "R"), (2, 0, "R")])
        with repro.connect(graph) as session:
            text = session.explain("SELECT COUNT(*) FROM MATCH (a)<-/:R+/-(b)")
        (control,) = [line for line in text.splitlines() if "rpq_control" in line]
        assert control.endswith("index: none (forest)")

    @pytest.mark.parametrize(
        ("use_index", "note"),
        [(None, "index: none (forest)"), (True, None), (False, "index: none (disabled)")],
    )
    def test_explain_names_the_index_the_run_builds(self, use_index, note):
        # EXPLAIN and EXPLAIN ANALYZE both read the config the run used.
        graph = build(4, [(1, 0, "R"), (2, 0, "R"), (3, 1, "R")])
        query = "SELECT COUNT(*) FROM MATCH (a)<-/:R+/-(b)"
        with repro.connect(graph, use_reachability_index=use_index) as session:
            result = session.execute(query)
            for text in (session.explain(query), result.explain_analyze()):
                (control,) = [line for line in text.splitlines() if "rpq_control" in line]
                assert control.count("index:") == (note is not None)
                assert note is None or note in control
        assert (result.stats.index_entries > 0) == (use_index is True)


def reference_forest(graph, label):
    """The statistic by its definition, in plain loops: fan-out <= 1 one way
    or the other, and Kahn's algorithm removes every vertex of the label's
    subgraph (it has no cycle)."""
    edges = [(graph.edge_src[e], graph.edge_dst[e]) for e in range(graph.num_edges)
             if graph.edge_label_name(e) == label]
    outs, ins = {}, {}
    for src, dst in edges:
        outs.setdefault(src, []).append(dst)
        ins[dst] = ins.get(dst, 0) + 1
    if max(map(len, outs.values()), default=0) > 1 and max(ins.values(), default=0) > 1:
        return False
    ready = [v for v in range(graph.num_vertices) if v not in ins]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for dst in outs.get(v, ()):
            ins[dst] -= 1
            if ins[dst] == 0:
                ready.append(dst)
    return removed == graph.num_vertices


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
        shape=st.sampled_from(["up", "down", "functional", "random"]),
    )
    def test_pointer_doubling_matches_the_loop(self, seed, n, shape):
        rng = random.Random(seed)
        if shape == "up":  # child -> parent, maybe one back edge
            edges = [(v, rng.randrange(v), "L") for v in range(1, n)]
        elif shape == "down":  # parent -> child
            edges = [(rng.randrange(v), v, "L") for v in range(1, n)]
        elif shape == "functional":  # one out-edge per vertex: cycles likely
            edges = [(v, rng.randrange(n), "L") for v in range(n) if rng.random() < 0.7]
        else:
            edges = [(rng.randrange(n), rng.randrange(n), "L") for _ in range(n)]
        if shape in ("up", "down") and n > 2 and rng.random() < 0.3:
            edges.append((0, n - 1, "L") if shape == "up" else (n - 1, 0, "L"))
        graph = build(n, edges + [(0, 0, "M")])
        expected = reference_forest(graph, "L")
        assert forest(graph, ["L"], OUT) is expected
        assert forest(graph, ["L"], IN) is expected


def random_forest(n, seed):
    """A reply-shaped forest under ``R`` (each vertex but the roots has one
    edge up to a lower id) plus a cyclic ``X`` noise label."""
    rng = random.Random(seed)
    edges = [(v, rng.randrange(v), "R") for v in range(1, n) if rng.random() < 0.85]
    edges += [(rng.randrange(n), rng.randrange(n), "X") for _ in range(n)]
    return build(n, edges)


def random_cyclic(n, seed):
    """``R`` functional outward (one out-edge per vertex) and so cyclic, or
    a random multigraph: never a forest."""
    rng = random.Random(seed)
    if seed % 2:
        edges = [(v, rng.randrange(n), "R") for v in range(n)]
    else:
        edges = [(rng.randrange(n), rng.randrange(n), "R") for _ in range(2 * n)]
    return build(n, edges)


QUANTIFIERS = st.one_of(
    st.just("+"),
    st.just("*"),
    st.integers(0, 3).map(lambda lo: f"{{{lo},}}"),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda t: f"{{{t[0]},{t[0] + t[1]}}}"
    ),
)


def rows(result):
    return sorted(map(repr, result.rows))


class TestRowsMatchTheIndexedRun:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 24),
        shape=st.sampled_from(["forest", "cyclic"]),
        quantifier=QUANTIFIERS,
        arrow=st.sampled_from(["-/:R{}/->", "<-/:R{}/-"]),
        machines=st.sampled_from([1, 3]),
    )
    def test_default_equals_paper_index_and_bft(self, seed, n, shape, quantifier, arrow, machines):
        graph = (random_forest if shape == "forest" else random_cyclic)(n, seed)
        query = f"SELECT id(a), id(b) FROM MATCH (a){arrow.format(quantifier)}(b)"
        with repro.connect(graph, num_machines=machines) as session:
            (spec,) = specs(session, query)
            assert spec.forest == (shape == "forest")
            default = session.execute(query)
            paper = session.execute(query, config=session.config.with_(use_reachability_index=True))
        assert rows(default) == rows(paper) == rows(BftEngine(graph).execute(query))
        assert default.stats.index_entries == (0 if spec.forest else paper.stats.index_entries)


def reply_tree():
    return build(8, [(1, 0, "R"), (2, 0, "R"), (3, 1, "R"), (4, 1, "R"), (5, 4, "R"),
                     (7, 6, "R")])


FOREST_QUERY = "SELECT id(a), id(b) FROM MATCH (a)<-/:R*/-(b)"


class TestRuntime:
    def test_forest_segment_gets_no_index_shard(self):
        graph = reply_tree()
        session = Session(graph, EngineConfig(num_machines=2))
        plan = session.compile(FOREST_QUERY)
        for use, built in ((None, False), (True, True), (False, False)):
            config = session.config.with_(use_reachability_index=use)
            machine = Machine(0, session.dgraph, plan, config, None, None)
            (controller,) = machine.controllers.values()
            assert bool(machine.indexes) is built
            assert (controller.index is not None) is built

    def test_default_charges_entry_cost_only(self):
        graph = reply_tree()
        with repro.connect(graph, num_machines=2) as session:
            default = session.execute(FOREST_QUERY)
            paper = session.execute(
                FOREST_QUERY, config=session.config.with_(use_reachability_index=True)
            )
            ablation = session.execute(
                FOREST_QUERY, config=session.config.with_(use_reachability_index=False)
            )
        assert default.stats.index_entries == 0 and paper.stats.index_entries > 0
        assert default.stats.cost_units_total() < paper.stats.cost_units_total()
        assert default.stats.cost_units_total() == ablation.stats.cost_units_total()

    def test_process_backend_builds_no_shard_either(self):
        graph = reply_tree()
        with repro.connect(graph, num_machines=2, backend="process", workers=2) as session:
            result = session.execute(FOREST_QUERY)
        assert result.stats.index_entries == 0
        assert rows(result) == rows(BftEngine(graph).execute(FOREST_QUERY))


class TestSanitizer:
    def test_sanitized_forest_run_is_cost_identical(self):
        graph = random_forest(40, 3)
        query = "SELECT id(a), id(b) FROM MATCH (a)<-/:R+/-(b)"
        with repro.connect(graph, num_machines=3) as session:
            plain = session.execute(query)
            checked = session.execute(query, config=session.config.with_(sanitize=True))
        assert rows(plain) == rows(checked)
        assert plain.stats.cost_units_total() == checked.stats.cost_units_total()
        assert plain.stats.virtual_time == checked.stats.virtual_time

    def test_second_entry_for_a_pair_fails(self):
        # A diamond reaches 3 from 0 twice; a plan wrongly marked a forest
        # must fail the sanitizer, not report the pair twice.
        graph = build(4, [(0, 1, "L"), (0, 2, "L"), (1, 3, "L"), (2, 3, "L")])
        query = "SELECT id(a), id(b) FROM MATCH (a)-/:L+/->(b) WHERE id(a) = 0"
        with repro.connect(graph, num_machines=2) as session:
            (spec,) = specs(session, query)
            assert not spec.forest
            spec.forest = True  # the cached plan the next run executes
            assert len(session.execute(query).rows) == 4  # (0, 3) twice
            with pytest.raises(SanitizerViolation, match=r"\(rpid, vertex\) once"):
                session.execute(query, config=session.config.with_(sanitize=True))


class TestConfig:
    @pytest.mark.parametrize("value", [None, True, False])
    def test_three_values(self, value):
        assert EngineConfig(use_reachability_index=value).use_reachability_index is value

    def test_default_is_the_planner_choice(self):
        assert EngineConfig().use_reachability_index is None

    def test_cli_default_lets_the_planner_skip_the_index(self, tmp_path, capsys):
        path = tmp_path / "g.jsonl"
        assert main(["generate", str(path), "--scale", "xs", "--seed", "3"]) == 0
        capsys.readouterr()

        def entries(query):
            assert main(["query", str(path), query, "--stats"]) == 0
            stats = capsys.readouterr().err  # the --stats summary
            return int(stats.split("'index_entries': ")[1].split(",")[0])

        assert entries("SELECT COUNT(*) FROM MATCH (p:Post)<-/:REPLY_OF+/-(c:Comment)") == 0
        assert entries("SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b:Person)") > 0
