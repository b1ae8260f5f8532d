"""Tests for the extended SQL surface: IN, BETWEEN, IS NULL, HAVING."""

import pytest

from repro import EngineConfig, GraphBuilder, PlanningError, Session
from repro.baselines import BftEngine, DistributedBftEngine, RecursiveEngine
from repro.pgql import parse, parse_expression
from repro.pgql.ast import Binary, InList, IsNull, Unary
from repro.pgql.expressions import compile_expr, DictBinder, EvalState


@pytest.fixture(scope="module")
def graph():
    b = GraphBuilder()
    cities = ["Oslo", "Rome", "Oslo", None, "Pisa", "Rome", "Oslo"]
    people = []
    for i, city in enumerate(cities):
        props = {"idx": i}
        if city is not None:
            props["city"] = city
        people.append(b.add_vertex("Person", **props))
    for i in range(len(people) - 1):
        b.add_edge(people[i], people[i + 1], "KNOWS")
    return b.build()


@pytest.fixture(scope="module")
def engine(graph):
    return Session(graph, EngineConfig(num_machines=2))


class TestInList:
    def test_parse(self):
        e = parse_expression("a.city IN ('Oslo', 'Rome')")
        assert isinstance(e, InList)
        assert e.values == ("Oslo", "Rome")
        assert not e.negated

    def test_parse_not_in(self):
        e = parse_expression("a.x NOT IN (1, 2, -3)")
        assert e.negated
        assert e.values == (1, 2, -3)

    def test_non_literal_rejected(self):
        with pytest.raises(Exception):
            parse_expression("a.x IN (b.y)")

    def test_execute(self, engine):
        r = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a:Person) WHERE a.city IN ('Oslo', 'Pisa')"
        )
        assert r.scalar() == 4

    def test_not_in_excludes_null(self, engine):
        # SQL semantics: NULL NOT IN (...) is unknown, i.e. filtered out.
        r = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a:Person) WHERE a.city NOT IN ('Oslo')"
        )
        assert r.scalar() == 3  # Rome, Pisa, Rome — not the NULL city

    def test_round_trip(self):
        e = parse_expression("a.city IN ('x')")
        assert parse_expression(str(e)) == e


class TestBetween:
    def test_parse_desugars(self):
        e = parse_expression("a.x BETWEEN 1 AND 5")
        assert isinstance(e, Binary) and e.op == "and"
        assert e.left.op == ">=" and e.right.op == "<="

    def test_not_between(self):
        e = parse_expression("a.x NOT BETWEEN 1 AND 5")
        assert isinstance(e, Unary) and e.op == "not"

    def test_binds_tighter_than_boolean_and(self):
        e = parse_expression("a.x BETWEEN 1 AND 5 AND a.y = 2")
        assert e.op == "and"
        assert e.right.op == "="

    def test_execute(self, engine):
        r = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a:Person) WHERE a.idx BETWEEN 2 AND 4"
        )
        assert r.scalar() == 3


class TestIsNull:
    def test_parse(self):
        e = parse_expression("a.city IS NULL")
        assert isinstance(e, IsNull) and not e.negated
        e2 = parse_expression("a.city IS NOT NULL")
        assert e2.negated

    def test_evaluate(self, graph):
        fn = compile_expr(parse_expression("a.city IS NULL"), DictBinder(graph))
        assert fn(EvalState(ctx={"a": 3})) is True
        assert fn(EvalState(ctx={"a": 0})) is False

    def test_execute(self, engine):
        r = engine.execute("SELECT COUNT(*) FROM MATCH (a:Person) WHERE a.city IS NULL")
        assert r.scalar() == 1
        r = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a:Person) WHERE a.city IS NOT NULL"
        )
        assert r.scalar() == 6


class TestHaving:
    QUERY = (
        "SELECT a.city, COUNT(*) FROM MATCH (a:Person) "
        "WHERE a.city IS NOT NULL GROUP BY a.city HAVING COUNT(*) >= 2"
    )

    def test_execute(self, engine):
        r = engine.execute(self.QUERY)
        assert dict(r.rows) == {"Oslo": 3, "Rome": 2}

    def test_having_with_alias(self, engine):
        r = engine.execute(
            "SELECT a.city AS c, COUNT(*) FROM MATCH (a:Person) "
            "WHERE a.city IS NOT NULL GROUP BY a.city HAVING c = 'Pisa'"
        )
        assert r.rows == [("Pisa", 1)]

    def test_having_arithmetic(self, engine):
        r = engine.execute(
            "SELECT a.city, COUNT(*) FROM MATCH (a:Person) "
            "WHERE a.city IS NOT NULL GROUP BY a.city HAVING COUNT(*) * 2 > 4"
        )
        assert dict(r.rows) == {"Oslo": 3}

    def test_having_unresolvable_rejected(self, engine):
        with pytest.raises(PlanningError):
            engine.execute(
                "SELECT a.city, COUNT(*) FROM MATCH (a:Person) "
                "GROUP BY a.city HAVING SUM(a.idx) > 3"
            )

    def test_baselines_agree(self, graph, engine):
        expected = engine.execute(self.QUERY).rows
        assert BftEngine(graph).execute(self.QUERY).rows == expected
        assert RecursiveEngine(graph).execute(self.QUERY).rows == expected

    def test_round_trip(self):
        q = parse(self.QUERY)
        assert "HAVING" in str(q)
        assert str(parse(str(q))) == str(q)

    # Groups of ``GROUP BY a.city``: Oslo 3, Rome 2, Pisa 1, NULL 1.
    GROUPED = "SELECT a.city, COUNT(*) FROM MATCH (a:Person) GROUP BY a.city HAVING "

    @pytest.mark.parametrize(
        "having, expected",
        [
            ("NOT COUNT(*) >= 2", {("Pisa", 1), (None, 1)}),
            ("-COUNT(*) < -2", {("Oslo", 3)}),
            ("COUNT(*) >= 2 AND a.city <> 'Oslo'", {("Rome", 2)}),
            ("COUNT(*) = 3 OR a.city = 'Pisa'", {("Oslo", 3), ("Pisa", 1)}),
            ("a.city IN ('Rome', 'Pisa')", {("Rome", 2), ("Pisa", 1)}),
            ("a.city NOT IN ('Rome')", {("Oslo", 3), ("Pisa", 1)}),
            ("a.city IS NULL", {(None, 1)}),
            ("a.city IS NOT NULL AND COUNT(*) < 2", {("Pisa", 1)}),
            ("COUNT(*) * 2 - 1 > 4", {("Oslo", 3)}),
            ("COUNT(*) % 2 = 0", {("Rome", 2)}),
        ],
    )
    def test_operators_on_every_engine(self, graph, engine, having, expected):
        query = self.GROUPED + having
        for runner in (engine, *baselines(graph)):
            assert set(runner.execute(query).rows) == expected, runner

    def test_aliases_on_every_engine(self, graph, engine):
        query = (
            "SELECT a.city AS c, COUNT(*) AS n FROM MATCH (a:Person) "
            "GROUP BY a.city HAVING n > 1 AND c <> 'Rome'"
        )
        for runner in (engine, *baselines(graph)):
            assert runner.execute(query).rows == [("Oslo", 3)], runner

    def test_having_and_order_by_resolve_a_shared_alias_alike(self, graph, engine):
        # Both resolve a name to the first SELECT item it names.
        query = (
            "SELECT a.city AS c, a.idx AS c FROM MATCH (a:Person) "
            "HAVING c = 'Oslo' ORDER BY c"
        )
        for runner in (engine, *baselines(graph)):
            assert set(runner.execute(query).rows) == {
                ("Oslo", 0), ("Oslo", 2), ("Oslo", 6)
            }, runner

    @pytest.mark.parametrize(
        "having",
        ["a.idx > 3", "LOWER(a.city) = 'oslo'", "SUM(a.idx) > 3", "a IS NOT NULL"],
        ids=["property", "function", "aggregate", "variable"],
    )
    def test_unmatched_items_rejected_on_every_engine(self, graph, engine, having):
        for runner in (engine, *baselines(graph)):
            with pytest.raises(PlanningError):
                runner.execute(self.GROUPED + having)


def baselines(graph):
    return BftEngine(graph), RecursiveEngine(graph), DistributedBftEngine(graph)


class TestLabelOfEdge:
    @pytest.fixture(scope="class")
    def graph(self):
        b = GraphBuilder()
        a = b.add_vertex("Person")
        c = b.add_vertex("City")
        d = b.add_vertex("Person")
        b.add_edge(a, c, "LIVES_IN")
        b.add_edge(d, a, "KNOWS")
        return b.build()

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT LABEL(e), id(x) FROM MATCH (x)-[e]->(y)",
            "SELECT id(x) FROM MATCH (x)-[e]->(y) WHERE LABEL(e) = 'KNOWS'",
            "SELECT LABELS(e), COUNT(*) FROM MATCH (x)-[e]->(y) GROUP BY LABELS(e)",
            "PATH p AS (u)-[e]->(w) WHERE LABEL(e) = 'KNOWS' "
            "SELECT COUNT(*) FROM MATCH (x)-/:p+/->(y)",
        ],
        ids=["select", "where", "labels", "macro"],
    )
    def test_is_a_planning_error_on_every_engine(self, graph, query):
        for runner in (Session(graph, EngineConfig(num_machines=2)), *baselines(graph)):
            with pytest.raises(PlanningError, match="edge variable"):
                runner.execute(query)

    def test_label_of_a_vertex_still_works(self, graph):
        query = "SELECT LABEL(y), COUNT(*) FROM MATCH (x)-[e]->(y) GROUP BY LABEL(y)"
        expected = [("City", 1), ("Person", 1)]
        for runner in (Session(graph, EngineConfig(num_machines=2)), *baselines(graph)):
            assert runner.execute(query).rows == expected, runner


class TestCrossFilterOnAnOuterEdge:
    """A cross filter of an RPQ segment reads a MATCH edge bound before it."""

    @staticmethod
    def chain(weight):
        # 0 -R-> 1 -K-> 2 -K-> 3 -K-> 4: vertex i has w = i, the K edge
        # leaving vertex i has w = i, the R edge has w = ``weight``.
        b = GraphBuilder()
        vs = [b.add_vertex("N", w=i) for i in range(5)]
        b.add_edge(vs[0], vs[1], "R", w=weight)
        for i in range(1, 4):
            b.add_edge(vs[i], vs[i + 1], "K", w=i)
        return b.build()

    @pytest.mark.parametrize(
        "query",
        [
            "PATH p AS (x)-[e:K]->(y) WHERE e.w < r.w "
            "SELECT id(a), id(c) FROM MATCH (a)-[r:R]->(bb)-/:p+/->(c)",
            "PATH p AS (x)-[:K]->(y) "
            "SELECT id(a), id(c) FROM MATCH (a)-[r:R]->(bb)-/:p+/->(c) WHERE x.w < r.w",
        ],
        ids=["macro_where", "outer_where"],
    )
    @pytest.mark.parametrize(
        "weight, expected",
        [(10, [(0, 2), (0, 3), (0, 4)]), (3, [(0, 2), (0, 3)])],
        ids=["every_hop", "two_hops"],
    )
    def test_every_engine_returns_the_rows(self, query, weight, expected):
        graph = self.chain(weight)
        for runner in (Session(graph, EngineConfig(num_machines=2)), *baselines(graph)):
            assert sorted(runner.execute(query).rows) == expected, runner
