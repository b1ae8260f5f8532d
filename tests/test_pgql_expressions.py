"""Unit tests for expression compilation and NULL semantics."""

import pytest

from repro.errors import PlanningError
from repro.graph import GraphBuilder
from repro.pgql import DictBinder, EvalState, compile_expr, parse_expression


@pytest.fixture
def graph():
    b = GraphBuilder()
    b.add_vertex("Person", name="Ann", age=30)
    b.add_vertex("Person", name="Bob")  # age missing -> None
    b.add_vertex("City", name="Oslo")
    return b.build()


def evaluate(graph, text, binding):
    fn = compile_expr(parse_expression(text), DictBinder(graph))
    return fn(EvalState(ctx=binding))


class TestEvaluation:
    def test_property_comparison(self, graph):
        assert evaluate(graph, "a.age >= 18", {"a": 0}) is True
        assert evaluate(graph, "a.age < 18", {"a": 0}) is False

    def test_null_comparisons_are_false(self, graph):
        # Bob has no age: every comparison with NULL is false.
        assert evaluate(graph, "a.age >= 18", {"a": 1}) is False
        assert evaluate(graph, "a.age < 18", {"a": 1}) is False
        assert evaluate(graph, "a.age = a.age", {"a": 1}) is False

    def test_mixed_type_comparison_is_false(self, graph):
        assert evaluate(graph, "a.name > 5", {"a": 0}) is False

    def test_arithmetic(self, graph):
        assert evaluate(graph, "a.age + 5", {"a": 0}) == 35
        assert evaluate(graph, "a.age * 2 - 10", {"a": 0}) == 50

    def test_arithmetic_null_propagates(self, graph):
        assert evaluate(graph, "a.age + 5", {"a": 1}) is None

    def test_division_by_zero_is_null(self, graph):
        assert evaluate(graph, "a.age / 0", {"a": 0}) is None

    def test_boolean_connectives(self, graph):
        assert evaluate(graph, "a.age = 30 AND a.name = 'Ann'", {"a": 0}) is True
        assert evaluate(graph, "a.age = 31 OR a.name = 'Ann'", {"a": 0}) is True
        assert evaluate(graph, "NOT a.age = 31", {"a": 0}) is True

    def test_id_function(self, graph):
        assert evaluate(graph, "id(a) = 2", {"a": 2}) is True

    def test_label_function(self, graph):
        assert evaluate(graph, "label(a) = 'City'", {"a": 2}) is True

    def test_scalar_functions(self, graph):
        assert evaluate(graph, "abs(0 - a.age)", {"a": 0}) == 30
        assert evaluate(graph, "lower(a.name)", {"a": 0}) == "ann"
        assert evaluate(graph, "upper(a.name)", {"a": 0}) == "ANN"
        assert evaluate(graph, "length(a.name)", {"a": 0}) == 3
        assert evaluate(graph, "coalesce(a.age, 0)", {"a": 1}) == 0

    def test_unbound_variable_reads_none(self, graph):
        assert evaluate(graph, "z.age = 30", {"a": 0}) is False

    def test_var_equality_compares_ids(self, graph):
        assert evaluate(graph, "a = b", {"a": 0, "b": 0}) is True
        assert evaluate(graph, "a = b", {"a": 0, "b": 1}) is False


class TestCompileErrors:
    def test_aggregate_in_filter_rejected(self, graph):
        with pytest.raises(PlanningError):
            compile_expr(parse_expression("COUNT(*)"), DictBinder(graph))

    def test_unknown_function(self, graph):
        with pytest.raises(PlanningError):
            compile_expr(parse_expression("frobnicate(a)"), DictBinder(graph))

    def test_label_of_non_var_rejected(self, graph):
        with pytest.raises(PlanningError):
            compile_expr(parse_expression("label(a.x)"), DictBinder(graph))

