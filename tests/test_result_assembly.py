"""Unit tests for result sinks, aggregation merging, and final assembly."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.result import (
    MachineSink,
    ResultSet,
    _AggAccumulator,
    assemble_results,
)
from repro.errors import ExecutionError
from repro.pgql.expressions import EvalState
from repro.plan.stages import ProjectionSpec


def plain_plan(num_cols=2, distinct=False, order_by=(), limit=None):
    class Plan:
        pass

    plan = Plan()
    plan.has_aggregates = False
    plan.group_by = ()
    plan.order_by = order_by
    plan.limit = limit
    plan.distinct = distinct
    plan.projections = tuple(
        ProjectionSpec(name=f"c{i}", compiled=(lambda i: lambda s: s.ctx[i])(i))
        for i in range(num_cols)
    )
    return plan


class TestAccumulators:
    def test_count_ignores_none_unless_star(self):
        star = _AggAccumulator("count", distinct=False)
        star.update(None, is_star=True)
        assert star.result() == 1
        arg = _AggAccumulator("count", distinct=False)
        arg.update(None, is_star=False)
        arg.update(5, is_star=False)
        assert arg.result() == 1

    def test_sum_avg_min_max(self):
        for func, expected in [("sum", 9), ("avg", 3.0), ("min", 1), ("max", 5)]:
            acc = _AggAccumulator(func, distinct=False)
            for v in (1, 3, 5, None):
                acc.update(v, is_star=False)
            assert acc.result() == expected

    def test_empty_aggregates(self):
        assert _AggAccumulator("count", False).result() == 0
        assert _AggAccumulator("sum", False).result() is None
        assert _AggAccumulator("min", False).result() is None

    def test_distinct_count(self):
        acc = _AggAccumulator("count", distinct=True)
        for v in (1, 1, 2, None, 2):
            acc.update(v, is_star=False)
        assert acc.result() == 2

    def test_distinct_sum_and_avg(self):
        acc = _AggAccumulator("sum", distinct=True)
        for v in (2, 2, 3):
            acc.update(v, is_star=False)
        assert acc.result() == 5
        avg = _AggAccumulator("avg", distinct=True)
        for v in (2, 2, 4):
            avg.update(v, is_star=False)
        assert avg.result() == 3.0

    def test_merge(self):
        a = _AggAccumulator("min", False)
        b = _AggAccumulator("min", False)
        a.update(5, False)
        b.update(2, False)
        a.merge(b)
        assert a.result() == 2


class TestAssembly:
    def test_rows_merge_across_sinks_sorted(self):
        plan = plain_plan()
        s1, s2 = MachineSink(plan), MachineSink(plan)
        s1.add([3, "c"])
        s2.add([1, "a"])
        s2.add([2, "b"])
        rs = assemble_results(plan, [s1, s2])
        assert rs.rows == [(1, "a"), (2, "b"), (3, "c")]

    def test_distinct_dedups(self):
        plan = plain_plan(distinct=True)
        sink = MachineSink(plan)
        for row in ([1, "x"], [1, "x"], [2, "y"]):
            sink.add(row)
        rs = assemble_results(plan, [sink])
        assert len(rs) == 2

    def test_order_by_none_sorts_last(self):
        plan = plain_plan(order_by=((0, False),))
        sink = MachineSink(plan)
        for row in ([None, "n"], [2, "b"], [1, "a"]):
            sink.add(row)
        rs = assemble_results(plan, [sink])
        assert rs.column(0) == [1, 2, None]

    def test_order_by_descending_then_secondary(self):
        plan = plain_plan(order_by=((0, True), (1, False)))
        sink = MachineSink(plan)
        for row in ([1, "b"], [2, "z"], [1, "a"]):
            sink.add(row)
        rs = assemble_results(plan, [sink])
        assert rs.rows == [(2, "z"), (1, "a"), (1, "b")]

    def test_limit(self):
        plan = plain_plan(limit=2)
        sink = MachineSink(plan)
        for i in range(5):
            sink.add([i, "x"])
        rs = assemble_results(plan, [sink])
        assert len(rs) == 2

    def test_mixed_type_sort_is_stable_and_total(self):
        plan = plain_plan(order_by=((0, False),))
        sink = MachineSink(plan)
        for row in (["b", 1], [2, 2], [None, 3], ["a", 4], [1, 5]):
            sink.add(row)
        rs = assemble_results(plan, [sink])
        # numbers first, then strings, then NULLs
        assert rs.column(0) == [1, 2, "a", "b", None]


class TestResultSet:
    def test_scalar_requires_1x1(self):
        rs = ResultSet(["a", "b"], [(1, 2)])
        with pytest.raises(ExecutionError):
            rs.scalar()
        rs2 = ResultSet(["a"], [(1,), (2,)])
        with pytest.raises(ExecutionError):
            rs2.scalar()
        assert ResultSet(["a"], [(7,)]).scalar() == 7

    def test_column_by_name_and_index(self):
        rs = ResultSet(["x", "y"], [(1, "a"), (2, "b")])
        assert rs.column("y") == ["a", "b"]
        assert rs.column(0) == [1, 2]

    def test_to_dicts(self):
        rs = ResultSet(["x"], [(1,)])
        assert rs.to_dicts() == [{"x": 1}]

    def test_to_csv_string(self):
        rs = ResultSet(["x", "y"], [(1, "a,b"), (None, "c")])
        text = rs.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == '1,"a,b"'  # embedded comma quoted

    def test_to_csv_file(self, tmp_path):
        rs = ResultSet(["x"], [(1,), (2,)])
        path = tmp_path / "out.csv"
        assert rs.to_csv(path) is None
        assert path.read_text().strip().splitlines() == ["x", "1", "2"]

    def test_to_json(self):
        import json

        rs = ResultSet(["x"], [(1,), (None,)])
        assert json.loads(rs.to_json()) == [{"x": 1}, {"x": None}]

    def test_repr(self):
        assert "rows=2" in repr(ResultSet(["x"], [(1,), (2,)]))


class TestGroupedAssembly:
    def make_grouped_plan(self):
        class Plan:
            pass

        plan = Plan()
        plan.has_aggregates = True
        plan.group_by = (lambda s: s.ctx[0],)
        plan.order_by = ()
        plan.limit = None
        plan.distinct = False
        plan.projections = (
            ProjectionSpec(name="key", compiled=lambda s: s.ctx[0]),
            ProjectionSpec(name="n", compiled=None, aggregate="count"),
            ProjectionSpec(name="total", compiled=lambda s: s.ctx[1], aggregate="sum"),
        )
        return plan

    def test_group_merge_across_machines(self):
        plan = self.make_grouped_plan()
        s1, s2 = MachineSink(plan), MachineSink(plan)
        s1.add(["a", 1])
        s1.add(["b", 2])
        s2.add(["a", 3])
        rs = assemble_results(plan, [s1, s2])
        assert dict((k, (n, t)) for k, n, t in rs.rows) == {
            "a": (2, 4),
            "b": (1, 2),
        }

    def test_group_keys_sorted_deterministically(self):
        plan = self.make_grouped_plan()
        sink = MachineSink(plan)
        for key in ("z", "a", "m"):
            sink.add([key, 1])
        rs = assemble_results(plan, [sink])
        assert rs.column("key") == ["a", "m", "z"]


def _shaped_plan(projections, group_by=(), distinct=False):
    class Plan:
        pass

    plan = Plan()
    plan.projections = tuple(projections)
    plan.has_aggregates = any(p.aggregate for p in projections)
    plan.group_by = tuple(group_by)
    plan.order_by = ()
    plan.limit = None
    plan.distinct = distinct
    return plan


def _slot(i):
    return lambda s: s.ctx[i]


def _agg(func, distinct=False):
    return ProjectionSpec(name=func, compiled=_slot(1), aggregate=func, distinct=distinct)


#: Every projection shape a plan can hand the sink: ``ctx`` is ``[key, value]``.
SINK_SHAPES = {
    "rows": _shaped_plan([ProjectionSpec("k", _slot(0)), ProjectionSpec("v", _slot(1))]),
    "distinct_rows": _shaped_plan([ProjectionSpec("k", _slot(0))], distinct=True),
    "count_star": _shaped_plan([ProjectionSpec("n", None, aggregate="count")]),
    "two_count_stars": _shaped_plan(
        [ProjectionSpec("n", None, aggregate="count"), ProjectionSpec("m", None, aggregate="count")]
    ),
    "count_x": _shaped_plan([_agg("count")]),
    "count_distinct_x": _shaped_plan([_agg("count", distinct=True)]),
    "sum": _shaped_plan([_agg("sum")]),
    "sum_distinct": _shaped_plan([_agg("sum", distinct=True)]),
    "avg": _shaped_plan([_agg("avg")]),
    "min": _shaped_plan([_agg("min")]),
    "max": _shaped_plan([_agg("max")]),
    "group_count": _shaped_plan(
        [ProjectionSpec("k", _slot(0)), ProjectionSpec("n", None, aggregate="count")],
        group_by=[_slot(0)],
    ),
    "group_mixed": _shaped_plan(
        [ProjectionSpec("k", _slot(0)), ProjectionSpec("n", None, aggregate="count"),
         _agg("sum"), _agg("max"), _agg("count", distinct=True)],
        group_by=[_slot(0)],
    ),
}


class _GenericSink:
    """The shape-blind sink the per-plan adders must agree with: every row
    evaluates every projection through one loop."""

    def __init__(self, plan):
        self.plan = plan
        self.rows = []
        self.groups = {}
        if plan.has_aggregates and not plan.group_by:
            self._group(())  # SQL's one row, even over an empty match

    def add(self, ctx):
        plan = self.plan
        state = EvalState()
        state.ctx = ctx
        if not plan.has_aggregates:
            self.rows.append(tuple(p.compiled(state) for p in plan.projections))
            return
        plain, accumulators = self._group(tuple(fn(state) for fn in plan.group_by))
        for i, proj in enumerate(plan.projections):
            if proj.aggregate is None:
                plain[i] = proj.compiled(state)
            else:
                value = proj.compiled(state) if proj.compiled is not None else None
                accumulators[i].update(value, is_star=proj.compiled is None)

    def _group(self, key):
        if key not in self.groups:
            self.groups[key] = (
                [None] * len(self.plan.projections),
                [_AggAccumulator(p.aggregate, p.distinct) if p.aggregate else None
                 for p in self.plan.projections],
            )
        return self.groups[key]


def _groups_view(groups):
    return {
        key: (list(plain), [
            None if acc is None else (acc.count, acc.total, acc.min, acc.max, acc.values)
            for acc in accs
        ])
        for key, (plain, accs) in groups.items()
    }


_contexts = st.lists(
    st.tuples(st.sampled_from("abc"), st.one_of(st.none(), st.integers(-5, 5))).map(list),
    max_size=12,
)


class TestPerPlanAdders:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(SINK_SHAPES)), _contexts, _contexts, _contexts)
    def test_adders_equal_the_generic_path(self, shape, before, dropped, after):
        """Rows go in, a checkpoint is cut, more rows go in and are rolled
        back by a restore, then the rest: the resolved adder and the
        generic path end up with the same rows, groups and result."""
        plan = SINK_SHAPES[shape]
        sink, generic = MachineSink(plan), _GenericSink(plan)
        for ctx in before:
            sink.add(ctx)
            generic.add(ctx)
        checkpoint = sink.checkpoint_state()
        saved = (list(generic.rows), copy.deepcopy(generic.groups))
        for ctx in dropped:
            sink.add(ctx)
        sink.restore_state(checkpoint)
        generic.rows, generic.groups = saved
        for ctx in after:
            sink.add(ctx)
            generic.add(ctx)
        assert sink.rows == generic.rows
        assert _groups_view(sink.groups) == _groups_view(generic.groups)
        assert assemble_results(plan, [sink]).rows == assemble_results(plan, [generic]).rows
