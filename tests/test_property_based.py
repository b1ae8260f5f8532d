"""Property-based tests (hypothesis) for core invariants.

The heavyweight property: on arbitrary random graphs and arbitrary
quantifiers, the distributed engine, both baselines, and an independent
walk-semantics reference all agree — across machine counts.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EngineConfig, GraphBuilder, Session
from repro.baselines import BftEngine, RecursiveEngine
from repro.graph import Direction
from repro.graph.partition import BlockPartitioner, HashPartitioner
from repro.pgql import parse, parse_expression
from repro.rpq import IndexOutcome, ReachabilityIndex

from tests.test_engine_end_to_end import reference_pair_count


def build_random_graph(n, edges, labels, seed):
    rng = random.Random(seed)
    b = GraphBuilder()
    for i in range(n):
        b.add_vertex("N", idx=i)
    for _ in range(edges):
        b.add_edge(rng.randrange(n), rng.randrange(n), rng.choice(labels))
    return b.build()


quantifiers = st.one_of(
    st.just((1, None, "+")),
    st.just((0, None, "*")),
    st.builds(
        lambda lo, extra: (lo, lo + extra, f"{{{lo},{lo + extra}}}"),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    st.builds(lambda lo: (lo, None, f"{{{lo},}}"), st.integers(0, 3)),
)


class TestEngineAgreement:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 18),
        density=st.integers(1, 4),
        quant=quantifiers,
        direction=st.sampled_from(["->", "<-", "-"]),
        machines=st.sampled_from([1, 2, 3]),
    )
    def test_all_engines_match_reference(self, seed, n, density, quant, direction, machines):
        graph = build_random_graph(n, n * density, ["E", "F"], seed)
        min_hops, max_hops, text = quant
        if direction == "->":
            segment, ref_dir = f"-/:E{text}/->", Direction.OUT
        elif direction == "<-":
            segment, ref_dir = f"<-/:E{text}/-", Direction.IN
        else:
            segment, ref_dir = f"-/:E{text}/-", Direction.BOTH
        query = f"SELECT COUNT(*) FROM MATCH (a){segment}(b)"

        expected = reference_pair_count(graph, "E", ref_dir, min_hops, max_hops)
        rpqd = Session(graph, EngineConfig(num_machines=machines)).execute(query)
        assert rpqd.scalar() == expected
        assert BftEngine(graph).execute(query).scalar() == expected
        assert RecursiveEngine(graph).execute(query).scalar() == expected

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        machines=st.sampled_from([2, 5]),
        batch=st.sampled_from([1, 3, 64]),
        quantum=st.sampled_from([50.0, 2000.0]),
    )
    def test_runtime_knobs_never_change_results(self, seed, machines, batch, quantum):
        graph = build_random_graph(14, 40, ["E"], seed)
        query = "SELECT COUNT(*) FROM MATCH (a)-/:E{1,3}/->(b)"
        baseline = Session(graph, EngineConfig(num_machines=1)).execute(query).scalar()
        tuned = Session(
            graph,
            EngineConfig(num_machines=machines, batch_size=batch, quantum=quantum),
        ).execute(query)
        assert tuned.scalar() == baseline


class TestReachabilityIndexProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 6)),
            min_size=1,
            max_size=40,
        )
    )
    def test_index_invariants(self, ops):
        """The stored depth is the minimum over all visits; outcomes follow
        the paper's rules exactly."""
        index = ReachabilityIndex(0, 0)
        seen = {}
        for src, dst, depth in ops:
            outcome = index.check_and_update(src, dst, depth)
            key = (src, dst)
            if key not in seen:
                assert outcome is IndexOutcome.INSERTED
            elif depth >= seen[key]:
                assert outcome is IndexOutcome.ELIMINATED
            else:
                assert outcome is IndexOutcome.DUPLICATED
            seen[key] = min(seen.get(key, depth), depth)
        for (src, dst), depth in seen.items():
            assert index.depth_of(src, dst) == depth
        assert index.entries == len(seen)
        assert index.modelled_bytes == 12 * len(seen)


class TestPartitionProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 200), machines=st.integers(1, 12))
    def test_partitions_cover_exactly(self, n, machines):
        for cls in (HashPartitioner, BlockPartitioner):
            p = cls(n, machines)
            seen = []
            for m in range(machines):
                for v in p.local_vertices(m):
                    assert p.owner(v) == m
                    seen.append(v)
            assert sorted(seen) == list(range(n))


class TestParserProperties:
    # Keywords are not valid identifiers ("by", "as", ...): exclude them.
    from repro.pgql.lexer import KEYWORDS

    names = st.text(alphabet="abcxyz", min_size=1, max_size=5).filter(
        lambda s: s not in TestParserProperties.KEYWORDS
    )

    @settings(max_examples=60, deadline=None)
    @given(
        var=names,
        prop=names,
        value=st.integers(-1000, 1000),
        op=st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
    )
    def test_expression_round_trip(self, var, prop, value, op):
        text = f"{var}.{prop} {op} {value}"
        expr = parse_expression(text)
        assert parse_expression(str(expr)) == expr

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.integers(0, 9),
        extra=st.integers(0, 9),
        label=st.text(alphabet="ABCDE", min_size=1, max_size=4),
    )
    def test_query_round_trip(self, lo, extra, label):
        text = (
            f"SELECT COUNT(*) FROM MATCH (a)-/:{label}{{{lo},{lo + extra}}}/->(b)"
        )
        q1 = parse(text)
        q2 = parse(str(q1))
        assert str(q1) == str(q2)


class TestAggregationProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(-100, 100), min_size=1, max_size=30),
        splits=st.integers(1, 4),
    )
    def test_distributed_partial_aggregation_is_exact(self, values, splits):
        """Partial aggregation across sinks merges to the global answer
        regardless of how rows are distributed over machines."""
        from repro.engine.result import MachineSink, assemble_results
        from repro.plan.stages import ProjectionSpec

        class Plan:
            has_aggregates = True
            group_by = ()
            order_by = ()
            limit = None
            distinct = False
            projections = (
                ProjectionSpec(name="count", compiled=None, aggregate="count"),
                ProjectionSpec(
                    name="sum", compiled=lambda s: s.ctx[0], aggregate="sum"
                ),
                ProjectionSpec(
                    name="min", compiled=lambda s: s.ctx[0], aggregate="min"
                ),
                ProjectionSpec(
                    name="max", compiled=lambda s: s.ctx[0], aggregate="max"
                ),
                ProjectionSpec(
                    name="avg", compiled=lambda s: s.ctx[0], aggregate="avg"
                ),
            )

        plan = Plan()
        sinks = [MachineSink(plan) for _ in range(splits)]
        for i, v in enumerate(values):
            sinks[i % splits].add([v])
        result = assemble_results(plan, sinks).rows[0]
        assert result == (
            len(values),
            sum(values),
            min(values),
            max(values),
            sum(values) / len(values),
        )
