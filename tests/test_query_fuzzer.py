"""Query-shape fuzzing: random patterns cross-checked across engines.

The graphs fuzzer (`test_property_based`) varies topology for a fixed
query; this one varies the *query shape* — chains of edges and RPQ
segments with random directions, quantifiers, labels, filters, and an
optional closing branch — and uses three-engine agreement as the oracle
(the engines share only the parser/planner; evaluation is disjoint:
distributed DFT vs BFS vs semi-naive joins).
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EngineConfig, GraphBuilder, Session
from repro.baselines import BftEngine, RecursiveEngine


def build_graph(seed):
    rng = random.Random(seed)
    b = GraphBuilder()
    n = 14
    for i in range(n):
        b.add_vertex(rng.choice(["A", "B"]), idx=i)
    for _ in range(30):
        b.add_edge(rng.randrange(n), rng.randrange(n), rng.choice(["E", "F"]))
    return b.build()


@st.composite
def query_shapes(draw):
    num_vars = draw(st.integers(2, 4))
    variables = [f"v{i}" for i in range(num_vars)]
    parts = []
    rpq_budget = 1  # keep runtime bounded: at most one RPQ segment
    for i in range(num_vars):
        label = draw(st.sampled_from(["", ":A", ":B", ":A|B"]))
        parts.append(f"({variables[i]}{label})")
        if i == num_vars - 1:
            break
        use_rpq = rpq_budget > 0 and draw(st.booleans())
        edge_label = draw(st.sampled_from(["E", "F"]))
        if use_rpq:
            rpq_budget -= 1
            lo = draw(st.integers(0, 2))
            hi = lo + draw(st.integers(0, 2))
            direction = draw(st.sampled_from(["-/:{l}{q}/->", "<-/:{l}{q}/-", "-/:{l}{q}/-"]))
            parts.append(direction.format(l=edge_label, q=f"{{{lo},{hi}}}"))
        else:
            direction = draw(st.sampled_from(["-[:{l}]->", "<-[:{l}]-", "-[:{l}]-"]))
            parts.append(direction.format(l=edge_label))
    pattern = "".join(parts)

    clauses = []
    if draw(st.booleans()):
        var = draw(st.sampled_from(variables))
        threshold = draw(st.integers(0, 13))
        op = draw(st.sampled_from([">", "<=", "="]))
        clauses.append(f"{var}.idx {op} {threshold}")
    # Occasionally close a branch between two non-adjacent variables.
    extra_match = ""
    if num_vars >= 3 and draw(st.booleans()):
        extra_match = f", MATCH ({variables[0]})-[:E]->({variables[-1]})"
    where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
    return f"SELECT COUNT(*) FROM MATCH {pattern}{extra_match}{where}"


class TestQueryFuzzer:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 500), query=query_shapes())
    def test_three_engines_agree_on_random_queries(self, seed, query):
        graph = build_graph(seed)
        rpqd = Session(graph, EngineConfig(num_machines=2)).execute(query).scalar()
        bft = BftEngine(graph).execute(query).scalar()
        rec = RecursiveEngine(graph).execute(query).scalar()
        assert rpqd == bft == rec, query

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 500), query=query_shapes())
    def test_machine_count_invariance_on_random_queries(self, seed, query):
        graph = build_graph(seed)
        one = Session(graph, EngineConfig(num_machines=1)).execute(query).scalar()
        four = Session(graph, EngineConfig(num_machines=4)).execute(query).scalar()
        assert one == four, query
