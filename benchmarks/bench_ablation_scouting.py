"""Extension ablation — scouting queries for planning.

The paper's planner uses static heuristics (Section 3.1) and names the
scouting-queries technique as future work for better planning.  We
implement sampled-selectivity scouting (``EngineConfig(scouting=True)``)
and measure it on a query where the static heuristics tie and pick the
unselective side: both endpoints carry range filters, but one filter is
satisfied by almost nobody.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table

# z.age > 76 is rare (ages are 18..77); a.age >= 18 matches everyone.
# Static heuristics score both range filters identically.
QUERY = (
    "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/-(z:Person) "
    "WHERE z.age > 76 AND a.age >= 18"
)


@pytest.fixture(scope="module")
def scouting_runs(ldbc):
    graph, _info = ldbc
    out = {}
    for mode, knobs in (("static", dict()), ("scouting", dict(scouting=True))):
        config = EngineConfig(num_machines=4, quantum=400.0, **knobs)
        out[mode] = Session(graph, config).execute(QUERY)
    return out


def test_scouting_report(scouting_runs, report):
    rows = []
    for mode, result in scouting_runs.items():
        stats = result.stats
        rows.append(
            [
                mode,
                result.virtual_time,
                round(stats.cost_units_total()),
                stats.edges_traversed,
                stats.bootstrapped if hasattr(stats, "bootstrapped") else "",
                result.scalar(),
            ]
        )
    text = format_table(
        ["planner", "latency", "work units", "edges traversed", "", "result"],
        rows,
        title="Extension: scouting-queries planning on a skewed filter "
        "(KNOWS{1,2}, rare z side)",
    )
    report("ablation scouting", text)


def test_results_identical(scouting_runs):
    assert scouting_runs["static"].scalar() == scouting_runs["scouting"].scalar()


def test_scouting_reduces_work(scouting_runs):
    static = scouting_runs["static"].stats
    scouted = scouting_runs["scouting"].stats
    assert scouted.edges_traversed < static.edges_traversed
    assert scouted.cost_units_total() < static.cost_units_total()


def test_wall_clock_scouted(benchmark, ldbc):
    graph, _info = ldbc
    engine = Session(graph, EngineConfig(num_machines=4, quantum=400.0, scouting=True))
    benchmark.pedantic(lambda: engine.execute(QUERY), rounds=3, iterations=1)
