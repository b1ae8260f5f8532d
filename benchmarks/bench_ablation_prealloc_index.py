"""Extension ablation — bulk-preallocated reachability index.

The paper leaves this as future work (Section 4.5): "By pre/bulk-allocating
the index can trade memory for performance."  We implement it
(``EngineConfig(index_preallocate=True)``) and quantify the trade on the
insert-heavy 0-min-hop Reply sweep where Figure 3 shows the dynamic
allocation overhead.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table
from repro.datagen import reply_depth_query

QUERY_HOPS = (0, 3)


@pytest.fixture(scope="module")
def prealloc_runs(ldbc):
    graph, _info = ldbc
    query = reply_depth_query(*QUERY_HOPS)
    out = {}
    # The reply walk is a forest, so the default plan builds no index:
    # pin the paper's index in the two modes that measure it.
    for mode, knobs in (
        ("dynamic", dict(use_reachability_index=True)),
        ("preallocated", dict(use_reachability_index=True, index_preallocate=True)),
        ("no index", dict(use_reachability_index=False)),
    ):
        config = EngineConfig(num_machines=4, quantum=400.0, **knobs)
        out[mode] = Session(graph, config).execute(query)
    return out


def test_prealloc_report(prealloc_runs, report):
    rows = []
    for mode, result in prealloc_runs.items():
        stats = result.stats
        rows.append(
            [
                mode,
                result.virtual_time,
                round(stats.cost_units_total()),
                stats.index_entries,
                stats.index_bytes,
                result.scalar(),
            ]
        )
    text = format_table(
        ["index mode", "latency", "work units", "entries", "index bytes", "result"],
        rows,
        title="Extension: bulk-preallocated index "
        f"(Reply RPQ {{{QUERY_HOPS[0]},{QUERY_HOPS[1]}}}, 4 machines)",
    )
    report("ablation prealloc index", text)


def test_results_invariant(prealloc_runs):
    values = {r.scalar() for r in prealloc_runs.values()}
    assert len(values) == 1


def test_prealloc_trades_memory_for_speed(prealloc_runs):
    dynamic = prealloc_runs["dynamic"]
    prealloc = prealloc_runs["preallocated"]
    # Faster (less insert work)...
    assert prealloc.stats.cost_units_total() < dynamic.stats.cost_units_total()
    # ...but more modelled memory (up-front pointer arrays).
    assert prealloc.stats.index_bytes > dynamic.stats.index_bytes
    # Entry counts are identical: only the allocation strategy changes.
    assert prealloc.stats.index_entries == dynamic.stats.index_entries


def test_no_index_remains_fastest_on_trees(prealloc_runs):
    ordering = [
        prealloc_runs["no index"].stats.cost_units_total(),
        prealloc_runs["preallocated"].stats.cost_units_total(),
        prealloc_runs["dynamic"].stats.cost_units_total(),
    ]
    assert ordering == sorted(ordering)


def test_wall_clock_prealloc(benchmark, ldbc):
    graph, _info = ldbc
    config = EngineConfig(
        num_machines=4, quantum=400.0, index_preallocate=True, use_reachability_index=True
    )
    engine = Session(graph, config)
    query = reply_depth_query(*QUERY_HOPS)
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
