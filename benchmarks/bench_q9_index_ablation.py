"""Section 4.4 — reachability-index ablation on Q9.

Q9's reachability part always runs on a tree (reply forests), so every
(source, destination) pair is reached exactly once and the index is pure
overhead: the paper measures Q9 *without* the index executing 3.4x faster
on eight machines.  Disabling the index is only safe on acyclic expansions —
exactly this workload.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table
from repro.datagen import BENCHMARK_QUERIES


@pytest.fixture(scope="module")
def ablation(ldbc):
    graph, info = ldbc
    query = BENCHMARK_QUERIES["Q09"](info)
    results = {}
    for use_index in (True, False):
        config = EngineConfig(
            num_machines=8, quantum=400.0, use_reachability_index=use_index
        )
        results[use_index] = Session(graph, config).execute(query)
    return results


def test_ablation_report(ablation, report):
    on, off = ablation[True], ablation[False]
    rows = [
        ["with index", on.virtual_time, on.stats.index_entries, on.scalar()],
        ["without index", off.virtual_time, 0, off.scalar()],
        ["speedup (off vs on)", on.virtual_time / off.virtual_time, "", ""],
    ]
    text = format_table(
        ["configuration", "virtual latency", "index entries", "result"],
        rows,
        title="Section 4.4: Q9 with vs without reachability index "
        "(8 machines; paper: 3.4x faster without)",
    )
    report("q9 index ablation", text)


def test_results_identical_on_trees(ablation):
    # Reply trees have no alternative paths: disabling duplicate
    # elimination cannot change the result.
    assert ablation[True].scalar() == ablation[False].scalar()


def test_index_off_is_faster_on_trees(ablation):
    assert ablation[False].virtual_time < ablation[True].virtual_time


def test_index_is_pure_overhead_on_trees(ablation):
    # With the index on, every insert is fresh (no hits) — the Section 4.4
    # "superfluous" observation quantified.
    on = ablation[True].stats
    assert on.eliminated.get(0, {}) in ({}, None) or sum(
        on.eliminated.get(0, {}).values()
    ) == 0
    assert sum(on.duplicated.get(0, {}).values() or [0]) == 0


def test_wall_clock_index_off(benchmark, ldbc):
    graph, info = ldbc
    config = EngineConfig(num_machines=8, quantum=400.0, use_reachability_index=False)
    engine = Session(graph, config)
    query = BENCHMARK_QUERIES["Q09"](info)
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
