"""Paper Section 5 (Limitations) — DFT vs BFT on dense graphs.

"Our approach excels in tree topology graphs ... However, when a
graph-query combination generates numerous duplicated reachability paths,
e.g., searching for long paths in complete graphs, the DFT algorithm
reaches its limit. In such cases, more specialized algorithms like BFT
might be a better fit if sacrificing low memory consumption for a faster
evaluation is acceptable."

This bench quantifies that crossover with the distributed synchronous BFT
engine: on a complete graph with a deep bounded quantifier, BFT's
level-parallel expansion wins on latency while holding the whole
frontier/visited set; on reply trees, RPQd wins with low memory.
"""

import pytest

from repro import EngineConfig, Session
from repro.baselines import DistributedBftEngine
from repro.bench import format_table
from repro.graph.generators import complete_graph, reply_forest

QUANTUM = 400.0


def rpqd(graph, machines=4):
    return Session(graph, EngineConfig(num_machines=machines, quantum=QUANTUM))


def dbft(graph, machines=4):
    return DistributedBftEngine(graph, quantum=QUANTUM, num_machines=machines)


@pytest.fixture(scope="module")
def dense_runs():
    graph = complete_graph(40)
    query = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,4}/->(b)"
    return {
        "rpqd": rpqd(graph).execute(query),
        "distributed-bft": dbft(graph).execute(query),
    }


@pytest.fixture(scope="module")
def tree_runs():
    graph = reply_forest(60, 3, 7, seed=5)
    query = "SELECT COUNT(*) FROM MATCH (p:Post)<-/:REPLY_OF+/-(c:Comment)"
    return {
        "rpqd": rpqd(graph).execute(query),
        "distributed-bft": dbft(graph).execute(query),
    }


def _rows(runs, memory_of):
    rows = []
    for name, result in runs.items():
        rows.append(
            [name, round(result.virtual_time, 1), memory_of(result), result.scalar()]
        )
    return rows


def test_limitations_report(dense_runs, tree_runs, report):
    def rpqd_mem(result):
        return result.stats.index_bytes

    def bft_mem(result):
        return result.stats.peak_frontier

    rows = []
    for name, result in dense_runs.items():
        mem = (
            f"{result.stats.index_bytes} index B"
            if name == "rpqd"
            else f"{result.stats.peak_frontier} frontier entries"
        )
        rows.append(["complete K40 {1,4}", name, round(result.virtual_time, 1), mem, result.scalar()])
    for name, result in tree_runs.items():
        mem = (
            f"{result.stats.index_bytes} index B"
            if name == "rpqd"
            else f"{result.stats.peak_frontier} frontier entries"
        )
        rows.append(["reply trees +", name, round(result.virtual_time, 1), mem, result.scalar()])
    text = format_table(
        ["workload", "engine", "latency", "memory profile", "result"],
        rows,
        title="Section 5: DFT (RPQd) vs distributed BFT on dense vs tree graphs",
    )
    report("limitations dense graphs", text)


def test_results_agree(dense_runs, tree_runs):
    assert dense_runs["rpqd"].scalar() == dense_runs["distributed-bft"].scalar()
    assert tree_runs["rpqd"].scalar() == tree_runs["distributed-bft"].scalar()


def test_bft_wins_on_dense_graphs(dense_runs):
    # The paper's concession: duplicated-path-heavy workloads favor BFT.
    assert (
        dense_runs["distributed-bft"].virtual_time
        < dense_runs["rpqd"].virtual_time
    )


def test_rpqd_wins_on_trees(tree_runs):
    assert tree_runs["rpqd"].virtual_time < tree_runs["distributed-bft"].virtual_time


def test_dft_does_the_duplicated_work(dense_runs):
    # On K40 the index eliminates/deduplicates heavily — the mechanism
    # behind the limitation.
    stats = dense_runs["rpqd"].stats
    eliminated = sum(stats.eliminated.get(0, {}).values())
    assert eliminated > stats.index_entries


def test_wall_clock_dense(benchmark):
    graph = complete_graph(30)
    engine = rpqd(graph)
    query = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)"
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
