"""Extension ablation — vertex partitioning strategies.

The paper hash-partitions vertices and observes partitioning effects on
scalability (Section 4.3).  This ablation compares hash, block, and a
locality-aware greedy-BFS cluster partitioner on the messaging-heavy Q09:
reply trees are id-contiguous in the generator, so locality-aware layouts
keep whole threads on one machine and slash cross-machine messages.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table
from repro.datagen import BENCHMARK_QUERIES

STRATEGIES = ["hash", "block", "cluster"]


@pytest.fixture(scope="module")
def partition_runs(ldbc):
    graph, info = ldbc
    query = BENCHMARK_QUERIES["Q09"](info)
    out = {}
    for strategy in STRATEGIES:
        engine = Session(
            graph,
            EngineConfig(num_machines=4, quantum=400.0),
            partitioner=strategy,
        )
        out[strategy] = engine.execute(query)
    return out


def test_partitioning_report(partition_runs, report):
    rows = []
    for strategy, result in partition_runs.items():
        stats = result.stats
        rows.append(
            [
                strategy,
                result.virtual_time,
                stats.batches_sent,
                stats.contexts_sent,
                stats.bytes_sent,
                result.scalar(),
            ]
        )
    text = format_table(
        ["partitioner", "latency", "batches", "remote contexts", "bytes", "result"],
        rows,
        title="Extension: partitioning strategies on Q09 (4 machines)",
    )
    report("ablation partitioning", text)


def test_results_invariant_to_partitioning(partition_runs):
    values = {r.scalar() for r in partition_runs.values()}
    assert len(values) == 1


def test_locality_reduces_messages(partition_runs):
    # Reply trees are generated depth-first (id-contiguous), so both
    # locality-aware layouts beat hash on message volume.
    hash_sent = partition_runs["hash"].stats.contexts_sent
    assert partition_runs["block"].stats.contexts_sent < hash_sent
    assert partition_runs["cluster"].stats.contexts_sent < hash_sent


def test_wall_clock_cluster_partitioner(benchmark, ldbc):
    graph, info = ldbc
    engine = Session(
        graph, EngineConfig(num_machines=4, quantum=400.0), partitioner="cluster"
    )
    query = BENCHMARK_QUERIES["Q09"](info)
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
