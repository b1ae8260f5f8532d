"""Design ablation — message batch size (paper Section 3.2).

RPQd "batches multiple contexts for the same machine and stage into a
single message" to amortize messaging overhead.  This sweep shows the
trade-off: tiny batches multiply message counts (and fixed per-message
costs), huge batches delay delivery until the end-of-round timeout flush.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table
from repro.datagen import BENCHMARK_QUERIES

BATCH_SIZES = [1, 4, 16, 64, 256]


@pytest.fixture(scope="module")
def batching(ldbc):
    graph, info = ldbc
    query = BENCHMARK_QUERIES["Q09"](info)
    out = {}
    for size in BATCH_SIZES:
        config = EngineConfig(num_machines=4, quantum=400.0, batch_size=size)
        out[size] = Session(graph, config).execute(query)
    return out


def test_batching_report(batching, report):
    rows = []
    for size, result in batching.items():
        stats = result.stats
        rows.append(
            [
                size,
                result.virtual_time,
                stats.batches_sent,
                stats.contexts_sent,
                round(stats.contexts_sent / max(stats.batches_sent, 1), 2),
                stats.bytes_sent,
            ]
        )
    text = format_table(
        ["batch size", "latency", "batches", "contexts", "ctx/batch", "bytes"],
        rows,
        title="Ablation: message batch size sweep (Q09, 4 machines)",
    )
    report("ablation batching", text)


def test_results_invariant_to_batching(batching):
    values = {r.scalar() for r in batching.values()}
    assert len(values) == 1


def test_batching_amortizes_messages(batching):
    # Larger batches -> strictly fewer message sends.
    batches = [batching[s].stats.batches_sent for s in BATCH_SIZES]
    assert all(b1 >= b2 for b1, b2 in zip(batches, batches[1:]))
    assert batches[0] > 2 * batches[-1]


def test_tiny_batches_cost_latency_or_messages(batching):
    # batch=1 sends one message per context; its messaging bytes dominate.
    assert batching[1].stats.bytes_sent > batching[64].stats.bytes_sent


def test_wall_clock_batch_16(benchmark, ldbc):
    graph, info = ldbc
    engine = Session(graph, EngineConfig(num_machines=4, quantum=400.0, batch_size=16))
    query = BENCHMARK_QUERIES["Q09"](info)
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
