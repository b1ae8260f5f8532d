"""Design ablation — receive priority (paper Section 3.2).

RPQd processes received messages "prioritizing the latest stages and
depths": deeper work first drives matches toward the output before
shallower exploration completes, which is what keeps runtime memory low
(Section 4.4).  This ablation compares the paper's depth-priority order
against plain FIFO delivery on a fan-out-heavy query.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table
from repro.datagen import BENCHMARK_QUERIES


@pytest.fixture(scope="module")
def priority_runs(ldbc):
    graph, info = ldbc
    query = BENCHMARK_QUERIES["Q09"](info)
    out = {}
    for mode in ("depth", "fifo"):
        config = EngineConfig(
            num_machines=8,
            quantum=400.0,
            receive_priority=mode,
            buffers_per_machine=64,
            batch_size=8,
        )
        out[mode] = Session(graph, config).execute(query)
    return out


def test_priority_report(priority_runs, report):
    rows = []
    for mode, result in priority_runs.items():
        stats = result.stats
        rows.append(
            [
                mode,
                result.virtual_time,
                max(m.peak_inflight_buffers for m in stats.per_machine),
                stats.flow_control_blocks,
                result.scalar(),
            ]
        )
    text = format_table(
        ["receive priority", "latency", "peak in-flight", "blocks", "result"],
        rows,
        title="Ablation: deeper-first receive priority vs FIFO (Q09, tight buffers)",
    )
    report("ablation priority", text)


def test_results_identical(priority_runs):
    assert priority_runs["depth"].scalar() == priority_runs["fifo"].scalar()


def test_depth_priority_completes(priority_runs):
    # Both orders must terminate under pressure (overflow buffers protect
    # FIFO too); depth-first should not be slower by more than noise.
    depth = priority_runs["depth"].virtual_time
    fifo = priority_runs["fifo"].virtual_time
    assert depth <= fifo * 1.5


def test_wall_clock_depth_priority(benchmark, ldbc):
    graph, info = ldbc
    config = EngineConfig(num_machines=8, quantum=400.0)
    engine = Session(graph, config)
    query = BENCHMARK_QUERIES["Q09"](info)
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
