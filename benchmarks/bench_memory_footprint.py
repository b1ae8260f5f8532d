"""Section 4.4 — memory accounting.

The paper models each reachability-index entry at 12 bytes and reports the
dynamic index sizes for Q9 (181 MB — index over every reply pair) versus
Q10 (4.4 MB — a single source's 2..3-hop neighbourhood), tiny against the
~100 GB dataset; messaging memory stays below the configured
buffers-per-machine ceiling.  This bench regenerates those accounting rows
at mini scale.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table
from repro.datagen import BENCHMARK_QUERIES
from repro.runtime.stats import BUFFER_BYTES


@pytest.fixture(scope="module")
def footprints(ldbc):
    graph, info = ldbc
    config = EngineConfig(num_machines=8, quantum=400.0)
    engine = Session(graph, config)
    out = {}
    for name in ("Q09", "Q10"):
        out[name] = engine.execute(BENCHMARK_QUERIES[name](info))
    return out, config


def test_memory_report(footprints, ldbc, report):
    results, config = footprints
    graph, _info = ldbc
    # Rough modelled dataset size: 8 bytes per topology slot + properties.
    dataset_bytes = 16 * graph.num_edges + 48 * graph.num_vertices
    rows = []
    for name, result in results.items():
        stats = result.stats
        rows.append(
            [
                name,
                stats.index_entries,
                stats.index_bytes,
                f"{stats.index_bytes / dataset_bytes:.4%}",
                stats.messaging_bytes_peak,
                config.buffers_per_machine * BUFFER_BYTES,
            ]
        )
    text = format_table(
        [
            "query",
            "index entries",
            "index bytes (12 B/entry)",
            "vs dataset",
            "peak msg bytes",
            "msg budget/machine",
        ],
        rows,
        title="Section 4.4: modelled memory footprints (8 machines)",
    )
    report("memory footprint", text)


def test_q9_index_much_larger_than_q10(footprints):
    # Paper: 181 MB (Q9, per-pair entries from millions of sources) vs
    # 4.4 MB (Q10, one source) — a >40x gap; assert one order of magnitude.
    results, _config = footprints
    assert results["Q09"].stats.index_bytes > 10 * results["Q10"].stats.index_bytes


def test_index_is_negligible_vs_dataset(footprints, ldbc):
    results, _config = footprints
    graph, _info = ldbc
    dataset_bytes = 16 * graph.num_edges + 48 * graph.num_vertices
    for result in results.values():
        assert result.stats.index_bytes < 0.2 * dataset_bytes


def test_messaging_stays_under_budget(footprints):
    # Neither query triggers flow control at the default budget; modelled
    # messaging memory stays below the per-machine ceiling (paper: "with
    # eight machines the engine stayed below a total of 16GB").
    results, config = footprints
    ceiling = config.buffers_per_machine * BUFFER_BYTES
    for result in results.values():
        assert result.stats.messaging_bytes_peak <= ceiling
        assert result.stats.flow_control_blocks == 0


def test_entry_size_model(footprints):
    results, _config = footprints
    stats = results["Q10"].stats
    assert stats.index_bytes == 12 * stats.index_entries


def test_wall_clock_q10_memory_run(benchmark, ldbc):
    graph, info = ldbc
    engine = Session(graph, EngineConfig(num_machines=8, quantum=400.0))
    query = BENCHMARK_QUERIES["Q10"](info)
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
