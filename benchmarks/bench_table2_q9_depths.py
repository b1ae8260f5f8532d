"""Table 2 — per-depth matches of the RPQ control stage for Q9.

The paper's Q9 traverses reply trees starting from a large number of
messages: matches first *explode* at shallow depths (every message has
multiple replies) and then *decay* exponentially (few reply chains are
long), ending at a depth with zero or near-zero matches.  This bench
regenerates the histogram and asserts that shape.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table
from repro.datagen import BENCHMARK_QUERIES


@pytest.fixture(scope="module")
def q9_stats(ldbc):
    graph, info = ldbc
    engine = Session(graph, EngineConfig(num_machines=4, quantum=400.0))
    result = engine.execute(BENCHMARK_QUERIES["Q09"](info))
    return result.stats


def test_table2_report(q9_stats, report):
    table = q9_stats.depth_table(0)
    rows = [[d, matches] for d, matches, _e, _u in table]
    text = format_table(
        ["depth", "#matches"],
        rows,
        title="Table 2: RPQ control stage matches per depth (Q9)",
    )
    report("table2 q9 depths", text)
    assert rows


def test_depth_zero_counts_all_sources(q9_stats, ldbc):
    graph, info = ldbc
    table = dict((d, m) for d, m, _e, _u in q9_stats.depth_table(0))
    # Q9 starts from every Post: depth-0 control entries == number of posts.
    assert table[0] == info.counts["posts"]


def test_explosion_then_decay(q9_stats):
    matches = [m for _d, m, _e, _u in q9_stats.depth_table(0)]
    peak = matches.index(max(matches))
    # The peak is at a shallow depth (paper: depth 1)...
    assert peak <= 2
    # ...and the series decays monotonically after it...
    for i in range(peak, len(matches) - 1):
        assert matches[i + 1] <= matches[i]
    # ...down to a tiny tail (paper: 1 match at depth 9, 0 at 10).
    assert matches[-1] <= max(matches) // 10


def test_tree_traversal_has_no_eliminations(q9_stats):
    # Reply trees are trees: every (source, destination) is reached once,
    # so the reachability index never eliminates or deduplicates (the
    # Section 4.4 observation that makes the index superfluous for Q9).
    for _d, _m, eliminated, duplicated in q9_stats.depth_table(0):
        assert eliminated == 0
        assert duplicated == 0


def test_wall_clock_q9(benchmark, ldbc):
    graph, info = ldbc
    engine = Session(graph, EngineConfig(num_machines=4, quantum=400.0))
    query = BENCHMARK_QUERIES["Q09"](info)
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
