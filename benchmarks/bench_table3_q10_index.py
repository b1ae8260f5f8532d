"""Table 3 — reachability-index statistics of the RPQ control stage for Q10.

Q10 starts from a single predefined person and expands 2..3 undirected
KNOWS hops.  The paper's table shows, per depth: the number of control-stage
matches, *eliminated* visits (vertex already reached at a lower-or-equal
depth), and *duplicated* visits (vertex already reached at a greater depth —
an artifact of depth-first work racing ahead of shallower work).  Shapes to
reproduce: a single depth-0 match, no index activity below min-hop, heavy
elimination at depth 3 (most depth-3 vertices have several already-matched
depth-2 neighbors), and DFT-induced duplication at depth 2.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table
from repro.datagen import BENCHMARK_QUERIES


@pytest.fixture(scope="module")
def q10_stats(ldbc):
    graph, info = ldbc
    engine = Session(graph, EngineConfig(num_machines=4, quantum=400.0))
    result = engine.execute(BENCHMARK_QUERIES["Q10"](info))
    return result.stats


def test_table3_report(q10_stats, report):
    rows = list(q10_stats.depth_table(0))
    text = format_table(
        ["depth", "num. matches", "eliminated", "duplicated"],
        rows,
        title="Table 3: RPQ control stage statistics (Q10, KNOWS{2,3} from one person)",
    )
    report("table3 q10 index", text)


def test_single_source_at_depth_zero(q10_stats):
    table = q10_stats.depth_table(0)
    assert table[0] == (0, 1, 0, 0)


def test_no_index_activity_below_min_hop(q10_stats):
    # min-hop is 2: depths 0 and 1 never touch the index (paper rows 0/1).
    table = {d: (e, u) for d, _m, e, u in q10_stats.depth_table(0)}
    assert table[0] == (0, 0)
    assert table[1] == (0, 0)


def test_matches_grow_with_depth(q10_stats):
    matches = {d: m for d, m, _e, _u in q10_stats.depth_table(0)}
    assert matches[1] > matches[0]
    assert matches[2] > matches[1]
    assert matches[3] > matches[2]


def test_depth3_heavy_elimination(q10_stats):
    # Paper: depth 3 eliminates the vast majority of visits (2.33M of
    # 2.7M) because most depth-3 vertices have more than one neighbor
    # already matched at depth 2; duplication is zero at the last depth.
    table = {d: (m, e, u) for d, m, e, u in q10_stats.depth_table(0)}
    matches3, eliminated3, duplicated3 = table[3]
    assert eliminated3 > 0.3 * matches3
    assert duplicated3 == 0


def test_dft_induces_duplication_at_depth2(q10_stats):
    # Depth-first priority materializes depth-3 work before all depth-2
    # work completes, so some vertices are first recorded deeper and later
    # re-reached at depth 2 (paper: 12969 duplicated at depth 2).
    table = {d: (m, e, u) for d, m, e, u in q10_stats.depth_table(0)}
    _m2, _e2, duplicated2 = table[2]
    assert duplicated2 > 0


def test_index_entry_accounting(q10_stats):
    # Entries == matches at depths >= min, minus eliminations and
    # duplications (paper Section 4.4).
    total_checked = sum(
        m for d, m, _e, _u in q10_stats.depth_table(0) if d >= 2
    )
    eliminated = sum(e for _d, _m, e, _u in q10_stats.depth_table(0))
    duplicated = sum(u for _d, _m, _e, u in q10_stats.depth_table(0))
    assert q10_stats.index_entries == total_checked - eliminated - duplicated
    assert q10_stats.index_bytes == 12 * q10_stats.index_entries


def test_wall_clock_q10(benchmark, ldbc):
    graph, info = ldbc
    engine = Session(graph, EngineConfig(num_machines=4, quantum=400.0))
    query = BENCHMARK_QUERIES["Q10"](info)
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
