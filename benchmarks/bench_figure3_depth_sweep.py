"""Figure 3 — latency of Reply RPQs across {min,max} hop bounds, with and
without the reachability index.

Paper findings to reproduce (Section 4.5):

* hops {0,0} isolates the index's dynamic-allocation overhead — RPQd
  inserts a {v, v} entry for every source vertex, so index-on pays a
  visible premium over index-off at zero hops;
* every 0-min-hop configuration carries that allocation overhead;
* increasing the max hop (more inserts/updates) has only a small
  incremental effect;
* increasing the *min* hop with the index on *improves* latency
  (counter-intuitively), because traversals below min-hop create no
  entries.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table
from repro.datagen import FIGURE3_HOPS, reply_depth_query


@pytest.fixture(scope="module")
def sweep(ldbc):
    graph, _info = ldbc
    results = {}
    for use_index in (True, False):
        engine = Session(
            graph,
            EngineConfig(
                num_machines=4, quantum=400.0, use_reachability_index=use_index
            ),
        )
        for hops in FIGURE3_HOPS:
            query = reply_depth_query(*hops)
            results[(hops, use_index)] = engine.execute(query)
    return results


def test_figure3_report(sweep, report):
    rows = []
    for hops in FIGURE3_HOPS:
        on = sweep[(hops, True)]
        off = sweep[(hops, False)]
        rows.append(
            [
                f"{{{hops[0]},{hops[1]}}}",
                on.virtual_time,
                off.virtual_time,
                on.stats.index_entries,
                on.scalar(),
            ]
        )
    text = format_table(
        ["hops", "with index", "without index", "index entries", "result"],
        rows,
        title="Figure 3: Reply RPQ latency across depth bounds (4 machines)",
    )
    report("figure3 depth sweep", text)


def test_results_agree_between_index_modes(sweep):
    # Reply expansion is a tree: counts must match with/without the index.
    for hops in FIGURE3_HOPS:
        assert sweep[(hops, True)].scalar() == sweep[(hops, False)].scalar(), hops


def test_zero_hop_shows_allocation_overhead(sweep):
    # {0,0}: the index-on run inserts one {v,v} entry per source; the
    # index-off run does none of that work.
    on = sweep[((0, 0), True)]
    off = sweep[((0, 0), False)]
    assert on.stats.index_entries > 0
    assert off.stats.index_entries == 0
    assert on.stats.cost_units_total() > off.stats.cost_units_total()


def test_zero_hop_inserts_one_entry_per_source(sweep, ldbc):
    _graph, info = ldbc
    on = sweep[((0, 0), True)]
    assert on.stats.index_entries == info.counts["messages"]


def test_larger_max_hop_has_modest_incremental_cost(sweep):
    # Paper: increasing inserts/updates via max-hop has a negligible
    # effect; assert sub-linear growth from {0,1} to {0,3}.
    t1 = sweep[((0, 1), True)].stats.cost_units_total()
    t3 = sweep[((0, 3), True)].stats.cost_units_total()
    assert t3 < 3.0 * t1


def test_larger_min_hop_reduces_index_entries(sweep):
    # Paper: traversals below min-hop create no entries, so {1,3} stores
    # fewer than {0,3} and {2,3} fewer than {1,3}.
    e03 = sweep[((0, 3), True)].stats.index_entries
    e13 = sweep[((1, 3), True)].stats.index_entries
    e23 = sweep[((2, 3), True)].stats.index_entries
    assert e03 > e13 > e23


def test_larger_min_hop_improves_index_on_latency(sweep):
    # The counter-intuitive Section 4.5 observation, measured on work done.
    t03 = sweep[((0, 3), True)].stats.cost_units_total()
    t13 = sweep[((1, 3), True)].stats.cost_units_total()
    assert t13 < t03


def test_wall_clock_reply_depth_sweep(benchmark, ldbc):
    graph, _info = ldbc
    engine = Session(graph, EngineConfig(num_machines=4, quantum=400.0))
    query = reply_depth_query(1, 3)
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
