"""Tests for the round timeline: ``RunStats.round_work`` and its views."""

from array import array

import pytest

from repro import EngineConfig, Session, connect
from repro.graph.generators import chain_graph, random_graph
from repro.runtime.stats import MachineStats, RunStats

CHAIN_RPQ = "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"
LINK_RPQ = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)"


def synthetic(num_machines, quantum, rows):
    """A RunStats whose timeline is ``rows`` (one list per round)."""
    return RunStats(
        [MachineStats() for _ in range(num_machines)],
        len(rows),
        0.0,
        EngineConfig(num_machines=num_machines, quantum=quantum),
        round_work=array("d", [units for row in rows for units in row]),
    )


class TestRecorder:
    def test_records_rounds(self):
        stats = Session(chain_graph(10), EngineConfig(num_machines=2)).execute(
            CHAIN_RPQ
        ).stats
        assert len(stats.round_work) == 2 * stats.rounds

    def test_trace_off_by_default(self):
        # The span trace is opt-in (``config.observe``); the round timeline
        # needs no flag.
        result = Session(chain_graph(5), EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)->(b)"
        )
        assert result.obs is None
        assert len(result.stats.round_work) == 2 * result.stats.rounds

    def test_rows_sum_to_cost_units(self):
        stats = Session(random_graph(40, 120, seed=3), EngineConfig(num_machines=4)).execute(
            LINK_RPQ
        ).stats
        work = stats.round_work
        for m, machine in enumerate(stats.per_machine):
            assert sum(work[m::4]) == pytest.approx(machine.cost_units)
            assert machine.busy_rounds == sum(1 for units in work[m::4] if units > 0)

    def test_termination_event_recorded(self):
        # The round the protocol concluded is the timeline's last row, and
        # the recorder's ``termination.concluded`` instant when observed.
        config = EngineConfig(num_machines=2, observe=True)
        result = Session(chain_graph(5), config).execute(
            "SELECT COUNT(*) FROM MATCH (a)->(b)"
        )
        (event,) = [
            e for e in result.obs.events if e["name"] == "termination.concluded"
        ]
        assert event["args"]["round"] == result.stats.rounds
        assert len(result.stats.round_work) == 2 * result.stats.rounds

    def test_submitted_query_runs_on_its_own_rounds(self):
        with connect(random_graph(40, 120, seed=3), num_machines=4) as session:
            first = session.submit(LINK_RPQ)
            session.drain()
            late = session.submit(LINK_RPQ).result()
            first = first.result()
            # Admitted after the first one finished, the second query's
            # timeline starts at its own round 1, not at the cluster's.
            assert session.cluster_rounds == first.stats.rounds + late.stats.rounds
        assert len(late.stats.round_work) == 4 * late.stats.rounds
        assert late.stats.render_timeline() == first.stats.render_timeline()
        assert f"rounds 1..{late.stats.rounds}," in late.stats.render_timeline()


class TestAnalysis:
    def test_utilization_bounds(self):
        stats = Session(random_graph(40, 120, seed=3), EngineConfig(num_machines=4)).execute(
            LINK_RPQ
        ).stats
        for u in stats.utilization():
            assert 0.0 <= u <= 1.0
        assert stats.imbalance() >= 1.0

    def test_imbalance_metric_synthetic(self):
        # One machine doing all the work at 2 machines => max/mean = 2.0.
        stats = synthetic(2, 100.0, [[100.0, 0.0], [100.0, 0.0]])
        assert stats.imbalance() == 2.0
        assert stats.utilization() == [1.0, 0.0]

    def test_balanced_trace_has_unit_imbalance(self):
        assert synthetic(3, 10.0, [[5.0, 5.0, 5.0]]).imbalance() == 1.0


class TestRendering:
    def test_timeline_renders_one_row_per_machine(self):
        stats = Session(random_graph(30, 90, seed=4), EngineConfig(num_machines=3)).execute(
            LINK_RPQ
        ).stats
        lines = stats.render_timeline(width=40).splitlines()
        assert lines[0].startswith("M0 ")
        assert lines[2].startswith("M2 ")
        assert "utilization" in lines[-1]

    def test_synthetic_timeline_glyphs(self):
        text = synthetic(2, 100.0, [[100.0, 0.0], [50.0, 0.0]]).render_timeline()
        assert text.splitlines() == [
            "M0  |@+|",
            "M1  |  |",
            "    rounds 1..2, 2 buckets",
            "    utilization: M0=75%, M1=0%",
        ]

    def test_empty_trace_renders(self):
        assert "no rounds" in synthetic(2, 100.0, []).render_timeline()

    def test_process_run_has_the_simulators_record(self):
        with connect(chain_graph(10), num_machines=2, backend="process") as session:
            stats = session.execute(CHAIN_RPQ).stats
        with connect(chain_graph(10), num_machines=2) as session:
            expected = session.execute(CHAIN_RPQ).stats
        assert len(stats.round_work) == 2 * stats.rounds
        assert stats.round_work == expected.round_work
        assert stats.render_timeline() == expected.render_timeline()
