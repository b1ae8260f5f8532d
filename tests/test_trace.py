"""Tests for the execution tracer and its timeline rendering."""

from repro import EngineConfig, Session
from repro.datagen import mini_ldbc
from repro.graph.generators import chain_graph, random_graph
from repro.runtime.trace import ExecutionTrace


class TestRecorder:
    def test_records_rounds(self):
        g = chain_graph(10)
        r = Session(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", trace=True
        )
        assert r.trace is not None
        assert len(r.trace.rounds) == r.stats.rounds
        assert r.trace.num_machines == 2

    def test_trace_off_by_default(self):
        g = chain_graph(5)
        r = Session(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)->(b)"
        )
        assert r.trace is None

    def test_pass_trace_instance(self):
        g = chain_graph(5)
        trace = ExecutionTrace()
        r = Session(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)->(b)", trace=trace
        )
        assert r.trace is trace
        assert trace.rounds

    def test_termination_event_recorded(self):
        g = chain_graph(5)
        r = Session(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)->(b)", trace=True
        )
        assert any("termination" in text for _r, text in r.trace.events)


class TestAnalysis:
    def test_utilization_bounds(self):
        g = random_graph(40, 120, seed=3)
        r = Session(g, EngineConfig(num_machines=4)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)", trace=True
        )
        for u in r.trace.utilization():
            assert 0.0 <= u <= 1.0
        assert r.trace.imbalance() >= 1.0

    def test_imbalance_metric_synthetic(self):
        # One machine doing all the work at 2 machines => max/mean = 2.0.
        t = ExecutionTrace()
        t.configure(2, quantum=100.0)
        t.record_round(1, [100.0, 0.0])
        t.record_round(2, [100.0, 0.0])
        assert t.imbalance() == 2.0
        assert t.utilization() == [1.0, 0.0]
        assert t.busy_rounds(0) == 2
        assert t.busy_rounds(1) == 0

    def test_balanced_trace_has_unit_imbalance(self):
        t = ExecutionTrace()
        t.configure(3, quantum=10.0)
        t.record_round(1, [5.0, 5.0, 5.0])
        assert t.imbalance() == 1.0

    def test_summary_shape(self):
        g = chain_graph(6)
        r = Session(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)->(b)", trace=True
        )
        s = r.trace.summary()
        assert set(s) == {"rounds", "utilization", "imbalance", "events"}


class TestRendering:
    def test_timeline_renders_one_row_per_machine(self):
        g = random_graph(30, 90, seed=4)
        r = Session(g, EngineConfig(num_machines=3)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)", trace=True
        )
        text = r.trace.render_timeline(width=40)
        lines = text.splitlines()
        assert lines[0].startswith("M0 ")
        assert lines[2].startswith("M2 ")
        assert "utilization" in lines[-1]

    def test_empty_trace_renders(self):
        assert "no rounds" in ExecutionTrace().render_timeline()
