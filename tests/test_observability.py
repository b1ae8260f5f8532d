"""Tests for the structured tracing + metrics subsystem (``repro.obs``).

Covers the metrics registry, the recorder's virtual-time clock, the three
exporters (Chrome trace / JSONL / Prometheus), trace validation, the
zero-overhead guarantee when observation is disabled, and the reconciliation
of span counts against ``RunStats`` — the paper's Table 2/3 numbers must be
derivable from the trace alone.
"""

import json
from collections import Counter

import pytest

import repro
from repro.config import EngineConfig
from repro.errors import SanitizerViolation
from repro.graph.generators import chain_graph, random_graph
from repro.obs import (
    MetricsRegistry,
    Recorder,
    jsonl_lines,
    load_trace_file,
    summarize_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.session import Session

CYCLIC_UNBOUNDED = "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b)"


@pytest.fixture(scope="module")
def observed_run():
    """One observed execution of a cyclic unbounded RPQ (worst-case shape:
    revisits, eliminations, duplicates, deep depth mix)."""
    graph = random_graph(60, 200, seed=3)
    engine = Session(graph, EngineConfig(num_machines=4))
    result = engine.execute(CYCLIC_UNBOUNDED, observe=True)
    return result


class TestMetricsRegistry:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "hits", ("kind",))
        c.labels("a").inc()
        c.labels("a").inc(2)
        c.labels("b").inc()
        assert c.labels("a").value == 3
        assert c.labels("b").value == 1

    def test_gauge_set_and_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("occupancy", "buffers", ("m",))
        g.labels(0).set(5)
        g.labels(0).dec()
        assert g.labels(0).value == 4

    def test_histogram_summary_and_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes", "batch sizes", ())
        for v in [1, 2, 4, 8, 100]:
            h.labels().observe(v)
        s = h.labels().summary()
        assert s["count"] == 5
        assert s["sum"] == 115
        assert s["max"] == 100
        assert h.labels().quantile(0.5) <= h.labels().quantile(0.99)

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x", ("l",))
        b = reg.counter("x_total", "x", ("l",))
        assert a is b

    def test_registration_shape_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x", ("l",))
        with pytest.raises(ValueError):
            reg.counter("x_total", "x", ("l", "m"))
        with pytest.raises(ValueError):
            reg.gauge("x_total", "x", ("l",))

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter", ("k",)).labels("v").inc(7)
        reg.histogram("h", "a histogram", ()).labels().observe(3)
        text = reg.prometheus_text()
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{k="v"} 7' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_count 1" in text
        assert "h_sum 3" in text

    def test_prometheus_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("e_total", "esc", ("k",)).labels('a"b\\c').inc()
        text = reg.prometheus_text()
        assert 'k="a\\"b\\\\c"' in text


class TestRecorderClock:
    def test_virtual_time_from_rounds(self):
        rec = Recorder()
        rec.configure(num_machines=2, quantum=100.0)
        rec.begin_round(1)
        rec.advance(0, 30.0)
        assert rec.now(0) == 30.0
        rec.begin_round(3)  # round r starts at (r-1) * quantum
        assert rec.now(0) == 200.0

    def test_timestamps_monotone_per_track(self):
        rec = Recorder()
        rec.configure(num_machines=1, quantum=10.0)
        rec.begin_round(2)
        rec.instant(0, "late", {})
        rec.begin_round(1)  # clock regresses; emitted ts must not
        rec.instant(0, "early", {})
        ts = [e["ts"] for e in rec.events]
        assert ts == sorted(ts)

    def test_span_stack_closes_in_order(self):
        rec = Recorder()
        rec.configure(num_machines=1, quantum=10.0)
        rec.begin_round(1)
        rec.begin_span(0, 1, "outer", {})
        rec.advance(0, 2.0)
        rec.begin_span(0, 1, "inner", {})
        rec.advance(0, 2.0)
        rec.end_span(0, 1)
        rec.end_span(0, 1)
        phases = [(e["ph"], e["name"]) for e in rec.events]
        assert phases == [
            ("B", "outer"), ("B", "inner"), ("E", "inner"), ("E", "outer"),
        ]

    def test_finish_closes_dangling_spans(self):
        rec = Recorder()
        rec.configure(num_machines=1, quantum=10.0)
        rec.begin_round(1)
        rec.begin_span(0, 1, "open", {})
        rec.finish()
        assert validate_chrome_trace({"traceEvents": list(rec.events)}) == []

    def test_counter_events_deduplicate(self):
        rec = Recorder()
        rec.configure(num_machines=1, quantum=10.0)
        rec.begin_round(1)
        rec.counter(0, "inflight", 3)
        rec.counter(0, "inflight", 3)  # unchanged -> no event
        rec.counter(0, "inflight", 4)
        assert sum(1 for e in rec.events if e["ph"] == "C") == 2


class TestSubmittedTraceClock:
    """``submit()`` and ``execute()`` drive the recorder from one loop."""

    def test_submitted_trace_matches_solo_trace(self):
        graph = random_graph(60, 200, seed=3)
        with repro.connect(graph, num_machines=4) as session:
            solo = session.execute(CYCLIC_UNBOUNDED, observe=True)
            submitted = session.submit(CYCLIC_UNBOUNDED, observe=True).result()

        def stamped(result):
            return Counter((e["name"], e["ts"]) for e in result.obs.events)

        assert stamped(submitted) == stamped(solo)
        assert submitted.obs.count_events("work_units") > 0

    def test_trace_subcommand_validates_concurrency_4(self, tmp_path, capsys):
        from repro.cli import main

        graph = random_graph(60, 200, seed=3)
        queries = [
            CYCLIC_UNBOUNDED,
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)",
            "SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)",
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK{2,4}/->(b)",
        ]
        with repro.connect(
            graph, num_machines=4, max_concurrent_queries=4
        ) as session:
            handles = [session.submit(q, observe=True) for q in queries]
            session.drain()
            results = [h.result() for h in handles]
        for index, result in enumerate(results):
            assert result.obs.count_events("work_units") > 0
            path = tmp_path / f"q{index}.json"
            write_chrome_trace(result.obs, path, workers_per_machine=2)
            assert main(["trace", str(path)]) == 0
            assert "validation: ok" in capsys.readouterr().out


class TestTraceExportRoundTrip:
    """Satellite: cyclic unbounded-RPQ trace round-trip + reconciliation."""

    def test_chrome_trace_validates(self, observed_run):
        trace = to_chrome_trace(observed_run.obs, workers_per_machine=2)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["dropped_events"] == 0

    def test_span_counts_reconcile_with_stats(self, observed_run):
        """Per-depth rpq.control events must equal depth_table() exactly,
        and batch.send instants must equal stats.batches_sent."""
        rec = observed_run.obs
        stats = observed_run.stats
        by_depth = {}
        sends = 0
        for event in rec.events:
            if event["name"] == "rpq.control":
                args = event["args"]
                row = by_depth.setdefault(
                    args["depth"], {"total": 0, "eliminated": 0, "duplicated": 0}
                )
                row["total"] += 1
                if args["outcome"] in ("eliminated", "duplicated"):
                    row[args["outcome"]] += 1
            elif event["name"] == "batch.send":
                sends += 1
        assert sends == stats.batches_sent
        table = stats.depth_table(rpq_id=0)
        assert table, "cyclic query must produce control matches"
        assert len(by_depth) == len(table)
        for depth, matches, eliminated, duplicated in table:
            row = by_depth[depth]
            assert row["total"] == matches
            assert row["eliminated"] == eliminated
            assert row["duplicated"] == duplicated

    def test_dft_batch_spans_match_batches_sent(self, observed_run):
        rec = observed_run.obs
        begins = sum(
            1 for e in rec.events
            if e["ph"] == "B" and e["name"] == "dft.batch"
        )
        assert begins == observed_run.stats.batches_sent

    def test_flow_arrows_bind(self, observed_run):
        """Every received batch's flow-finish refers to a started flow."""
        rec = observed_run.obs
        starts = {e["id"] for e in rec.events if e["ph"] == "s"}
        finishes = [e for e in rec.events if e["ph"] == "f"]
        assert finishes, "expected cross-machine flow arrows"
        assert all(e["id"] in starts for e in finishes)

    def test_jsonl_round_trip(self, observed_run, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(observed_run.obs, path)
        loaded = load_trace_file(str(path))
        assert len(loaded["traceEvents"]) == len(observed_run.obs.events)
        assert loaded["metrics"]  # final metrics record survives the trip
        assert validate_chrome_trace(loaded) == []

    def test_chrome_file_round_trip(self, observed_run, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(observed_run.obs, path, workers_per_machine=2)
        loaded = load_trace_file(str(path))
        assert validate_chrome_trace(loaded) == []
        digest = summarize_trace(loaded)
        assert "validation: ok" in digest
        assert "rpq.control" in digest

    def test_every_jsonl_line_parses(self, observed_run):
        kinds = set()
        for line in jsonl_lines(observed_run.obs):
            kinds.add(json.loads(line)["type"])
        assert kinds == {"meta", "event", "metrics"}

    def test_prometheus_export(self, observed_run, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(observed_run.obs, path)
        text = path.read_text()
        assert "repro_batches_sent_total" in text
        assert "repro_control_entries_total" in text
        assert "repro_flow_wait_rounds_bucket" in text

    def test_metrics_agree_with_stats(self, observed_run):
        reg = observed_run.obs.metrics
        counter = reg.counter(
            "repro_batches_sent_total",
            "batches shipped to other machines",
            ("machine", "stage"),
        )
        sent = sum(child.value for child in counter._children.values())
        assert sent == observed_run.stats.batches_sent


class TestZeroOverhead:
    def test_virtual_time_unchanged_by_observation(self):
        graph = random_graph(40, 130, seed=5)
        engine = Session(graph, EngineConfig(num_machines=3))
        plain = engine.execute(CYCLIC_UNBOUNDED)
        observed = engine.execute(CYCLIC_UNBOUNDED, observe=True)
        assert plain.virtual_time == observed.virtual_time
        assert plain.scalar() == observed.scalar()
        assert plain.stats.batches_sent == observed.stats.batches_sent
        assert plain.obs is None
        assert observed.obs is not None

    def test_observe_config_flag(self):
        graph = chain_graph(12)
        engine = Session(
            graph, EngineConfig(num_machines=2, observe=True)
        )
        result = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{1,3}/->(b)"
        )
        assert result.obs is not None
        assert result.obs.events

    def test_caller_supplied_recorder(self):
        graph = chain_graph(10)
        engine = Session(graph, EngineConfig(num_machines=2))
        rec = Recorder()
        result = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{1,2}/->(b)", observe=rec
        )
        assert result.obs is rec


class TestMultiSegmentDepthTable:
    """Satellite: ``RunStats._merge_depth_counters`` for 2-segment queries
    where each rpq_id's work lands on a subset of machines."""

    QUERY = (
        "SELECT COUNT(*) FROM MATCH "
        "(a)-/:NEXT{1,2}/->(b)-/:NEXT{1,2}/->(c)"
    )

    def test_two_segment_depth_tables_pinned(self):
        graph = chain_graph(16)
        engine = Session(graph, EngineConfig(num_machines=4))
        stats = engine.execute(self.QUERY).stats
        assert sorted(stats.control_matches) == [0, 1]
        # Segment 0 inits from all 16 vertices (depth 0), then a chain of 16
        # has 16 - d paths of length d: 15 at depth 1, 14 at depth 2.
        assert stats.depth_table(rpq_id=0) == [
            (0, 16, 0, 0), (1, 15, 0, 0), (2, 14, 0, 0),
        ]
        # Segment 1 inits once per (a, b) binding from segment 0 — 15 one-hop
        # plus 14 two-hop = 29 — and each advances while NEXT edges remain.
        assert stats.depth_table(rpq_id=1) == [
            (0, 29, 0, 0), (1, 27, 0, 0), (2, 25, 0, 0),
        ]

    def test_merge_handles_rpq_on_subset_of_machines(self):
        """An rpq_id recorded on only some machines must still merge: a
        regression guard against sharing one Counter across machines."""
        from repro.runtime.stats import MachineStats

        a = MachineStats()
        b = MachineStats()
        c = MachineStats()
        a.record_control_matches(0, {1: 1})
        a.record_control_matches(1, {1: 1})  # rpq 1 appears on machine 0 only
        b.record_control_matches(0, {1: 1})
        b.record_control_matches(0, {2: 1})
        # machine 2 never saw rpq 0 or 1
        from repro.runtime.stats import RunStats

        stats = RunStats([a, b, c], rounds=1, wall_seconds=0.0,
                         config=EngineConfig(num_machines=3))
        assert stats.control_matches[0] == {1: 2, 2: 1}
        assert stats.control_matches[1] == {1: 1}
        assert stats.depth_table(rpq_id=1) == [(1, 1, 0, 0)]
        # Merging must not mutate the per-machine counters.
        assert a.control_matches[0] == {1: 1}
        assert b.control_matches[0] == {1: 1, 2: 1}

    def test_observed_two_segment_trace_reconciles(self):
        graph = chain_graph(16)
        engine = Session(graph, EngineConfig(num_machines=4))
        result = engine.execute(self.QUERY, observe=True)
        per_rpq = {}
        for event in result.obs.events:
            if event["name"] == "rpq.control":
                args = event["args"]
                per_rpq.setdefault(args["rpq"], {}).setdefault(args["depth"], 0)
                per_rpq[args["rpq"]][args["depth"]] += 1
        for rpq_id in (0, 1):
            table = result.stats.depth_table(rpq_id=rpq_id)
            assert {d: m for d, m, _e, _dup in table} == per_rpq[rpq_id]


class TestSanitizerOnEventBus:
    def test_violation_recorded_before_raise(self):
        from repro.analysis.sanitizer import RuntimeSanitizer

        rec = Recorder()
        rec.configure(num_machines=2, quantum=10.0)
        rec.begin_round(1)
        san = RuntimeSanitizer(obs=rec)
        with pytest.raises(SanitizerViolation):
            san._fail("test invariant", "synthetic")
        events = [e for e in rec.events if e["name"] == "sanitizer.violation"]
        assert len(events) == 1
        assert events[0]["args"]["invariant"] == "test invariant"
        counter = rec.metrics.counter(
            "repro_sanitizer_violations_total", "", ("invariant",)
        )
        assert counter.labels("test invariant").value == 1

    def test_sanitized_observed_run_is_clean(self):
        graph = chain_graph(12)
        engine = Session(
            graph, EngineConfig(num_machines=2, sanitize=True)
        )
        result = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{1,4}/->(b)", observe=True
        )
        names = {e["name"] for e in result.obs.events}
        assert "sanitizer.violation" not in names
        assert "query.end" in names


class TestBenchHarnessRecorder:
    def test_metric_summaries_attached(self):
        from repro.bench.harness import BenchHarness, rpqd_executor

        graph = chain_graph(14)
        cells = BenchHarness(repetitions=1).run(
            {"rpqd": rpqd_executor(graph, 2, observe=True)},
            {"q": "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{1,3}/->(b)"},
        )
        cell = cells[("rpqd", "q")]
        assert cell.metric_summaries
        assert "repro_control_entries_total" in cell.metric_summaries

    def test_unobserved_executor_attaches_nothing(self):
        from repro.bench.harness import BenchHarness, rpqd_executor

        graph = chain_graph(14)
        cells = BenchHarness(repetitions=1).run(
            {"rpqd": rpqd_executor(graph, 2)},
            {"q": "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{1,3}/->(b)"},
        )
        assert cells[("rpqd", "q")].metric_summaries == {}


class TestObservabilityCli:
    @pytest.fixture
    def graph_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "g.jsonl"
        assert main(["generate", str(path), "--scale", "xs", "--seed", "3"]) == 0
        capsys.readouterr()
        return path

    def test_query_trace_and_metrics_out(self, graph_file, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.prom"
        rc = main([
            "query", str(graph_file),
            "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b:Person)",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "trace written" in captured.err
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        assert "repro_batches_sent_total" in metrics_path.read_text()

    def test_query_jsonl_extension_selects_jsonl(self, graph_file, tmp_path,
                                                 capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.jsonl"
        rc = main([
            "query", str(graph_file),
            "SELECT COUNT(*) FROM MATCH (a:Person)-[:KNOWS]->(b:Person)",
            "--trace-out", str(trace_path),
        ])
        assert rc == 0
        capsys.readouterr()
        first = json.loads(trace_path.read_text().splitlines()[0])
        assert first["type"] == "meta"

    def test_query_timeline(self, graph_file, capsys):
        from repro.cli import main

        rc = main([
            "query", str(graph_file),
            "SELECT COUNT(*) FROM MATCH (a:Person)-[:KNOWS]->(b:Person)",
            "--timeline",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "utilization:" in err

    def test_observe_requires_rpqd(self, graph_file, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "query", str(graph_file),
            "SELECT COUNT(*) FROM MATCH (a:Person)",
            "--engine", "bft", "--trace-out", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "require --engine rpqd" in capsys.readouterr().err

    def test_trace_subcommand(self, graph_file, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.json"
        main([
            "query", str(graph_file),
            "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b:Person)",
            "--trace-out", str(trace_path),
        ])
        capsys.readouterr()
        rc = main(["trace", str(trace_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "validation: ok" in out
        assert "events on" in out

    def test_trace_subcommand_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["trace", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_workload_json(self, capsys):
        from repro.cli import main

        rc = main(["workload", "--scale", "xs", "--machines", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"] == ["rpqd", "bft", "recursive"]
        assert len(payload["results"]) >= 9
        assert all("rpqd" in row for row in payload["results"])

    def test_workload_timeline(self, capsys):
        from repro.cli import main

        rc = main([
            "workload", "--scale", "xs", "--machines", "2", "--timeline",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timeline (rpqd, 2 machines):" in out
        assert "utilization:" in out
