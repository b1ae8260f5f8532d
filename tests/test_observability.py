"""Tests for the structured tracing + metrics subsystem (``repro.obs``).

Covers the Prometheus text rendering, the recorder's virtual-time clock,
the three exporters (Chrome trace / JSONL / Prometheus), trace validation,
the zero-overhead guarantee when observation is disabled, the
reconciliation of span counts against ``RunStats`` — the paper's Table 2/3
numbers must be derivable from the trace alone — and that every exported
counter family equals its one source in ``RunStats``, on both backends.
"""

import json
import re
from collections import Counter

import pytest

import repro
from repro.config import EngineConfig
from repro.errors import SanitizerViolation
from repro.graph.generators import chain_graph, random_graph
from repro.faults import FaultPlan, MachineCrash
from repro.obs import (
    Recorder,
    jsonl_lines,
    load_trace_file,
    summarize_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    render_prometheus,
    write_prometheus,
)
from repro.obs.metrics import MACHINE_STATS, Family, prometheus_text
from repro.session import Session

CYCLIC_UNBOUNDED = "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b)"


@pytest.fixture(scope="module")
def observed_run():
    """One observed execution of a cyclic unbounded RPQ (worst-case shape:
    revisits, eliminations, duplicates, deep depth mix)."""
    graph = random_graph(60, 200, seed=3)
    engine = Session(graph, EngineConfig(num_machines=4, observe=True))
    return engine.execute(CYCLIC_UNBOUNDED)


#: Families of an observed simulator run of ``CYCLIC_UNBOUNDED``.
OBSERVED_SIM_FAMILIES = [
    "repro_batch_bytes",
    "repro_batch_contexts",
    "repro_batches_sent_total",
    "repro_control_entries_total",
    "repro_flow_blocks_total",
    "repro_flow_overflow_grants_total",
    "repro_flow_wait_rounds",
    "repro_index_probes_total",
    "repro_machine_stat",
    "repro_peak_rss_bytes",
    "repro_status_broadcasts_total",
    "repro_term_candidates_total",
]
#: The families only an observed run's events carry.
EVENT_FAMILIES = {
    "repro_batch_bytes",
    "repro_batch_contexts",
    "repro_flow_wait_rounds",
    "repro_term_candidates_total",
}

_SAMPLE = re.compile(r"^(\w+?)(?:\{(.*)\})? (\S+)$")


def parse_prometheus(text):
    """``({series name: {((label, value), ...): value}}, family names)``."""
    series = {}
    families = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            families.add(line.split()[2])
            continue
        if line.startswith("#"):
            continue
        name, labels, value = _SAMPLE.match(line).groups()
        key = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', labels or "")))
        series.setdefault(name, {})[key] = float(value)
    return series, families


def assert_metrics_match_sources(result, text):
    """Every counter family in ``text`` equals its source — ``RunStats``,
    the plan's ``min_hops``, or the recorder's events; returns the names
    of the families."""
    series, families = parse_prometheus(text)
    stats = result.stats
    machines = list(enumerate(stats.per_machine))

    def labelled(name, *labels):
        return {
            tuple(dict(key)[label] for label in labels): value
            for key, value in series[name].items()
        }

    for name, attr in (
        ("repro_batches_sent_total", "batches_sent"),
        ("repro_flow_blocks_total", "flow_control_blocks"),
        ("repro_flow_overflow_grants_total", "overflow_grants"),
    ):
        assert labelled(name, "machine") == {
            (str(m),): getattr(s, attr) for m, s in machines
        }, name
    assert sum(series["repro_batches_sent_total"].values()) == stats.batches_sent
    assert sum(series["repro_flow_blocks_total"].values()) == (
        stats.flow_control_blocks
    )
    machine_stat = labelled("repro_machine_stat", "machine", "stat")
    assert len(machine_stat) == len(machines) * len(MACHINE_STATS)
    for (m, stat), value in machine_stat.items():
        assert value == getattr(stats.per_machine[int(m)], stat), (m, stat)
    peers = stats.num_machines - 1
    assert {
        m: value * peers
        for (m,), value in labelled(
            "repro_status_broadcasts_total", "machine"
        ).items()
    } == {str(m): s.status_messages for m, s in machines}

    probes = labelled("repro_index_probes_total", "machine", "outcome")
    for m, s in machines:
        assert probes[(str(m), "insert")] == s.index_inserts
        assert probes[(str(m), "overwrite")] == s.index_updates
    assert sum(
        v for (_m, outcome), v in probes.items() if outcome == "eliminated"
    ) == sum(sum(c.values()) for c in stats.eliminated.values())

    entries = labelled("repro_control_entries_total", "rpq", "depth", "outcome")
    for spec in result.plan.rpq_specs():
        for depth, matches, eliminated, duplicated in stats.depth_table(
            spec.rpq_id
        ):
            row = {
                outcome: entries.get((str(spec.rpq_id), str(depth), outcome), 0)
                for outcome in ("below_min", "match", "eliminated", "duplicated")
            }
            assert sum(row.values()) == matches
            assert row["eliminated"] == eliminated
            assert row["duplicated"] == duplicated
            assert (row["below_min"] > 0) == (
                depth < spec.min_hops and matches > 0
            )

    transport = stats.transport
    for key in ("retransmits", "fenced", "corrupt_dropped", "retx_exhausted"):
        name = f"repro_net_{key}_total"
        if transport is None:
            assert name not in families
        else:
            assert series[name][()] == transport[key]
    if stats.fault_events is None:
        assert "repro_fault_injected_total" not in families
    else:
        assert labelled("repro_fault_injected_total", "kind") == {
            (kind,): n for kind, n in stats.fault_events.items()
        }
    if stats.recovery is None:
        assert "repro_recovery_checkpoints_total" not in families
    else:
        assert series["repro_recovery_checkpoints_total"][()] == (
            stats.recovery["checkpoints"]
        )
        assert series["repro_recovery_failovers_total"][()] == (
            stats.recovery["recoveries"]
        )
    membership = stats.membership
    if membership is None:
        assert "repro_membership_suspicions_total" not in families
    else:
        assert labelled("repro_membership_suspicions_total", "outcome") == {
            ("confirmed",): membership["confirmations"],
            ("cleared",): membership["false_suspicions"],
        }
        latencies = membership["detection_latencies"]
        if latencies:
            name = "repro_membership_detection_latency_rounds"
            assert series[name + "_count"][()] == len(latencies)
            assert series[name + "_sum"][()] == sum(latencies)

    if result.obs is None:
        assert not families & EVENT_FAMILIES
    else:
        candidates = Counter(
            str(e["pid"]) for e in result.obs.events
            if e["name"] == "term.candidate"
        )
        assert {
            m: v for (m,), v in labelled(
                "repro_term_candidates_total", "machine"
            ).items()
        } == candidates
        sent = [
            sum(series[name].values()) for name in (
                "repro_batch_contexts_count",
                "repro_batch_contexts_sum",
                "repro_batch_bytes_sum",
            )
        ]
        totals = [stats.batches_sent, stats.contexts_sent, stats.bytes_sent]
        if stats.recovery is not None and stats.recovery["recoveries"]:
            # A rollback restores the stats; the rolled-back epoch's
            # batch.send events stay on the timeline.
            assert all(a >= b for a, b in zip(sent, totals))
        else:
            assert sent == totals
    return families


class TestMetricsRegistry:
    """The family table's Prometheus text rendering (``repro.obs.metrics``)."""

    def test_prometheus_text_format(self):
        text = prometheus_text([
            Family("c_total", "counter", "a counter", ("k",), {("v",): 7}),
            Family("h", "histogram", "a histogram", (), {(): [3]}),
        ])
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{k="v"} 7' in text
        assert 'h_bucket{le="2"} 0' in text
        assert 'h_bucket{le="4"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_count 1" in text
        assert "h_sum 3" in text

    def test_prometheus_label_escaping(self):
        text = prometheus_text(
            [Family("e_total", "counter", "esc", ("k",), {('a"b\\c',): 1})]
        )
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
        with repro.connect(graph, num_machines=4, observe=True) as session:
            solo = session.execute(CYCLIC_UNBOUNDED)
            submitted = session.submit(CYCLIC_UNBOUNDED).result()

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
            graph, num_machines=4, max_concurrent_queries=4, observe=True
        ) as session:
            handles = [session.submit(q) for q in queries]
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
        assert loaded["otherData"]["events"] == len(observed_run.obs.events)
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
        assert kinds == {"meta", "event"}

    def test_prometheus_export(self, observed_run, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(observed_run, path)
        text = path.read_text()
        assert "repro_batches_sent_total" in text
        assert "repro_control_entries_total" in text
        assert "repro_flow_wait_rounds_bucket" in text

    def test_metrics_agree_with_stats(self, observed_run, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(observed_run, path)
        families = assert_metrics_match_sources(observed_run, path.read_text())
        # Adding or dropping a family is a visible edit of this list.
        assert sorted(families) == OBSERVED_SIM_FAMILIES


class TestMetricsFromRunStats:
    """``--metrics-out`` is a view of ``RunStats``: the same counter
    families on the process backend, and the fault / transport / recovery /
    membership families from the run's epilogues."""

    def test_process_backend_metrics_agree_with_stats(self, tmp_path):
        graph = random_graph(60, 200, seed=3)
        with repro.connect(graph, num_machines=4, backend="process") as session:
            result = session.execute(CYCLIC_UNBOUNDED)
        path = tmp_path / "metrics.prom"
        write_prometheus(result, path)
        text = path.read_text()
        families = assert_metrics_match_sources(result, text)
        assert sorted(families) == sorted(
            set(OBSERVED_SIM_FAMILIES) - EVENT_FAMILIES
        )
        series, _ = parse_prometheus(text)
        assert sum(series["repro_batches_sent_total"].values()) == (
            result.stats.batches_sent
        )

    def test_crash_recovery_metrics_agree_with_stats(self):
        graph = random_graph(40, 120, seed=3)
        plan = FaultPlan(
            seed=3, drop_prob=0.05, crashes=(MachineCrash(machine=2, round=6),)
        )
        config = EngineConfig(
            num_machines=4, recovery=True, stall_limit=500, faults=plan,
            observe=True,
        )
        result = Session(graph, config).execute(CYCLIC_UNBOUNDED)
        assert result.complete
        stats = result.stats
        assert stats.membership["confirmations"] >= 1
        assert stats.recovery["recoveries"] >= 1
        assert stats.transport["retransmits"] > 0
        families = assert_metrics_match_sources(result, render_prometheus(result))
        assert {
            "repro_fault_injected_total",
            "repro_net_retransmits_total",
            "repro_net_fenced_total",
            "repro_recovery_checkpoints_total",
            "repro_recovery_failovers_total",
            "repro_membership_suspicions_total",
            "repro_membership_detection_latency_rounds",
        } <= families


class TestZeroOverhead:
    def test_virtual_time_unchanged_by_observation(self):
        graph = random_graph(40, 130, seed=5)
        engine = Session(graph, EngineConfig(num_machines=3))
        plain = engine.execute(CYCLIC_UNBOUNDED)
        observed = engine.execute(
            CYCLIC_UNBOUNDED, config=engine.config.with_(observe=True)
        )
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
        engine = Session(graph, EngineConfig(num_machines=4, observe=True))
        result = engine.execute(self.QUERY)
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

    def test_sanitized_observed_run_is_clean(self):
        graph = chain_graph(12)
        engine = Session(
            graph, EngineConfig(num_machines=2, sanitize=True, observe=True)
        )
        result = engine.execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{1,4}/->(b)"
        )
        names = {e["name"] for e in result.obs.events}
        assert "sanitizer.violation" not in names
        assert "query.end" in names


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

    def test_process_backend_metrics_out(self, graph_file, tmp_path, capsys):
        from repro.cli import main

        metrics_path = tmp_path / "m.prom"
        rc = main([
            "query", str(graph_file),
            "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b:Person)",
            "--backend", "process", "--metrics-out", str(metrics_path),
        ])
        assert rc == 0
        assert "metrics written" in capsys.readouterr().err
        _, families = parse_prometheus(metrics_path.read_text())
        assert "repro_batches_sent_total" in families
        assert not families & EVENT_FAMILIES

    def test_process_backend_prints_the_simulators_timeline(self, graph_file, capsys):
        from repro.cli import main

        query = "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b:Person)"
        timelines = []
        for backend in ("sim", "process"):
            assert main(["query", str(graph_file), query, "--backend", backend,
                         "--timeline"]) == 0
            timelines.append(capsys.readouterr().err)
        assert timelines[0] == timelines[1]
        assert timelines[1].count("|") == 2 * 4  # one row per machine

    def test_process_backend_refuses_trace_out(self, graph_file, tmp_path,
                                               capsys):
        from repro.cli import main

        rc = main([
            "query", str(graph_file),
            "SELECT COUNT(*) FROM MATCH (a:Person)",
            "--backend", "process", "--trace-out", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "require --backend sim" in capsys.readouterr().err

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
