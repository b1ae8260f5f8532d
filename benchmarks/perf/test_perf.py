"""The benchmark's own tests.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (tier-1's
``testpaths`` does not include this directory).  They cover the contract
(names in ``BENCHMARK.json`` equal the names the code emits), the span
invariants, failure accounting, and ``--quick`` end to end.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

import bench
import layers
import spans as span_mod
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _contract():
    with open(os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child(*argv):
    """Run bench.py at scale xs; returns (exit code, result or None)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--scale", "xs",
         "--seconds", "0", "--min-passes", "2", "--setups", "1", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


@pytest.fixture(scope="module")
def quick():
    """``run.py --quick`` once: all four workloads, untraced and traced."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", "7"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(os.path.join(HERE, "out", "results_seed7.json")) as fh:
        return elapsed, json.load(fh)


def test_contract_names_equal_the_code():
    contract = _contract()
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in contract["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in bench.END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()
    ]
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in bench.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_seed_draws_the_inputs_and_nothing_else():
    from repro.datagen import mini_ldbc

    graph, info = mini_ldbc("xs", workloads.GRAPH_SEED)
    def queries(name, seed):
        return workloads.WORKLOADS[name].build_queries(graph, info, seed)

    for name in workloads.WORKLOADS:
        assert queries(name, 7) == queries(name, 7)
    assert queries("point_cold_sim", 7) != queries("point_cold_sim", 11)
    # The paper's nine queries are fixed; the seed draws only their order,
    # and the same order on both backends.
    assert queries("paper9_sim", 7) != queries("paper9_sim", 11)
    assert sorted(queries("paper9_sim", 7)) == sorted(queries("paper9_sim", 11))
    assert queries("paper9_sim", 7) == queries("paper9_process", 7)
    assert queries("mixed_conc4_sim", 7) == queries("mixed_conc4_sim", 11)


def _assert_span_invariants(spans):
    own = span_mod.self_times_ns(spans)
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
    # Self times over each tree sum to its root's duration.
    root_of = []
    for span in spans:
        root_of.append(
            len(root_of) if span["parent"] is None else root_of[span["parent"]]
        )
    totals = {}
    for index, root in enumerate(root_of):
        totals[root] = totals.get(root, 0) + own[index]
    for root, total in totals.items():
        duration = spans[root]["end_ns"] - spans[root]["start_ns"]
        assert abs(total - duration) <= 0.01 * duration


def test_recorder_nests_spans():
    rec = span_mod.SpanRecorder()
    with rec.span("root", "q1"):
        with rec.span("child"):
            with rec.span("grandchild"):
                time.sleep(0.001)
        with rec.span("sibling"):
            time.sleep(0.001)
    with rec.span("second-root"):
        pass
    assert [s["parent"] for s in rec.spans] == [None, 0, 1, 0, None]
    _assert_span_invariants(rec.spans)
    assert span_mod.by_name(rec.spans)["root"]["calls"] == 1


def test_quick_runs_everything_in_time(quick):
    elapsed, document = quick
    assert elapsed < 30, f"--quick took {elapsed:.1f}s"
    assert set(document["workloads"]) == set(workloads.WORKLOADS)
    assert document["host"]["process_workers"] == workloads.process_workers()
    for name, entry in document["workloads"].items():
        assert set(entry["end_to_end"]["metrics"]) == set(bench.END_TO_END), name
        assert set(entry["per_layer"]["metrics"]) == set(layers.PER_LAYER), name
        for result in entry.values():
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
        assert all(m["value"] > 0 for m in entry["end_to_end"]["metrics"].values())


def test_every_layer_is_accounted_for(quick):
    _, document = quick
    for name, entry in document["workloads"].items():
        unaccounted = entry["per_layer"]["metrics"]["session.unaccounted_frac"]
        assert 0 <= unaccounted["value"] <= 0.05, name


def test_span_files_hold_the_invariants(quick):
    for name in workloads.WORKLOADS:
        with open(os.path.join(HERE, "out", f"trace_{name}.json")) as fh:
            trace = json.load(fh)
        assert trace["workload"] == name and trace["spans"]
        _assert_span_invariants(trace["spans"])
        assert all(
            set(s) == {"name", "start_ns", "end_ns", "parent", "query_id"}
            for s in trace["spans"]
        )


def test_layers_separate_the_workloads(quick):
    _, document = quick

    def layer(workload, metric):
        return document["workloads"][workload]["per_layer"]["metrics"][metric]["value"]

    assert layer("point_cold_sim", "plan.cache.hit_rate") == 0
    assert layer("paper9_sim", "plan.cache.hit_rate") == 1
    assert layer("paper9_sim", "plan.compile.calls") == 0
    assert layer("paper9_process", "runtime.backend.spawn.self_s") > 0
    assert layer("paper9_sim", "runtime.backend.spawn.self_s") == 0
    assert layer("mixed_conc4_sim", "runtime.multi.cluster_rounds") > 0
    assert layer("mixed_conc4_sim", "rpq.index.eliminated") > layer(
        "paper9_sim", "rpq.index.eliminated"
    )


def test_a_corrupted_row_fails_the_run():
    code, result = _child("--workload", "paper9_sim", "--trace", "0",
                          "--corrupt-oracle")
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_counts_repeat_exactly():
    runs = [
        _child("--workload", "mixed_conc4_sim", "--trace", str(trace))
        for trace in (0, 1, 0, 1)
    ]
    assert all(code == 0 for code, _ in runs)

    def counts(result):
        return {
            name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "rounds", "B")
        }

    assert counts(runs[0][1]) == counts(runs[2][1])
    assert counts(runs[1][1]) == counts(runs[3][1])
    assert "virtual_rounds" in counts(runs[0][1])
