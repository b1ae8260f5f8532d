"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = tmp_path / "g.jsonl"
    rc = main(["generate", str(path), "--scale", "xs", "--seed", "3"])
    assert rc == 0
    capsys.readouterr()
    return path


class TestGenerate:
    def test_generate_writes_graph_and_meta(self, tmp_path, capsys):
        path = tmp_path / "g.jsonl"
        assert main(["generate", str(path), "--scale", "xs"]) == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["persons"] == 120
        assert path.exists()

    def test_generate_is_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["generate", str(a), "--scale", "xs", "--seed", "5"])
        main(["generate", str(b), "--scale", "xs", "--seed", "5"])
        assert a.read_text() == b.read_text()


class TestQuery:
    def test_query_rpqd(self, graph_file, capsys):
        rc = main(
            [
                "query",
                str(graph_file),
                "SELECT COUNT(*) FROM MATCH (p:Person)",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "120"

    @pytest.mark.parametrize("engine", ["rpqd", "bft", "recursive"])
    def test_all_engines_available(self, graph_file, capsys, engine):
        rc = main(
            [
                "query",
                str(graph_file),
                "SELECT COUNT(*) FROM MATCH (a:Person)-[:KNOWS]->(b:Person)",
                "--engine",
                engine,
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert int(lines[-1]) > 0

    def test_stats_flag(self, graph_file, capsys):
        rc = main(
            [
                "query",
                str(graph_file),
                "SELECT COUNT(*) FROM MATCH (p:Person)",
                "--stats",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "virtual latency" in err

    def test_null_rendering(self, graph_file, capsys):
        rc = main(
            [
                "query",
                str(graph_file),
                "SELECT SUM(p.age) FROM MATCH (p:Robot)",
            ]
        )
        assert rc == 0
        assert "NULL" in capsys.readouterr().out

    def test_csv_format(self, graph_file, capsys):
        rc = main(
            [
                "query",
                str(graph_file),
                "SELECT COUNT(*) FROM MATCH (p:Person)",
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "COUNT(*)"
        assert out[1] == "120"

    def test_json_format(self, graph_file, capsys):
        import json

        rc = main(
            [
                "query",
                str(graph_file),
                "SELECT COUNT(*) FROM MATCH (p:Person)",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data == [{"COUNT(*)": 120}]

    def test_no_index_flag(self, graph_file, capsys):
        rc = main(
            [
                "query",
                str(graph_file),
                "SELECT COUNT(*) FROM MATCH (p:Post)<-/:REPLY_OF+/-(c:Comment)",
                "--no-index",
            ]
        )
        assert rc == 0


class TestExplain:
    def test_explain_prints_plan(self, graph_file, capsys):
        rc = main(
            [
                "explain",
                str(graph_file),
                "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/-(b:Person)",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rpq_control" in out
        assert "slots:" in out


class TestWorkload:
    def test_workload_table(self, capsys):
        rc = main(["workload", "--scale", "xs", "--machines", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Q03*" in out and "Q10R" in out
        assert "rpqd" in out and "recursive" in out


class TestDeadlineFlag:
    """``--deadline`` reaches ``EngineConfig`` whenever it was given, so 0
    is rejected by the same validation as a negative value."""

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_query_rejects_a_non_positive_deadline(self, graph_file, capsys, value):
        rc = main(
            [
                "query",
                str(graph_file),
                "SELECT COUNT(*) FROM MATCH (p:Person)",
                "--deadline",
                value,
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert (
            "error: deadline must be None or a positive int in rounds "
            f"(got {value})" in captured.err
        )

    def test_workload_rejects_deadline_zero(self, capsys):
        rc = main(["workload", "--scale", "xs", "--deadline", "0"])
        assert rc == 2
        assert "(got 0)" in capsys.readouterr().err


@pytest.fixture
def tamper_first_result(monkeypatch):
    """Make the first submitted query's result wrong (a lost row)."""
    from repro.session import QueryHandle

    real = QueryHandle.result

    def result(self):
        out = real(self)
        if self.query_id == 1:
            out.result_set._rows = []
        return out

    monkeypatch.setattr(QueryHandle, "result", result)


class TestWorkloadConcurrency:
    def test_json_report_at_concurrency_4(self, capsys):
        rc = main(["workload", "--scale", "xs", "--concurrency", "4", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical"] is True
        assert doc["concurrency"] == 4
        assert doc["sequential_makespan"] == 77
        assert doc["concurrent_makespan"] == 22
        assert doc["speedup"] == 3.5 > 1
        assert len(doc["results"]) == 9
        assert all(r["identical"] for r in doc["results"])
        assert sum(r["solo_rounds"] for r in doc["results"]) == 77

    def test_text_report_carries_the_makespan_verdict(self, capsys):
        rc = main(["workload", "--scale", "xs", "--concurrency", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-- makespan: 22 rounds concurrent vs 77 sequential (3.50x)" in out

    def test_injected_divergence_exits_one(self, capsys, tamper_first_result):
        rc = main(["workload", "--scale", "xs", "--concurrency", "4", "--json"])
        captured = capsys.readouterr()
        assert rc == 1
        doc = json.loads(captured.out)
        assert doc["identical"] is False
        assert [r["identical"] for r in doc["results"]] == [False] + [True] * 8
        assert "CONCURRENCY DIVERGENCE" in captured.err

    def test_process_backend_is_rejected(self, capsys):
        rc = main(
            ["workload", "--scale", "xs", "--backend", "process",
             "--concurrency", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--backend sim" in captured.err

    def test_timeline_is_printed_not_dropped(self, capsys):
        rc = main(
            ["workload", "--scale", "xs", "--concurrency", "2", "--timeline", "--json"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert json.loads(captured.out)["identical"]  # timelines go to stderr
        # One timeline per query, each on the query's own rounds.
        assert captured.err.count("timeline (rpqd, 4 machines):") == 9
        assert captured.err.count("\nM3  |") == 9
        assert captured.err.count("    rounds 1..") == 9


class TestChaosConcurrency:
    ARGS = ["chaos", "--scale", "xs", "--concurrency", "2", "--plans", "1", "--json"]

    def test_json_report_at_concurrency_2(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)  # stdout is the document alone
        assert doc["identical"] is True
        assert doc["concurrency"] == 2
        (run,) = doc["results"]
        assert run["identical"] is True
        assert run["makespan"] > 0
        assert sum(run["fault_counts"].values()) > 0
        assert [q["query"] for q in run["queries"]] == ["Q09", "Q03"]
        assert all(q["complete"] and q["rows_match"] for q in run["queries"])

    def test_injected_divergence_exits_one(self, capsys, tamper_first_result):
        rc = main(self.ARGS)
        captured = capsys.readouterr()
        assert rc == 1
        doc = json.loads(captured.out)
        assert doc["identical"] is False
        assert [q["rows_match"] for q in doc["results"][0]["queries"]] == [
            False, True,
        ]
        assert "RESULT DIVERGENCE" in captured.err


class TestAnalyze:
    def test_race_detector_runs_through_the_cli(self, capsys):
        assert main(["analyze", "--races", "2", "--scale", "xs"]) == 0
        out = capsys.readouterr().out
        assert "-- race detector: ok (9 queries x 2 schedules)" in out
