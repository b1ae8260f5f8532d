"""Coverage for the round-robin median harness the figure scripts use
(warmup exclusion, message volume) and the wall-clock fields on
``workload --json``."""

import json

from repro.bench.harness import BenchHarness
from repro.cli import main


class FakeResult:
    def __init__(self, virtual_time=5, rows=((1,),)):
        self.virtual_time = virtual_time
        self.rows = rows
        self.stats = type(
            "S", (), {"batches_sent": 7, "bytes_sent": 99, "profile": None}
        )()


class TestHarnessWarmup:
    def test_warmup_runs_but_is_excluded_from_samples(self):
        calls = []

        def execute(q):
            calls.append(q)
            return FakeResult()

        cells = BenchHarness(repetitions=2, warmup=1).run(
            {"e": execute}, {"q": "text"}
        )
        cell = cells[("e", "q")]
        assert len(calls) == 3  # 1 warmup + 2 measured
        assert len(cell.samples) == 2
        assert cell.repetitions == 2
        assert cell.warmup == 1

    def test_median_covers_measured_passes_only(self):
        latencies = iter([100, 5, 7])  # warmup pass is the outlier

        def execute(q):
            return FakeResult(virtual_time=next(latencies))

        cell = BenchHarness(repetitions=2, warmup=1).run(
            {"e": execute}, {"q": "text"}
        )[("e", "q")]
        assert cell.virtual_time == 6  # median of 5, 7; 100 discarded

    def test_message_volume_recorded(self):
        cell = BenchHarness(repetitions=1, warmup=0).run(
            {"e": lambda q: FakeResult()}, {"q": "t"}
        )[("e", "q")]
        assert cell.messages == 7
        assert cell.bytes_sent == 99


class TestWorkloadWallClock:
    def test_json_records_wall_seconds_per_engine(self, capsys):
        rc = main([
            "workload", "--scale", "xs", "--machines", "2", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        for record in payload["results"]:
            for ename in payload["engines"]:
                wall = record[f"{ename}_wall_seconds"]
                assert wall is None or wall >= 0
