"""Tests for the schedule race detector (repro.analysis.races).

The oracle: RPQ semantics are run-based, so the result set must be
invariant under any scheduler interleaving.  The sweep re-runs tier-1
style workloads under seeded permutations of the machine service order
and per-machine worker order and compares canonical result rows.
"""

import pytest

from repro import EngineConfig, Session
from repro.analysis.races import RaceReport, run_schedule_sweep
from repro.errors import ConfigError
from repro.graph.generators import random_graph

CONFIG = EngineConfig(num_machines=4, buffers_per_machine=2048)


@pytest.fixture(scope="module")
def graph():
    return random_graph(60, 180, seed=11, edge_label="E")


class TestScheduleSeedConfig:
    def test_defaults_off(self):
        assert EngineConfig().schedule_seed is None

    def test_accepts_non_negative(self):
        assert EngineConfig(schedule_seed=7).schedule_seed == 7

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            EngineConfig(schedule_seed=-1)

    def test_fingerprint_absent_without_seed(self, graph):
        result = Session(graph, CONFIG).execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)"
        )
        assert result.stats.schedule_fingerprint is None


class TestSeededScheduling:
    QUERY = "SELECT COUNT(*) FROM MATCH (a)-/:E{1,3}/->(b)"

    def test_same_seed_is_deterministic(self, graph):
        engine = Session(graph, CONFIG)
        runs = [
            engine.execute(self.QUERY, config=CONFIG.with_(schedule_seed=3))
            for _ in range(2)
        ]
        fingerprints = [r.stats.schedule_fingerprint for r in runs]
        assert fingerprints[0] is not None
        assert fingerprints[0] == fingerprints[1]
        assert runs[0].scalar() == runs[1].scalar()

    def test_different_seeds_differ(self, graph):
        engine = Session(graph, CONFIG)
        fingerprints = {
            engine.execute(
                self.QUERY, config=CONFIG.with_(schedule_seed=seed)
            ).stats.schedule_fingerprint
            for seed in range(4)
        }
        assert len(fingerprints) == 4

    def test_seeded_result_matches_unseeded(self, graph):
        engine = Session(graph, CONFIG)
        baseline = engine.execute(self.QUERY).scalar()
        perturbed = engine.execute(
            self.QUERY, config=CONFIG.with_(schedule_seed=99)
        ).scalar()
        assert baseline == perturbed


class TestSweep:
    def test_sweep_meets_acceptance_bar(self, graph):
        """>= 20 distinct interleavings, result sets all identical."""
        reports = run_schedule_sweep(
            graph,
            ["SELECT a, b FROM MATCH (a)-/:E{1,2}/->(b)"],
            num_schedules=20,
            config=CONFIG,
        )
        assert len(reports) == 1
        report = reports[0]
        assert report.ok, report.summary()
        assert report.mismatches == []
        assert report.distinct_interleavings >= 20
        assert len(report.seeds) == 20
        assert "ok" in report.summary()

    def test_sweep_runs_multiple_queries(self, graph):
        reports = run_schedule_sweep(
            graph,
            [
                "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)",
                "SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)",
            ],
            num_schedules=3,
            config=CONFIG,
        )
        assert [r.ok for r in reports] == [True, True]
        for report in reports:
            assert report.query in report.summary()

    def test_mismatch_detection_logic(self):
        """A divergent run is reported, independent of the engine."""
        report = RaceReport(
            query="q",
            baseline_rows=((1,),),
            seeds=[0, 1],
            fingerprints=[101, 202],
            mismatches=[(1, ((1,), (2,)))],
        )
        assert not report.ok
        assert "MISMATCH" in report.summary().upper() or "1 mismatch" in report.summary()
