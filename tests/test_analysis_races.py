"""Tests for the schedule race detector: ``schedule_seed`` and the
differential sweep (``repro.sweep``) over ``{"schedule_seed": s}`` variants.

The oracle: RPQ semantics are run-based, so the result set must be
invariant under any scheduler interleaving.  The sweep re-runs tier-1
style workloads under seeded permutations of the machine service order
and per-machine worker order and compares canonical result rows.
"""

import pytest

from repro import EngineConfig, Session
from repro.errors import ConfigError
from repro.graph.generators import random_graph
from repro.sweep import SweepReport, Variant, run_sweep

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


def schedule_sweep(graph, queries, num_schedules):
    return run_sweep(
        graph,
        queries,
        [Variant(s, {"schedule_seed": s}) for s in range(1, num_schedules + 1)],
        config=CONFIG,
        baseline_overrides={"schedule_seed": None},
    )


class TestSweep:
    def test_sweep_meets_acceptance_bar(self, graph):
        """>= 20 distinct interleavings, result sets all identical."""
        report = schedule_sweep(
            graph, ["SELECT a, b FROM MATCH (a)-/:E{1,2}/->(b)"], 20
        )
        assert report.ok, report.mismatches
        assert report.mismatches == []
        results = report.query_results(0)
        assert len(results) == 20
        fingerprints = {r.stats.schedule_fingerprint for r in results}
        # The baseline ran the canonical schedule: no fingerprint, so it
        # is one more interleaving and is counted once.
        assert report.baselines[0].stats.schedule_fingerprint is None
        assert None not in fingerprints
        assert len(fingerprints) + 1 >= 20

    def test_sweep_runs_multiple_queries(self, graph):
        report = schedule_sweep(
            graph,
            [
                "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)",
                "SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)",
            ],
            3,
        )
        assert report.ok, report.mismatches
        assert [run.label for run in report.runs] == [1, 2, 3]
        assert all(len(run.results) == 2 for run in report.runs)
        assert len(report.baselines) == 2

    def test_mismatch_detection_logic(self):
        """A divergent run is reported, independent of the engine."""
        report = SweepReport(
            queries=["q", "r"], mismatches=[(1, 0, "rows"), (2, 1, "incomplete")]
        )
        assert not report.ok
        assert report.query_mismatches(0) == [(1, "rows")]
        assert report.query_mismatches(1) == [(2, "incomplete")]
