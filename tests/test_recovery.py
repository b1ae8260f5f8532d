"""Crash recovery tests (repro.recovery / docs/recovery.md).

The headline contract: with ``EngineConfig(recovery=True)``, any seeded
FaultPlan with *permanent* machine crashes (at least one survivor) must
yield ``complete=True`` and a result set bit-identical to the fault-free
run — checkpoint, partition failover, and exactly-once replay hide the
loss entirely.  Every execution here runs under the protocol sanitizer,
whose recovery hooks verify the rollback restored the checkpoint exactly.
"""

import json

import pytest

from repro import EngineConfig, Session
from repro.cli import main
from repro.errors import ConfigError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MachineCrash,
    seeded_sweep,
)
from repro.graph.generators import random_graph, reply_forest
from repro.membership import MembershipService
from repro.recovery import CheckpointStore, ClusterCheckpoint
from repro.runtime.message import Batch
from repro.runtime.network import MAX_RETX_ATTEMPTS, LossyNetwork
from repro.sweep import Variant, run_sweep

CONFIG = EngineConfig(num_machines=4, buffers_per_machine=2048, sanitize=True)
ROWS_QUERY = "SELECT a, b FROM MATCH (a)-/:E{1,3}/->(b)"
AGG_QUERY = "SELECT COUNT(*) FROM MATCH (a)-/:E{1,3}/->(b)"


@pytest.fixture(scope="module")
def graph():
    return random_graph(60, 180, seed=11, edge_label="E")


@pytest.fixture(scope="module")
def engine(graph):
    return Session(graph, CONFIG)


@pytest.fixture(scope="module")
def clean(engine):
    return engine.execute(ROWS_QUERY)


def run_with_crashes(engine, crashes, query=ROWS_QUERY, seed=7):
    plan = FaultPlan(seed=seed, crashes=crashes)
    config = CONFIG.with_(faults=plan, recovery=True)
    return engine.execute(query, config=config)


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
class TestConfig:
    def test_recovery_requires_reliable_transport(self):
        with pytest.raises(ConfigError):
            EngineConfig(recovery=True, reliable_transport=False)

    def test_recovery_auto_enables_transport(self, engine):
        armed = engine.execute(AGG_QUERY, config=CONFIG.with_(recovery=True))
        assert armed.stats.transport is not None
        assert engine.execute(AGG_QUERY).stats.transport is None

    @pytest.mark.parametrize("bad", [0, -5, 1.5])
    def test_deadline_validation(self, bad):
        with pytest.raises(ConfigError):
            EngineConfig(deadline=bad)

    def test_recovery_off_keeps_partial_semantics(self, engine, clean):
        """Without recovery a permanent crash still degrades to partial
        results (the PR 3 behaviour is the explicit opt-out)."""
        plan = FaultPlan(seed=7, crashes=(MachineCrash(machine=2, round=4),))
        config = CONFIG.with_(faults=plan, stall_limit=30)
        result = engine.execute(ROWS_QUERY, config=config)
        assert result.complete is False
        assert result.stats.down_machines == (2,)


# ----------------------------------------------------------------------
# Result-set equality across crash-timing edge cases
# ----------------------------------------------------------------------
class TestCrashRecoveryEquivalence:
    def assert_recovered(self, result, clean, recoveries=1):
        assert result.complete is True
        assert result.timed_out is False
        assert result.rows == clean.rows
        summary = result.stats.summary()["recovery"]
        assert summary["recoveries"] == recoveries
        assert summary["epoch"] == recoveries
        return summary

    def test_crash_during_depth0_bootstrap(self, engine, clean):
        """A crash in round 1, before any checkpoint but the initial one:
        the rollback restores the pristine pre-query state (bootstrap
        queues included) and replays from round zero."""
        result = run_with_crashes(engine, (MachineCrash(machine=1, round=1),))
        summary = self.assert_recovered(result, clean)
        assert 1 in summary["failed_over"]

    def test_crash_of_coordinator_machine_zero(self, engine, clean):
        """Machine 0 plays the coordinator role in broadcasts; recovery
        must not depend on it surviving (the RecoveryManager models a
        replicated service, not a process on machine 0)."""
        result = run_with_crashes(engine, (MachineCrash(machine=0, round=5),))
        summary = self.assert_recovered(result, clean)
        assert summary["hosts"][0] != 0

    def test_two_sequential_crashes(self, engine, clean):
        """A second permanent crash after the first failover: the stored
        checkpoint is reusable, and a survivor can end up hosting three
        logical machines."""
        result = run_with_crashes(
            engine,
            (MachineCrash(machine=2, round=4), MachineCrash(machine=3, round=9)),
        )
        summary = self.assert_recovered(result, clean, recoveries=2)
        assert sorted(summary["failed_over"]) == [2, 3]
        hosts = summary["hosts"]
        assert all(h not in (2, 3) for h in hosts)

    def test_crash_racing_termination_conclude(self, engine, clean):
        """Crash at the round the fault-free run concludes: the rollback
        may rewind machines that already concluded, and the scheduler's
        view must follow."""
        result = run_with_crashes(
            engine,
            (MachineCrash(machine=1, round=max(1, clean.stats.virtual_time)),),
        )
        self.assert_recovered(result, clean)

    def test_aggregate_query_recovers(self, engine):
        clean = engine.execute(AGG_QUERY)
        result = run_with_crashes(
            engine, (MachineCrash(machine=2, round=6),), query=AGG_QUERY
        )
        assert result.complete and result.scalar() == clean.scalar()

    def test_recovery_is_deterministic(self, engine):
        crashes = (MachineCrash(machine=2, round=6),)
        a = run_with_crashes(engine, crashes)
        b = run_with_crashes(engine, crashes)
        assert a.rows == b.rows
        assert a.stats.rounds == b.stats.rounds
        assert a.stats.summary()["recovery"] == b.stats.summary()["recovery"]

    def test_recovery_makespan_costs_rounds(self, engine, clean):
        """Rollback + replay costs virtual time, never correctness."""
        result = run_with_crashes(engine, (MachineCrash(machine=2, round=6),))
        assert result.stats.virtual_time > clean.stats.virtual_time


# ----------------------------------------------------------------------
# Seeded sweeps (the acceptance oracle)
# ----------------------------------------------------------------------
def recovery_sweep(graph, queries, plans, compare_depths=True):
    """Permanent-crash plans with recovery on, against the fault-free
    baseline (transport held on)."""
    return run_sweep(
        graph,
        queries,
        [Variant(plan.seed, {"faults": plan}) for plan in plans],
        config=CONFIG.with_(recovery=True),
        baseline_overrides={"faults": None, "reliable_transport": True},
        compare_depths=compare_depths,
    )


class TestRecoverySweeps:
    def test_tree_sweep_depth_table_invariant(self):
        """On a tree-shaped expansion even the per-depth work accounting
        must survive permanent crashes exactly (cf. the transient-crash
        sweep in test_faults.py)."""
        forest = reply_forest(num_roots=8, branching=3, depth=4, seed=5)
        plans = seeded_sweep(3, base_seed=21, horizon=80, permanent=True)
        report = recovery_sweep(
            forest, ["SELECT COUNT(*) FROM MATCH (a)-/:REPLY_OF+/->(b)"], plans
        )
        assert report.ok, report.mismatches
        assert len(report.runs) == 3
        assert all(r.complete for r in report.query_results(0))

    def test_cyclic_sweep_rows_invariant(self, graph):
        """On cyclic graphs rows are exactly invariant (depth accounting
        is order-dependent there, as in the transient sweep)."""
        plans = seeded_sweep(4, base_seed=42, horizon=40, permanent=True)
        report = recovery_sweep(
            graph, [ROWS_QUERY, AGG_QUERY], plans, compare_depths=False
        )
        assert report.ok, report.mismatches
        # The sweep is vacuous unless failovers actually fired.
        assert any(
            result.stats.recovery["recoveries"]
            for run in report.runs
            for result in run.results
        )

    def test_permanent_seeded_plans_never_recover(self):
        for plan in seeded_sweep(3, base_seed=9, permanent=True):
            assert all(c.recover_round is None for c in plan.crashes)
        for plan in seeded_sweep(3, base_seed=9):
            assert all(c.recover_round is not None for c in plan.crashes)


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_keeps_last_n(self):
        store = CheckpointStore(keep=2)
        for i in range(4):
            store.put(
                ClusterCheckpoint(
                    epoch=0, round_no=i, reason="epoch",
                    machines={}, network={}, terminated=set(),
                )
            )
        assert len(store) == 2
        assert store.latest().round_no == 3

    def test_empty_store(self):
        assert CheckpointStore().latest() is None


# ----------------------------------------------------------------------
# Deadline (virtual-clock abort)
# ----------------------------------------------------------------------
class TestDeadline:
    def test_deadline_aborts_cleanly(self, engine, clean):
        result = engine.execute(
            ROWS_QUERY, config=CONFIG.with_(sanitize=False, deadline=2)
        )
        assert result.complete is False
        assert result.timed_out is True
        assert result.stats.summary()["timed_out"] is True
        assert "timed_out=True" in repr(result.result_set)
        # Partial rows are a lower bound on the full answer.
        assert set(result.rows) <= set(clean.rows)

    def test_generous_deadline_is_invisible(self, engine, clean):
        result = engine.execute(ROWS_QUERY, config=CONFIG.with_(deadline=10_000))
        assert result.complete is True
        assert result.timed_out is False
        assert result.rows == clean.rows
        assert "timed_out" not in result.stats.summary()


# ----------------------------------------------------------------------
# Retransmit exhaustion (no failover in place)
# ----------------------------------------------------------------------
class TestRetxExhaustion:
    def test_link_gives_up_on_confirmed_down_peer(self):
        """Abandonment is detection-driven: the link gives up only after
        the membership service CONFIRMS the peer down (never by peeking
        at the injector's permanent-crash ground truth)."""
        plan = FaultPlan(seed=1, crashes=(MachineCrash(machine=1, round=1),))
        injector = FaultInjector(plan, 2)
        net = LossyNetwork(2, reliable=True, faults=injector)
        membership = MembershipService(2, injector=injector)
        net.membership = membership
        batch = Batch(src_machine=0, dst_machine=1, target_stage=0, depth=0)
        batch.add(5, [5])
        net.send(batch, now_round=2)
        for round_no in range(3, 800):
            membership.tick(round_no)
            net.tick(round_no)
            net.drain(0, round_no)
            if not net._outstanding:
                break
        assert membership.is_confirmed_down(1)
        assert net.retx_exhausted == 1
        assert not net._outstanding
        assert net.transport_summary()["retx_exhausted"] == 1

    def test_exhaustion_needs_max_attempts(self):
        """Abandonment never fires before MAX_RETX_ATTEMPTS transmissions
        — inside PR 3's stall_limit=30 degrade tests it cannot trigger."""
        assert MAX_RETX_ATTEMPTS >= 8

    def test_engine_counts_exhaustion_and_notes(self, graph):
        plan = FaultPlan(seed=3, crashes=(MachineCrash(machine=2, round=4),))
        config = CONFIG.with_(sanitize=False, faults=plan, stall_limit=500)
        result = Session(graph, config).execute(ROWS_QUERY)
        assert result.complete is False
        assert result.stats.transport["retx_exhausted"] > 0

    def test_rehosted_peer_is_never_abandoned(self, engine, clean):
        """With recovery on, frames to a failed-over logical machine are
        replayed and acked by the new host — zero exhausted links."""
        result = run_with_crashes(engine, (MachineCrash(machine=2, round=6),))
        assert result.stats.transport["retx_exhausted"] == 0
        assert result.stats.transport["frames_replayed"] >= 0


# ----------------------------------------------------------------------
# Propagation: workload CLI, chaos CLI, bench harness
# ----------------------------------------------------------------------
class TestPropagation:
    def test_workload_json_carries_completeness(self, capsys):
        rc = main(
            ["workload", "--scale", "xs", "--machines", "2", "--json",
             "--deadline", "2"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]
        for record in payload["results"]:
            assert record["complete"] is False
            assert record["timed_out"] is True
            assert record["down_machines"] == []

    def test_workload_table_marks_partial(self, capsys):
        rc = main(
            ["workload", "--scale", "xs", "--machines", "2", "--deadline", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "*" in out and "PARTIAL" in out

    def test_chaos_cli_recover_sweep(self, capsys):
        rc = main(
            ["chaos", "--scale", "xs", "--plans", "2", "--queries", "Q09",
             "--sanitize", "--recover", "--json"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("}") + 1])
        (record,) = payload["results"]
        assert record["ok"] is True
        assert record["recoveries"] >= 1

    def test_bench_result_completeness(self, graph):
        from repro.bench import BenchHarness, rpqd_executor

        plan = FaultPlan(seed=7, crashes=(MachineCrash(machine=2, round=4),))
        harness = BenchHarness(repetitions=1)
        cells = harness.run(
            {
                "degraded": rpqd_executor(
                    graph, 4, buffers_per_machine=2048, faults=plan,
                    stall_limit=30,
                ),
                "recovered": rpqd_executor(
                    graph, 4, buffers_per_machine=2048, faults=plan,
                    recovery=True,
                ),
            },
            {"q": ROWS_QUERY},
        )
        degraded = cells[("degraded", "q")]
        assert degraded.complete is False
        assert degraded.down_machines == (2,)
        recovered = cells[("recovered", "q")]
        assert recovered.complete is True
        assert recovered.timed_out is False
        assert recovered.down_machines == ()
