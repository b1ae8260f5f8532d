"""Fault-injection sweep — makespan inflation under chaos (repro.faults).

The paper assumes a fault-free interconnect; ``docs/faults.md`` removes
that assumption.  This bench quantifies what the reliability costs: run a
benchmark query fault-free, then under seeded lossy fault plans with
reliable transport, and report per-plan makespan inflation, retransmission
volume, and the injected-fault mix — while asserting the headline
correctness claim (every chaos run reproduces the fault-free result set
and per-depth work table exactly).
"""

import pytest

from repro import EngineConfig
from repro.bench import format_table
from repro.datagen import BENCHMARK_QUERIES
from repro.faults import seeded_sweep
from repro.sweep import Variant, run_sweep

NUM_PLANS = 5
BASE_SEED = 101


def sweep_q09(ldbc_small, plans, **config):
    """Q09 under ``plans`` against its fault-free baseline (transport held
    on, depth tables compared): a :class:`repro.sweep.SweepReport`."""
    graph, info = ldbc_small
    return run_sweep(
        graph,
        [BENCHMARK_QUERIES["Q09"](info)],
        [Variant(plan.seed, {"faults": plan}) for plan in plans],
        config=EngineConfig(num_machines=4, quantum=400.0, **config),
        baseline_overrides={"faults": None, "reliable_transport": True},
        compare_depths=True,
    )


def runs_of(report):
    """``[(plan seed, RunStats, makespan ratio vs. fault-free, exact)]``."""
    baseline = report.baselines[0].stats.virtual_time
    return [
        (
            run.label,
            run.results[0].stats,
            run.results[0].stats.virtual_time / baseline,
            not report.variant_mismatches(run.label),
        )
        for run in report.runs
    ]


@pytest.fixture(scope="module")
def chaos(ldbc_small):
    return sweep_q09(ldbc_small, seeded_sweep(NUM_PLANS, base_seed=BASE_SEED))


@pytest.fixture(scope="module")
def recovery_chaos(ldbc_small):
    """Same sweep but with *permanent* crashes and crash recovery on
    (repro.recovery): the dead machine never returns, its partition fails
    over to a survivor, and the run must still match fault-free exactly."""
    plans = seeded_sweep(NUM_PLANS, base_seed=BASE_SEED, permanent=True)
    return sweep_q09(ldbc_small, plans, recovery=True)


def test_fault_sweep_report(chaos, report):
    rows = []
    for seed, stats, ratio, exact in runs_of(chaos):
        faults = stats.fault_events
        rows.append(
            [
                seed,
                stats.virtual_time,
                f"x{ratio:.2f}",
                stats.transport["retransmits"],
                faults.get("drop", 0),
                faults.get("dup", 0),
                faults.get("delay", 0),
                faults.get("stall", 0) + faults.get("crash", 0),
                "yes" if exact else "NO",
            ]
        )
    text = format_table(
        [
            "plan seed",
            "makespan",
            "inflation",
            "retransmits",
            "drops",
            "dups",
            "delays",
            "outages",
            "exact",
        ],
        rows,
        title=(
            "Fault sweep: makespan inflation vs. fault-free "
            "(Q09, 4 machines, baseline "
            f"{chaos.baselines[0].stats.virtual_time} rounds)"
        ),
    )
    report("fault sweep", text)


def test_recovery_sweep_report(chaos, recovery_chaos, report):
    """Recovery-mode makespan inflation (checkpoint + rollback + replay
    cost) side by side with the transient-crash degrade-mode numbers."""
    rows = []
    degrade = {seed: ratio for seed, _stats, ratio, _exact in runs_of(chaos)}
    for seed, stats, ratio, exact in runs_of(recovery_chaos):
        rows.append(
            [
                seed,
                stats.virtual_time,
                f"x{degrade.get(seed, 0.0):.2f}",
                f"x{ratio:.2f}",
                stats.recovery["recoveries"],
                stats.transport["retransmits"],
                "yes" if exact else "NO",
            ]
        )
    text = format_table(
        [
            "plan seed",
            "makespan",
            "transient",
            "permanent+recovery",
            "failovers",
            "retransmits",
            "exact",
        ],
        rows,
        title=(
            "Recovery sweep: makespan inflation, transient crash vs. "
            "permanent crash with failover (Q09, 4 machines, baseline "
            f"{recovery_chaos.baselines[0].stats.virtual_time} rounds)"
        ),
    )
    report("recovery sweep", text)


def test_recovery_runs_reproduce_fault_free_results(recovery_chaos):
    # The crash-recovery contract: checkpoint/failover/replay makes every
    # permanent-crash run complete with the fault-free rows + depth table.
    assert recovery_chaos.ok, recovery_chaos.mismatches


def test_recovery_failovers_actually_fired(recovery_chaos):
    # Vacuous unless at least one plan's permanent crash hit mid-query.
    assert sum(
        result.stats.recovery["recoveries"]
        for result in recovery_chaos.query_results(0)
    ) > 0


def test_chaos_runs_reproduce_fault_free_results(chaos):
    # The reliable-transport contract: exactly-once delivery makes every
    # seeded chaos run produce the fault-free rows and depth table.
    assert chaos.ok, chaos.mismatches


def test_faults_actually_fired(chaos):
    # The sweep is vacuous unless the plans genuinely perturbed the run.
    runs = chaos.query_results(0)
    assert sum(sum(r.stats.fault_events.values()) for r in runs) > 0
    assert sum(r.stats.transport["retransmits"] for r in runs) > 0


def test_chaos_costs_latency_not_correctness(chaos):
    # Recovering from loss takes retransmission round trips: makespan may
    # only inflate (never beat a perfect network by a meaningful margin).
    for _seed, _stats, ratio, _exact in runs_of(chaos):
        assert ratio >= 0.95


def test_wall_clock_one_chaos_run(benchmark, ldbc_small):
    graph, info = ldbc_small
    query = BENCHMARK_QUERIES["Q09"](info)
    (plan,) = seeded_sweep(1, base_seed=BASE_SEED)
    from repro import Session

    engine = Session(graph, EngineConfig(num_machines=4, quantum=400.0, faults=plan))
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
