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
from repro.faults import run_chaos_sweep, seeded_sweep

NUM_PLANS = 5
BASE_SEED = 101


@pytest.fixture(scope="module")
def chaos(ldbc_small):
    graph, info = ldbc_small
    query = BENCHMARK_QUERIES["Q09"](info)
    plans = seeded_sweep(NUM_PLANS, base_seed=BASE_SEED)
    config = EngineConfig(num_machines=4, quantum=400.0)
    (rep,) = run_chaos_sweep(graph, [query], plans, config=config)
    return rep


@pytest.fixture(scope="module")
def recovery_chaos(ldbc_small):
    """Same sweep but with *permanent* crashes and crash recovery on
    (repro.recovery): the dead machine never returns, its partition fails
    over to a survivor, and the run must still match fault-free exactly."""
    graph, info = ldbc_small
    query = BENCHMARK_QUERIES["Q09"](info)
    plans = seeded_sweep(NUM_PLANS, base_seed=BASE_SEED, permanent=True)
    config = EngineConfig(num_machines=4, quantum=400.0, recovery=True)
    (rep,) = run_chaos_sweep(graph, [query], plans, config=config)
    return rep


def test_fault_sweep_report(chaos, report):
    rows = []
    for run, (seed, ratio) in zip(chaos.runs, chaos.makespan_inflation()):
        faults = run.fault_counts
        rows.append(
            [
                seed,
                run.makespan,
                f"x{ratio:.2f}",
                run.retransmits,
                faults.get("drop", 0),
                faults.get("dup", 0),
                faults.get("delay", 0),
                faults.get("stall", 0) + faults.get("crash", 0),
                "yes" if run.rows_match and run.depths_match else "NO",
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
            f"(Q09, 4 machines, baseline {chaos.baseline_makespan} rounds)"
        ),
    )
    report("fault sweep", text)


def test_recovery_sweep_report(chaos, recovery_chaos, report):
    """Recovery-mode makespan inflation (checkpoint + rollback + replay
    cost) side by side with the transient-crash degrade-mode numbers."""
    rows = []
    degrade = dict(chaos.makespan_inflation())
    for run, (seed, ratio) in zip(
        recovery_chaos.runs, recovery_chaos.makespan_inflation()
    ):
        rows.append(
            [
                seed,
                run.makespan,
                f"x{degrade.get(seed, 0.0):.2f}",
                f"x{ratio:.2f}",
                run.recoveries,
                run.retransmits,
                "yes" if run.rows_match and run.depths_match else "NO",
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
            f"{recovery_chaos.baseline_makespan} rounds)"
        ),
    )
    report("recovery sweep", text)


def test_recovery_runs_reproduce_fault_free_results(recovery_chaos):
    # The crash-recovery contract: checkpoint/failover/replay makes every
    # permanent-crash run complete with the fault-free rows + depth table.
    assert recovery_chaos.ok, recovery_chaos.mismatches
    assert all(run.complete for run in recovery_chaos.runs)


def test_recovery_failovers_actually_fired(recovery_chaos):
    # Vacuous unless at least one plan's permanent crash hit mid-query.
    assert sum(run.recoveries for run in recovery_chaos.runs) > 0


def test_chaos_runs_reproduce_fault_free_results(chaos):
    # The reliable-transport contract: exactly-once delivery makes every
    # seeded chaos run produce the fault-free rows and depth table.
    assert chaos.ok, chaos.mismatches
    assert all(run.complete for run in chaos.runs)


def test_faults_actually_fired(chaos):
    # The sweep is vacuous unless the plans genuinely perturbed the run.
    assert chaos.total_faults > 0
    assert sum(run.retransmits for run in chaos.runs) > 0


def test_chaos_costs_latency_not_correctness(chaos):
    # Recovering from loss takes retransmission round trips: makespan may
    # only inflate (never beat a perfect network by a meaningful margin).
    for _seed, ratio in chaos.makespan_inflation():
        assert ratio >= 0.95


def test_wall_clock_one_chaos_run(benchmark, ldbc_small):
    graph, info = ldbc_small
    query = BENCHMARK_QUERIES["Q09"](info)
    (plan,) = seeded_sweep(1, base_seed=BASE_SEED)
    from repro import Session

    engine = Session(graph, EngineConfig(num_machines=4, quantum=400.0, faults=plan))
    benchmark.pedantic(lambda: engine.execute(query), rounds=3, iterations=1)
