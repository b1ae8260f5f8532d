"""Failure-detection sweep — detection latency vs. false positives
(repro.membership).

The heartbeat membership service trades detection speed for accuracy:
aggressive ``suspect_after``/``confirm_after`` windows confirm a dead
machine sooner but suspect healthy machines more often under message
loss.  This bench sweeps the detection parameters over seeded
permanent-crash plans and reports, per setting, the crash-detection
latency (rounds from silence to quorum confirmation) against the
false-suspicion rate — while asserting that every setting still
reproduces the fault-free result set exactly.  A second sweep adds
scheduled network partitions and checks the quorum rule: false
suspicions raised by a healing partition must cost nothing.
"""

import pytest

from repro import EngineConfig, Session
from repro.bench import format_table
from repro.datagen import BENCHMARK_QUERIES
from repro.faults import seeded_sweep
from repro.sweep import Variant, run_sweep

NUM_PLANS = 5
BASE_SEED = 211

#: (label, suspect_after, confirm_after) from trigger-happy to patient.
SETTINGS = [
    ("aggressive", 4, 8),
    ("balanced", 6, 12),
    ("default", 6, 24),
    ("patient", 10, 40),
]


def _sweep(graph, query, plans, **detection):
    """Run ``query`` under every plan (:func:`repro.sweep.run_sweep`
    against the fault-free run); one dict per plan."""
    report = run_sweep(
        graph,
        [query],
        [Variant(plan.seed, {"faults": plan}) for plan in plans],
        config=EngineConfig(
            num_machines=4, quantum=400.0, recovery=True, **detection
        ),
        baseline_overrides={"faults": None},
    )
    return [
        {
            "exact": not report.variant_mismatches(run.label),
            "membership": run.results[0].stats.membership or {},
        }
        for run in report.runs
    ]


@pytest.fixture(scope="module")
def detection_sweep(ldbc_small):
    """Per-setting crash sweep: ``{label: [run, ...]}``."""
    graph, info = ldbc_small
    query = BENCHMARK_QUERIES["Q09"](info)
    plans = seeded_sweep(NUM_PLANS, base_seed=BASE_SEED, permanent=True)
    out = {}
    for label, suspect_after, confirm_after in SETTINGS:
        out[label] = _sweep(
            graph,
            query,
            plans,
            suspect_after=suspect_after,
            confirm_after=confirm_after,
        )
    return out


@pytest.fixture(scope="module")
def partition_sweep(ldbc_small):
    """Default detection under partitions + permanent crashes."""
    graph, info = ldbc_small
    query = BENCHMARK_QUERIES["Q09"](info)
    plans = seeded_sweep(
        NUM_PLANS, base_seed=BASE_SEED, permanent=True, partitions=True
    )
    return _sweep(graph, query, plans)


def test_detection_latency_vs_false_positive_table(detection_sweep, report):
    rows = []
    for label, suspect_after, confirm_after in SETTINGS:
        runs = detection_sweep[label]
        latencies = [
            lat
            for run in runs
            for lat in run["membership"].get("detection_latencies", [])
        ]
        suspicions = sum(
            run["membership"].get("suspicions", 0) for run in runs
        )
        false_pos = sum(
            run["membership"].get("false_suspicions", 0) for run in runs
        )
        confirmations = sum(
            run["membership"].get("confirmations", 0) for run in runs
        )
        mean_lat = sum(latencies) / len(latencies) if latencies else 0.0
        fp_rate = false_pos / suspicions if suspicions else 0.0
        rows.append(
            [
                f"{label} ({suspect_after}+{confirm_after})",
                confirmations,
                f"{mean_lat:.1f}",
                max(latencies) if latencies else 0,
                suspicions,
                false_pos,
                f"{fp_rate:.0%}",
                "yes" if all(r["exact"] for r in runs) else "NO",
            ]
        )
    text = format_table(
        [
            "detection (suspect+confirm)",
            "confirmations",
            "mean latency",
            "max latency",
            "suspicions",
            "false",
            "fp rate",
            "exact",
        ],
        rows,
        title=(
            "Failure detection: latency (rounds) vs. false-positive rate "
            f"(Q09, 4 machines, {NUM_PLANS} permanent-crash plans)"
        ),
    )
    report("membership detection", text)


def test_every_setting_reproduces_fault_free(detection_sweep):
    # Detection tuning is a latency knob, never a correctness knob.
    for label, runs in detection_sweep.items():
        assert all(r["exact"] for r in runs), label


def test_detection_actually_fired(detection_sweep):
    # Vacuous unless the plans' permanent crashes hit mid-query and the
    # detector (not an oracle) confirmed them.
    for label, runs in detection_sweep.items():
        confirmed = sum(
            r["membership"].get("confirmations", 0) for r in runs
        )
        assert confirmed > 0, label


def test_patient_detection_is_slower(detection_sweep):
    # Wider windows must pay their latency: the patient setting's mean
    # confirmation latency dominates the aggressive setting's.
    def mean_latency(runs):
        lat = [
            x
            for r in runs
            for x in r["membership"].get("detection_latencies", [])
        ]
        return sum(lat) / len(lat) if lat else 0.0

    assert mean_latency(detection_sweep["patient"]) > mean_latency(
        detection_sweep["aggressive"]
    )


def test_partitions_reproduce_fault_free(partition_sweep):
    # Quorum safety under partitions: the majority side may fail over the
    # isolated machine, a healing split may only raise (free) false
    # suspicions — either way the rows match fault-free exactly.
    assert all(r["exact"] for r in partition_sweep)


def test_wall_clock_one_detected_failover(benchmark, ldbc_small):
    graph, info = ldbc_small
    query = BENCHMARK_QUERIES["Q09"](info)
    (plan,) = seeded_sweep(1, base_seed=BASE_SEED, permanent=True)
    config = EngineConfig(
        num_machines=4, quantum=400.0, recovery=True, faults=plan
    )
    session = Session(graph, config)
    benchmark.pedantic(lambda: session.execute(query), rounds=3, iterations=1)
