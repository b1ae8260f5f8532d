"""Oracle-free failure detection: the heartbeat membership service.

The detection contract (docs/architecture.md §11): silence escalates
ALIVE → SUSPECT → CONFIRMED-DOWN on the virtual clock, confirmation is a
quorum decision (live view + the coordination-service witness), a
minority partition can never confirm anybody, false suspicions that heal
before confirmation cost nothing, and *no production code path reads the
injector's ground truth* to make a recovery decision — the injector is a
test oracle only (the final test enforces that with an AST scan).
"""

import ast
import json
import pathlib
import random
from types import SimpleNamespace

import pytest

from repro import EngineConfig, Session, connect
from repro.analysis.sanitizer import RuntimeSanitizer
from repro.errors import ConfigError, SanitizerViolation
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MachineCrash,
    MachineStall,
    NetworkPartition,
)
from repro.faults.cluster import ClusterChaos
from repro.graph.generators import random_graph
from repro.membership import (
    ALIVE,
    CONFIRMED_DOWN,
    SUSPECT,
    MembershipService,
    resolve_stall,
)
from repro.runtime.multi import QueryTask
from repro.runtime.message import Batch
from repro.runtime.network import LossyNetwork, frame_checksum

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Default detection window: suspect_after + confirm_after rounds.
WINDOW = 6 + 24


def detector(plan, num_machines=4, **kwargs):
    injector = FaultInjector(plan, num_machines)
    return MembershipService(num_machines, injector=injector, **kwargs)


def run_detector(service, rounds, collect=None):
    """Tick through ``rounds``; returns {round: newly_confirmed} for the
    rounds that confirmed anyone.  ``collect`` maps round -> callable to
    sample state mid-run."""
    confirmed = {}
    for round_no in range(1, rounds + 1):
        newly = service.tick(round_no)
        if newly:
            confirmed[round_no] = newly
        if collect is not None and round_no in collect:
            collect[round_no](round_no)
    return confirmed


# ----------------------------------------------------------------------
# State transitions
# ----------------------------------------------------------------------
class TestStateTransitions:
    def test_fault_free_cluster_stays_alive(self):
        service = MembershipService(4)
        assert run_detector(service, 80) == {}
        assert all(service.state_of(h) == ALIVE for h in range(4))
        assert service.suspicions == 0
        assert service.probes_delivered > 0

    def test_permanent_crash_escalates_alive_suspect_confirmed(self):
        plan = FaultPlan(seed=1, crashes=(MachineCrash(machine=2, round=5),))
        service = detector(plan)
        seen = {}
        samples = {
            4: lambda r: seen.setdefault("before", service.state_of(2)),
            20: lambda r: seen.setdefault("mid", service.state_of(2)),
        }
        confirmed = run_detector(service, 60, collect=samples)
        assert seen["before"] == ALIVE
        assert seen["mid"] == SUSPECT
        assert service.state_of(2) == CONFIRMED_DOWN
        assert service.is_confirmed_down(2)
        # Exactly one confirmation, of exactly host 2, after the window.
        ((round_no, hosts),) = confirmed.items()
        assert hosts == [2]
        assert round_no > WINDOW
        (latency,) = service.detection_latencies
        assert latency > WINDOW

    def test_transient_crash_is_a_free_false_suspicion(self):
        # Down for 13 rounds: past suspect_after (6), well inside the
        # confirmation window (30) — suspected, then cleared, no verdict.
        plan = FaultPlan(
            seed=1,
            crashes=(MachineCrash(machine=1, round=5, recover_round=18),),
        )
        service = detector(plan)
        assert run_detector(service, 80) == {}
        assert service.state_of(1) == ALIVE
        assert service.suspicions >= 1
        assert service.false_suspicions >= 1
        assert service.confirmations == 0

    def test_suspects_inside_window_reset_the_progress_clock(self):
        plan = FaultPlan(
            seed=1,
            crashes=(MachineCrash(machine=1, round=5, recover_round=18),),
        )
        service = detector(plan)
        for round_no in range(1, 15):
            service.tick(round_no)
        assert service.unconfirmed_suspects(14) == (1,)
        chaos = ClusterChaos(EngineConfig(num_machines=4, faults=plan), dgraph=None)
        chaos.membership = service

        class Idle:  # the progress clock of a QueryTask that does nothing
            config = SimpleNamespace(stall_limit=3)
            last_progress = 0
            stalled = QueryTask.stalled

        task = Idle()
        for round_no in range(1, 15):
            assert chaos.idle(task, round_no) is False
        assert task.last_progress == 14 and not task.stalled(14)

    def test_confirmation_is_revocable_until_fenced(self):
        # Outage longer than the whole detection window: the verdict
        # lands, the host comes back, the verdict is revoked.
        plan = FaultPlan(
            seed=1,
            crashes=(MachineCrash(machine=1, round=5, recover_round=40),),
        )
        service = detector(plan)
        confirmed = run_detector(service, 80)
        assert list(confirmed.values()) == [[1]]
        assert service.confirmations == 1
        assert service.rejoins == 1
        assert service.state_of(1) == ALIVE
        assert not service.is_confirmed_down(1)

    def test_fenced_host_never_rejoins(self):
        plan = FaultPlan(
            seed=1,
            crashes=(MachineCrash(machine=1, round=5, recover_round=40),),
        )
        service = detector(plan)
        for round_no in range(1, 80):
            for host in service.tick(round_no):
                service.fence(host, round_no)
        assert service.view() == (0, 2, 3)
        assert service.rejoins == 0
        assert service.is_confirmed_down(1)
        # Future quorums are over the shrunken view + witness: |view|=3,
        # population 4, majority 3.
        assert service.quorum() == 3


# ----------------------------------------------------------------------
# Quorum safety under partitions
# ----------------------------------------------------------------------
class TestQuorumSafety:
    def test_symmetric_split_brain_confirms_nobody(self):
        plan = FaultPlan(
            seed=1,
            partitions=(
                NetworkPartition(
                    start_round=2, mode="symmetric", groups=((0, 1), (2, 3))
                ),
            ),
        )
        service = detector(plan)
        assert run_detector(service, 120) == {}
        assert service.confirmations == 0
        # Every host is suspected by the far side but short of quorum:
        # 2 votes < 3 needed (population 5) — the split-brain signature.
        assert set(service.quorum_blocked()) == {0, 1, 2, 3}
        assert all(service.state_of(h) == SUSPECT for h in range(4))

    def test_quorum_blocked_hosts_do_not_stall_the_watchdog_forever(self):
        plan = FaultPlan(
            seed=1,
            partitions=(
                NetworkPartition(
                    start_round=2, mode="symmetric", groups=((0, 1), (2, 3))
                ),
            ),
        )
        service = detector(plan)
        for round_no in range(1, 120):
            service.tick(round_no)
        # Blocked suspects are NOT "unconfirmed suspects": they must not
        # buy the progress watchdog more time indefinitely...
        assert service.unconfirmed_suspects(119) == ()
        # ...and a stalled query resolves to an honest quorum-lost error,
        # never a partial-results downgrade or a failover.
        kind, hosts = resolve_stall(service)
        assert kind == "quorum"
        assert set(hosts) == {0, 1, 2, 3}

    def test_majority_evicts_isolated_minority_only(self):
        plan = FaultPlan(
            seed=1,
            partitions=(
                NetworkPartition(
                    start_round=2, mode="symmetric", groups=((0,), (1, 2, 3))
                ),
            ),
        )
        service = detector(plan)
        confirmed = run_detector(service, 120)
        # The three-host side reaches quorum (3 of 5) on the isolated
        # host; the isolated host's lone votes against the other three
        # never can: they stay blocked, not confirmed.
        assert list(confirmed.values()) == [[0]]
        assert service.is_confirmed_down(0)
        assert set(service.quorum_blocked()) == {1, 2, 3}
        assert service.confirmations == 1

    def test_healed_partition_costs_nothing(self):
        plan = FaultPlan(
            seed=1,
            partitions=(
                NetworkPartition(
                    start_round=2,
                    heal_round=20,
                    mode="symmetric",
                    groups=((0, 1), (2, 3)),
                ),
            ),
        )
        service = detector(plan)
        assert run_detector(service, 120) == {}
        assert all(service.state_of(h) == ALIVE for h in range(4))
        assert service.false_suspicions > 0
        assert service.confirmations == 0
        assert service.quorum_blocked() == ()

    def test_asymmetric_partition_evicts_the_unhearable_host(self):
        # One-way link failure: nobody hears host 0 (its sends are lost)
        # but it hears everyone.  A host the cluster cannot hear is dead
        # for the protocol: three vouched observers reach quorum.
        plan = FaultPlan(
            seed=1,
            partitions=(
                NetworkPartition(
                    start_round=2, mode="asymmetric", groups=((0,), (1, 2, 3))
                ),
            ),
        )
        service = detector(plan)
        confirmed = run_detector(service, 120)
        assert list(confirmed.values()) == [[0]]

    def test_partial_partition_severs_only_the_named_links(self):
        # Severing 0->1 alone leaves observers 2, 3 and the witness
        # hearing host 0: one silent observer is a suspicion at most.
        plan = FaultPlan(
            seed=1,
            partitions=(
                NetworkPartition(
                    start_round=2, mode="partial", links=((0, 1),)
                ),
            ),
        )
        service = detector(plan)
        assert run_detector(service, 120) == {}
        assert service.confirmations == 0

    def test_piggybacked_data_plane_traffic_counts_as_liveness(self):
        # Kill every probe; feed data-plane `heard` evidence instead —
        # chatty links keep the cluster ALIVE without a single probe.
        plan = FaultPlan(seed=1, drop_prob=1.0, kinds=("probe",))
        service = detector(plan)
        for round_no in range(1, 60):
            for observer in range(4):
                for peer in range(4):
                    if observer != peer:
                        service.heard(observer, peer, round_no)
            # The witness hears nobody (no probes arrive), but machine
            # observers vouched... by nobody: witness votes alone, 1 < 3.
            service.tick(round_no)
        assert service.confirmations == 0
        assert service.probes_delivered == 0


# ----------------------------------------------------------------------
# Sanitizer invariants
# ----------------------------------------------------------------------
class TestSanitizerInvariants:
    def test_confirmation_without_quorum_is_a_violation(self):
        san = RuntimeSanitizer()
        with pytest.raises(SanitizerViolation, match="quorum"):
            san.on_membership_confirm(2, votes=1, quorum=3, population=5)

    def test_confirmation_with_quorum_passes(self):
        san = RuntimeSanitizer()
        san.on_membership_confirm(2, votes=3, quorum=3, population=5)
        assert san.checks == 1

    def test_failover_without_confirmation_is_a_violation(self):
        san = RuntimeSanitizer()
        service = MembershipService(4)
        with pytest.raises(SanitizerViolation, match="without confirmation"):
            san.on_failover([2], service)

    def test_failover_of_confirmed_host_passes(self):
        san = RuntimeSanitizer()
        plan = FaultPlan(seed=1, crashes=(MachineCrash(machine=2, round=5),))
        service = detector(plan)
        run_detector(service, 60)
        san.on_failover([2], service)
        assert san.checks == 1

    def test_failover_check_is_vacuous_without_a_detector(self):
        san = RuntimeSanitizer()
        san.on_failover([2], None)  # detection forced off: nothing to assert


# ----------------------------------------------------------------------
# One injector verdict, two planes (docs/faults.md, "One verdict, two
# planes"): the data plane loses the first copy and still delivers the
# duplicate; the probe plane loses both.
# ----------------------------------------------------------------------
class TestVerdictPlanes:
    PLAN = FaultPlan(seed=1, drop_prob=1.0, dup_prob=1.0)

    def test_data_plane_drops_the_copy_and_delivers_its_duplicate(self):
        injector = FaultInjector(self.PLAN, 2)
        net = LossyNetwork(2, net_delay_rounds=1, faults=injector)
        batch = Batch(src_machine=0, dst_machine=1, target_stage=0, depth=0)
        batch.add(5, [5])
        net.send(batch, now_round=1)
        assert net.dropped == 1
        assert (injector.counts["drop"], injector.counts["dup"]) == (1, 1)
        assert net.drain(1, now_round=2) == []  # the first copy is gone
        assert net.drain(1, now_round=3) == [batch]  # its duplicate arrives

    def test_data_plane_corrupt_copy_is_discarded_and_its_duplicate_delivered(self):
        injector = FaultInjector(FaultPlan(seed=1, corrupt_prob=1.0, dup_prob=1.0), 2)
        net = LossyNetwork(2, net_delay_rounds=1, faults=injector)
        batch = Batch(src_machine=0, dst_machine=1, target_stage=0, depth=0)
        batch.add(5, [5])
        net.send(batch, now_round=1)
        assert net.drain(1, now_round=2) == []
        assert (net.dropped, net.corrupt_dropped) == (0, 1)
        assert net.drain(1, now_round=3) == [batch]  # no second verdict

    @pytest.mark.parametrize("plan", [
        PLAN, FaultPlan(seed=1, corrupt_prob=1.0, dup_prob=1.0),
    ], ids=["drop_dup", "corrupt_dup"])
    def test_probe_plane_loses_the_probe_and_its_duplicate(self, plan):
        service = detector(plan, num_machines=2)
        run_detector(service, 10)
        assert service.probes_sent > 0
        assert service.probes_lost == service.probes_sent
        assert service.probes_delivered == 0
        assert service.injector.counts["dup"] == service.probes_sent


# ----------------------------------------------------------------------
# Corruption: checksum catches it, ARQ recovers it as loss
# ----------------------------------------------------------------------
class TestCorruption:
    def test_frame_checksum_is_deterministic_and_field_sensitive(self):
        batch = Batch(src_machine=0, dst_machine=1, target_stage=0, depth=0)
        batch.tseq = 7
        assert frame_checksum(batch) == frame_checksum(batch)
        batch2 = Batch(src_machine=0, dst_machine=1, target_stage=0, depth=0)
        batch2.tseq = 8
        assert frame_checksum(batch) != frame_checksum(batch2)

    def test_corrupted_frame_is_discarded_not_delivered(self):
        plan = FaultPlan(seed=1, corrupt_prob=1.0)
        injector = FaultInjector(plan, 2)
        net = LossyNetwork(2, reliable=True, faults=injector)
        batch = Batch(src_machine=0, dst_machine=1, target_stage=0, depth=0)
        batch.add(5, [5])
        net.send(batch, now_round=1)
        assert net.drain(1, 2) == []
        assert net.corrupt_dropped == 1
        assert net.transport_summary()["corrupt_dropped"] == 1
        # The frame was not acked: the ARQ machinery still owns it.
        assert net._outstanding

    def test_corruption_sweep_reproduces_fault_free_rows(self):
        graph = random_graph(40, 120, seed=3)
        query = "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b)"
        config = EngineConfig(num_machines=4, sanitize=True)
        session = Session(graph, config)
        baseline = session.execute(query).rows
        plan = FaultPlan(seed=9, corrupt_prob=0.2)
        result = session.execute(query, config=config.with_(faults=plan))
        assert result.complete
        assert sorted(result.rows) == sorted(baseline)
        assert result.stats.transport["corrupt_dropped"] > 0


# ----------------------------------------------------------------------
# FaultPlan (de)serialization: strict, per-entry errors, round-trips
# ----------------------------------------------------------------------
class TestPlanSerialization:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys.*'drop_prb'"):
            FaultPlan.from_json('{"seed": 1, "drop_prb": 0.5}')

    def test_bad_entry_error_names_the_entry(self):
        data = {
            "seed": 1,
            "crashes": [
                {"machine": 1, "round": 4},
                {"machine": 2, "round": -3},
            ],
        }
        with pytest.raises(ConfigError, match=r"crashes\[1\]"):
            FaultPlan.from_dict(data)

    def test_unknown_entry_key_names_the_entry(self):
        data = {"seed": 1, "stalls": [{"machine": 0, "start": 2}]}
        with pytest.raises(ConfigError, match=r"stalls\[0\].*'start'"):
            FaultPlan.from_dict(data)

    def test_bad_partition_heal_round_names_the_entry(self):
        data = {
            "seed": 1,
            "partitions": [
                {
                    "start_round": 4,
                    "heal_round": 2,
                    "mode": "symmetric",
                    "groups": [[0], [1, 2, 3]],
                }
            ],
        }
        with pytest.raises(ConfigError, match=r"partitions\[0\].*heal_round"):
            FaultPlan.from_dict(data)

    def test_unknown_partition_mode_rejected(self):
        with pytest.raises(ConfigError, match=r"partitions\[0\].*mode"):
            FaultPlan(
                seed=1,
                partitions=(
                    NetworkPartition(start_round=2, mode="diagonal"),
                ),
            )

    def test_json_round_trip_property(self):
        """Hand-rolled property test (hypothesis isn't vendored): ~80
        random plans, including partitions and corruption, must survive
        to_json -> from_json bit-identically."""
        rng = random.Random(0xFA17)
        modes = ("symmetric", "asymmetric", "partial")
        for trial in range(80):
            stalls = tuple(
                MachineStall(
                    machine=rng.randrange(4),
                    start_round=rng.randint(1, 50),
                    duration=rng.randint(1, 20),
                )
                for _ in range(rng.randrange(3))
            )
            crashes = tuple(
                MachineCrash(
                    machine=rng.randrange(4),
                    round=(r := rng.randint(1, 50)),
                    recover_round=(
                        None if rng.random() < 0.5 else r + rng.randint(1, 30)
                    ),
                )
                for _ in range(rng.randrange(3))
            )
            partitions = []
            for _ in range(rng.randrange(3)):
                mode = rng.choice(modes)
                start = rng.randint(1, 40)
                heal = None if rng.random() < 0.4 else start + rng.randint(1, 40)
                if mode == "partial":
                    links = tuple(
                        (rng.randrange(4), rng.randrange(3))
                        for _ in range(rng.randint(1, 3))
                    )
                    partitions.append(
                        NetworkPartition(
                            start_round=start, heal_round=heal, mode=mode,
                            links=links,
                        )
                    )
                else:
                    machines = list(range(4))
                    rng.shuffle(machines)
                    cut = rng.randint(1, 3)
                    partitions.append(
                        NetworkPartition(
                            start_round=start, heal_round=heal, mode=mode,
                            groups=(
                                tuple(machines[:cut]), tuple(machines[cut:])
                            ),
                        )
                    )
            plan = FaultPlan(
                seed=rng.randrange(10_000),
                drop_prob=round(rng.random() * 0.3, 3),
                dup_prob=round(rng.random() * 0.3, 3),
                delay_prob=round(rng.random() * 0.3, 3),
                max_delay_rounds=rng.randint(1, 6),
                reorder_prob=round(rng.random() * 0.3, 3),
                reorder_window=rng.randint(1, 4),
                corrupt_prob=round(rng.random() * 0.2, 3),
                kinds=tuple(
                    sorted(
                        set(
                            rng.sample(
                                ("batch", "done", "status", "ack", "probe"),
                                rng.randint(1, 5),
                            )
                        )
                    )
                ),
                stalls=stalls,
                crashes=crashes,
                partitions=tuple(partitions),
            )
            restored = FaultPlan.from_json(plan.to_json())
            assert restored == plan, f"trial {trial} did not round-trip"
            # And the JSON itself is stable (canonical dict shape).
            assert json.loads(plan.to_json()) == json.loads(
                restored.to_json()
            )


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_membership_auto_enables_with_faults(self):
        plan = FaultPlan(seed=1)
        assert EngineConfig(faults=plan).membership_enabled
        assert not EngineConfig().membership_enabled
        assert not EngineConfig(faults=plan, membership=False).membership_enabled
        assert EngineConfig(membership=True).membership_enabled

    def test_suspect_window_must_cover_the_network_delay(self):
        plan = FaultPlan(seed=1)
        with pytest.raises(ConfigError, match="suspect_after"):
            EngineConfig(faults=plan, net_delay_rounds=8)
        # Fault-free (no detector) and membership=False runs are exempt.
        EngineConfig(net_delay_rounds=8)
        EngineConfig(faults=plan, net_delay_rounds=8, membership=False)
        EngineConfig(faults=plan, net_delay_rounds=8, suspect_after=10)


# ----------------------------------------------------------------------
# The oracle ban, enforced
# ----------------------------------------------------------------------
ORACLE_ATTRS = {"permanent_down", "permanent_machines", "transient_down"}


class TestOracleBan:
    def test_no_production_code_reads_the_injector_oracle(self):
        """AST scan: outside the injector itself, no attribute access to
        its ground-truth oracle surface — not even from the cluster's
        chaos seam in repro.faults.  Docstrings and comments are naturally
        exempt (they aren't Attribute nodes)."""
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path == SRC / "faults" / "injector.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ORACLE_ATTRS
                ):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno} ({node.attr})"
                    )
        assert not offenders, (
            "oracle state read outside the injector: " + ", ".join(offenders)
        )


# ----------------------------------------------------------------------
# End-to-end: detected failover / partial results / quorum loss
# ----------------------------------------------------------------------
class TestEndToEnd:
    QUERY = "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b)"

    def test_solo_failover_is_detection_driven(self):
        graph = random_graph(40, 120, seed=3)
        config = EngineConfig(
            num_machines=4, sanitize=True, recovery=True, stall_limit=500
        )
        session = Session(graph, config)
        baseline = session.execute(self.QUERY).rows
        plan = FaultPlan(seed=3, crashes=(MachineCrash(machine=2, round=6),))
        result = session.execute(self.QUERY, config=config.with_(faults=plan))
        assert result.complete
        assert sorted(result.rows) == sorted(baseline)
        membership = result.stats.membership
        assert membership["confirmations"] >= 1
        assert membership["fenced"] == [2]
        # Failover waited for the detector: at least the full window.
        assert min(membership["detection_latencies"]) > WINDOW

    def test_concurrent_retx_exhaustion_against_confirmed_down_peer(self):
        """ARQ abandonment on the shared cluster: without recovery, a
        permanently dead machine is confirmed by the shared detector and
        each query's channel then abandons its frames after
        MAX_RETX_ATTEMPTS — never before confirmation."""
        graph = random_graph(40, 120, seed=3)
        config = EngineConfig(
            num_machines=4,
            max_concurrent_queries=4,
            stall_limit=500,
        )
        plan = FaultPlan(seed=3, crashes=(MachineCrash(machine=2, round=6),))
        session = connect(graph, config.with_(faults=plan))
        handles = [session.submit(self.QUERY) for _ in range(2)]
        session.drain()
        exhausted = 0
        for handle in handles:
            result = handle.result()
            assert result.complete is False
            assert 2 in result.stats.down_machines
            exhausted += result.stats.transport["retx_exhausted"]
            assert result.stats.membership["confirmations"] >= 1
        assert exhausted > 0
