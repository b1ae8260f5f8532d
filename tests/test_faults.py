"""Tests for fault injection + reliable transport (repro.faults).

The headline invariant mirrors the schedule race sweep
(tests/test_analysis_races.py): with reliable transport on, any seeded
FaultPlan must reproduce the fault-free result set AND the fault-free
``stats.depth_table()`` — exactly-once delivery means the protocol does
identical logical work no matter what the network underneath did.
"""

import json
from collections import Counter

import pytest

from repro import EngineConfig, Session
from repro.errors import ConfigError, SanitizerViolation
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MachineCrash,
    MachineStall,
    seeded_sweep,
)
from repro.graph.generators import random_graph, reply_forest
from repro.obs import render_prometheus
from repro.runtime.message import AckMessage, Batch, DoneMessage
from repro.runtime.network import LossyNetwork, SimulatedNetwork
from repro.sweep import Variant, run_sweep

CONFIG = EngineConfig(num_machines=4, buffers_per_machine=2048)
QUERY = "SELECT COUNT(*) FROM MATCH (a)-/:E{1,3}/->(b)"


@pytest.fixture(scope="module")
def graph():
    return random_graph(60, 180, seed=11, edge_label="E")


# ----------------------------------------------------------------------
# FaultPlan: validation + JSON round trip
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_defaults_are_fault_free(self):
        plan = FaultPlan()
        assert plan.drop_prob == plan.dup_prob == plan.delay_prob == 0.0
        assert plan.reorder_prob == plan.corrupt_prob == 0.0
        assert plan.stalls == plan.crashes == plan.partitions == ()

    @pytest.mark.parametrize("field", ["drop_prob", "dup_prob", "delay_prob", "reorder_prob"])
    def test_rejects_bad_probability(self, field):
        with pytest.raises(ConfigError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ConfigError):
            FaultPlan(**{field: -0.1})

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ConfigError):
            FaultPlan(kinds=("batch", "gossip"))

    def test_event_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(stalls=(MachineStall(machine=-1, start_round=2, duration=3),))
        with pytest.raises(ConfigError):
            FaultPlan(crashes=(MachineCrash(machine=0, round=5, recover_round=5),))

    def test_validate_for_cluster(self):
        plan = FaultPlan(stalls=(MachineStall(machine=7, start_round=2, duration=3),))
        with pytest.raises(ConfigError):
            plan.validate_for(4)
        everyone = FaultPlan(
            crashes=tuple(MachineCrash(machine=m, round=2) for m in range(2))
        )
        with pytest.raises(ConfigError):
            everyone.validate_for(2)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=5,
            drop_prob=0.1,
            dup_prob=0.05,
            stalls=(MachineStall(machine=1, start_round=4, duration=6),),
            crashes=(MachineCrash(machine=2, round=9, recover_round=15),),
        )
        path = tmp_path / "plan.json"
        plan.to_file(path)
        assert FaultPlan.from_file(path) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"seed": 1, "chaos_level": 11})
        with pytest.raises(ConfigError):
            FaultPlan.from_json("not json")

    def test_seeded_sweep_is_deterministic(self):
        a = seeded_sweep(3, base_seed=9)
        b = seeded_sweep(3, base_seed=9)
        assert a == b
        assert [p.seed for p in a] == [9, 10, 11]
        assert all(p.stalls and p.crashes for p in a)
        assert not any(p.permanent_crashes() for p in a)


# ----------------------------------------------------------------------
# EngineConfig wiring
# ----------------------------------------------------------------------
class TestConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.faults is None
        assert config.reliable_transport is None
        assert config.stall_limit == 400

    def test_transport_auto_on_with_faults(self, graph):
        def transport(**overrides):
            session = Session(graph, CONFIG.with_(**overrides))
            return session.execute(QUERY).stats.transport

        assert transport() is None
        assert transport(faults=FaultPlan(drop_prob=0.1)) is not None
        assert transport(faults=FaultPlan(), reliable_transport=False) is None
        assert transport(reliable_transport=True) is not None

    def test_rejects_non_plan_faults(self):
        with pytest.raises(ConfigError):
            EngineConfig(faults={"drop_prob": 0.5})

    def test_faults_validated_against_cluster(self):
        plan = FaultPlan(stalls=(MachineStall(machine=9, start_round=2, duration=2),))
        with pytest.raises(ConfigError):
            EngineConfig(num_machines=4, faults=plan)

    def test_stall_limit_validated_against_the_round_trip(self):
        # The stall diagnosis waits at least two STATUS round trips.
        for delay in (0, 1, 3):
            least = 2 * (2 * delay + 1)
            assert EngineConfig(stall_limit=least, net_delay_rounds=delay).stall_limit == least
            with pytest.raises(ConfigError):
                EngineConfig(stall_limit=least - 1, net_delay_rounds=delay)

    def test_retransmit_timeout_validated(self):
        assert EngineConfig(retransmit_timeout_rounds=6).retransmit_timeout_rounds == 6
        with pytest.raises(ConfigError):
            EngineConfig(retransmit_timeout_rounds=0)

    def test_heartbeat_and_stall_defaults(self):
        assert EngineConfig().stall_limit == 400


# ----------------------------------------------------------------------
# Network unit tests: accounting fix + transport mechanics
# ----------------------------------------------------------------------
def _batch(src=0, dst=1, n=1):
    batch = Batch(src_machine=src, dst_machine=dst, target_stage=1, depth=1)
    for i in range(n):
        batch.add(i, [i])
    return batch


class TestAccountingFix:
    def test_duplicate_fn_copies_are_counted(self):
        """The satellite bug: duplicate_fn deliveries missing from totals."""
        net = LossyNetwork(2, net_delay_rounds=1)
        net.duplicate_fn = lambda m: True
        batch = _batch()
        net.send(batch, now_round=1)
        assert net.total_messages == 2
        assert net.total_bytes == 2 * batch.modelled_bytes(0)
        # Both copies are really delivered.
        assert len(net.drain(1, now_round=3)) == 2

    def test_no_duplicate_no_change(self):
        net = SimulatedNetwork(2, net_delay_rounds=1)
        batch = _batch()
        net.send(batch, now_round=1)
        assert net.total_messages == 1
        assert net.total_bytes == batch.modelled_bytes(0)

    def test_retransmissions_are_counted(self):
        net = LossyNetwork(2, net_delay_rounds=1, reliable=True)
        net.send(_batch(), now_round=1)
        before = net.total_messages
        net.tick(now_round=100)  # deadline long past
        assert net.retransmits == 1
        assert net.total_messages == before + 1


class TestReliableTransport:
    def test_sequenced_and_acked(self):
        net = LossyNetwork(2, net_delay_rounds=1, reliable=True)
        b0, b1 = _batch(), _batch()
        net.send(b0, now_round=1)
        net.send(b1, now_round=1)
        assert (b0.tseq, b1.tseq) == (0, 1)
        assert len(net.drain(1, now_round=2)) == 2
        assert net.acks_sent == 2
        assert net.undelivered_work() == 0
        # ACKs come home and retire the retransmit state.
        assert net.drain(0, now_round=3) == []  # acks consumed internally
        assert net.acks_received == 2
        assert net._outstanding == {}

    def test_duplicate_frame_suppressed(self):
        net = LossyNetwork(2, net_delay_rounds=1, reliable=True)
        net.duplicate_fn = lambda m: True
        net.send(_batch(), now_round=1)
        delivered = net.drain(1, now_round=3)
        assert len(delivered) == 1
        assert net.dup_suppressed == 1
        assert net.acks_sent == 2  # every copy re-acked (refreshes lost acks)

    def test_retransmit_recovers_lost_queue(self):
        net = LossyNetwork(2, net_delay_rounds=1, reliable=True)
        net.send(_batch(), now_round=1)
        assert net.lose_queue(1) == 1  # crash: RX buffer wiped
        assert net.drain(1, now_round=2) == []
        assert net.undelivered_work() == 1
        net.tick(now_round=50)
        assert len(net.drain(1, now_round=52)) == 1
        assert net.undelivered_work() == 0

    def test_pending_kinds_ignores_acks(self):
        net = LossyNetwork(2, net_delay_rounds=1, reliable=True)
        net.send(_batch(), now_round=1)
        net.drain(1, now_round=2)  # queues the ack
        assert net.pending_kinds() == {"batch": 0, "done": 0, "status": 0}
        assert net.pending() == 1  # the ack itself is in flight

    def test_ack_messages_never_reach_machines(self):
        net = LossyNetwork(2, net_delay_rounds=1, reliable=True)
        net.send(DoneMessage(src_machine=0, dst_machine=1), now_round=1)
        net.drain(1, now_round=2)
        for r in range(3, 8):
            assert not any(
                isinstance(m, AckMessage) for m in net.drain(0, r) + net.drain(1, r)
            )

    def test_sanitizer_catches_double_delivery(self):
        from repro.analysis.sanitizer import RuntimeSanitizer

        san = RuntimeSanitizer()
        san.on_transport_deliver(0, 1, 7)
        with pytest.raises(SanitizerViolation):
            san.on_transport_deliver(0, 1, 7)


class TestInjector:
    def test_deterministic_verdicts(self):
        plan = FaultPlan(seed=3, drop_prob=0.3, dup_prob=0.3, delay_prob=0.3)
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan, num_machines=2)
            runs.append([injector.on_transmit(_batch(), r) for r in range(50)])
        assert runs[0] == runs[1]
        assert any(v != (False, 0, False, False) for v in runs[0])

    def test_kind_filter(self):
        plan = FaultPlan(seed=3, drop_prob=1.0, kinds=("status",))
        injector = FaultInjector(plan, num_machines=2)
        assert injector.on_transmit(_batch(), 1) == (False, 0, False, False)

    def test_machine_windows(self):
        plan = FaultPlan(
            stalls=(MachineStall(machine=0, start_round=5, duration=3),),
            crashes=(MachineCrash(machine=1, round=10, recover_round=12),),
        )
        injector = FaultInjector(plan, num_machines=2)
        assert injector.machine_up(0, 4) and not injector.machine_up(0, 5)
        assert not injector.machine_up(0, 7) and injector.machine_up(0, 8)
        assert injector.begin_round(10) == [1]
        assert injector.transient_down(10) == (1,)
        assert injector.permanent_down(10) == ()


# ----------------------------------------------------------------------
# Fault-free runs are untouched (acceptance criterion)
# ----------------------------------------------------------------------
class TestFaultFreeUnchanged:
    def test_no_transport_state_without_faults(self, graph):
        result = Session(graph, CONFIG).execute(QUERY)
        assert result.complete
        assert result.stats.transport is None
        assert result.stats.fault_events is None
        assert result.stats.partial is False
        assert all(m.stalled_rounds == 0 for m in result.stats.per_machine)

    def test_reliable_no_fault_run_is_equivalent(self, graph):
        """Transport on + zero faults: same rows, same virtual makespan."""
        engine = Session(graph, CONFIG)
        base = engine.execute(QUERY)
        reliable = engine.execute(QUERY, config=CONFIG.with_(reliable_transport=True))
        assert reliable.scalar() == base.scalar()
        assert reliable.stats.virtual_time == base.stats.virtual_time
        assert tuple(reliable.stats.depth_table()) == tuple(base.stats.depth_table())
        assert reliable.stats.transport["retransmits"] == 0
        assert reliable.stats.transport["dup_suppressed"] == 0

    def test_fault_free_traces_byte_identical(self, graph, tmp_path):
        """faults=None runs are deterministic down to the exported bytes."""
        from repro.obs import jsonl_lines

        blobs = []
        for i in range(2):
            engine = Session(graph, CONFIG.with_(faults=None, observe=True))
            result = engine.execute(QUERY)
            blobs.append("\n".join(jsonl_lines(result.obs)))
        assert blobs[0] == blobs[1]
        assert "fault." not in blobs[0]
        assert "net.retx" not in blobs[0]


# ----------------------------------------------------------------------
# Chaos invariance sweep (tentpole acceptance)
# ----------------------------------------------------------------------
def chaos_sweep(graph, queries, plans, compare_depths=True):
    """The chaos oracle: every plan against the fault-free baseline, with
    the transport layer held on across the comparison."""
    return run_sweep(
        graph,
        queries,
        [Variant(plan.seed, {"faults": plan}) for plan in plans],
        config=CONFIG,
        baseline_overrides={"faults": None, "reliable_transport": True},
        compare_depths=compare_depths,
    )


class TestChaosInvariance:
    def test_sweep_reproduces_fault_free_results_and_depths(self):
        """Full depth_table invariance on a tree-shaped expansion (Q09's
        shape): with exactly-once delivery the per-depth matches,
        eliminations, and duplications are identical under any plan."""
        forest = reply_forest(num_roots=8, branching=3, depth=4, seed=5)
        plans = seeded_sweep(5, base_seed=21, horizon=80)
        report = chaos_sweep(
            forest, ["SELECT COUNT(*) FROM MATCH (a)-/:REPLY_OF+/->(b)"], plans
        )
        assert report.ok, report.mismatches
        runs = report.query_results(0)
        assert [run.label for run in report.runs] == [p.seed for p in plans]
        assert sum(sum(r.stats.fault_events.values()) for r in runs) > 0
        assert all(r.complete for r in runs)
        (base,) = report.baselines
        assert base.stats.fault_events is None
        assert base.stats.depth_table()
        assert all(
            r.stats.depth_table() == base.stats.depth_table() for r in runs
        )

    def test_sweep_rows_invariant_on_cyclic_graph(self, graph):
        """On cyclic graphs the *rows* are still exactly invariant; the
        eliminated/duplicated accounting legitimately depends on arrival
        order (same-depth index races), so depth comparison is opt-out —
        exactly like the schedule race sweep, which also compares rows."""
        plans = seeded_sweep(4, base_seed=21, horizon=80)
        report = chaos_sweep(
            graph,
            [QUERY, "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)"],
            plans,
            compare_depths=False,
        )
        assert report.ok, report.mismatches
        assert len(report.runs) == 4
        assert all(len(run.results) == 2 for run in report.runs)

    def test_chaos_run_is_deterministic(self, graph):
        plan = FaultPlan(seed=13, drop_prob=0.1, dup_prob=0.1, delay_prob=0.1)
        engine = Session(graph, CONFIG)
        runs = [engine.execute(QUERY, config=CONFIG.with_(faults=plan)) for _ in range(2)]
        assert runs[0].scalar() == runs[1].scalar()
        assert runs[0].stats.rounds == runs[1].stats.rounds
        assert runs[0].stats.fault_events == runs[1].stats.fault_events
        assert runs[0].stats.transport == runs[1].stats.transport

    def test_sanitized_chaos_run(self, graph):
        """The protocol sanitizer holds under loss + dedup + retransmit."""
        plan = FaultPlan(seed=5, drop_prob=0.15, dup_prob=0.1, delay_prob=0.1)
        result = Session(graph, CONFIG.with_(sanitize=True, faults=plan)).execute(QUERY)
        assert result.complete
        assert result.stats.transport["retransmits"] > 0

    def test_stall_and_crash_recovery(self, graph):
        plan = FaultPlan(
            seed=8,
            drop_prob=0.05,
            stalls=(MachineStall(machine=1, start_round=3, duration=8),),
            crashes=(MachineCrash(machine=2, round=6, recover_round=14),),
        )
        engine = Session(graph, CONFIG)
        base = engine.execute(QUERY)
        chaos = engine.execute(QUERY, config=CONFIG.with_(faults=plan))
        assert chaos.scalar() == base.scalar()
        assert chaos.complete
        stalled = [m.stalled_rounds for m in chaos.stats.per_machine]
        assert stalled[1] > 0 and stalled[2] > 0
        assert chaos.stats.fault_events.get("crash") == 1


# ----------------------------------------------------------------------
# Partial results when a machine stays down
# ----------------------------------------------------------------------
class TestPartialResults:
    def test_permanent_crash_flags_incomplete(self, graph):
        plan = FaultPlan(seed=2, crashes=(MachineCrash(machine=1, round=4),))
        config = CONFIG.with_(faults=plan, stall_limit=30)
        engine = Session(graph, config)
        base = engine.execute(QUERY, config=CONFIG)
        partial = engine.execute(QUERY, config=config)
        assert partial.complete is False
        assert partial.result_set.complete is False
        assert partial.stats.partial is True
        assert partial.stats.down_machines == (1,)
        assert "complete=False" in repr(partial.result_set)
        # Survivors' rows are a lower bound on the true answer.
        assert partial.scalar() <= base.scalar()
        summary = partial.stats.summary()
        assert summary["partial"] is True
        assert summary["down_machines"] == [1]

    def test_transient_outage_is_not_partial(self, graph):
        plan = FaultPlan(
            seed=2, crashes=(MachineCrash(machine=1, round=4, recover_round=40),)
        )
        result = Session(graph, CONFIG.with_(faults=plan, stall_limit=30)).execute(QUERY)
        assert result.complete


# ----------------------------------------------------------------------
# Obs integration: fault events ride the bus
# ----------------------------------------------------------------------
class TestObsIntegration:
    def test_fault_and_retx_events_recorded(self, graph):
        plan = FaultPlan(seed=4, drop_prob=0.15, dup_prob=0.1)
        result = Session(
            graph, CONFIG.with_(faults=plan, observe=True)
        ).execute(QUERY)
        result.obs.finish()
        names = Counter(e.get("name") for e in result.obs.events)
        assert "fault.drop" in names
        assert "net.retx" in names
        n_drops = result.stats.fault_events["drop"]
        assert names["fault.drop"] == n_drops
        text = render_prometheus(result)
        assert "# TYPE repro_fault_injected_total counter" in text
        assert "# TYPE repro_net_retransmits_total counter" in text
        assert f'repro_fault_injected_total{{kind="drop"}} {n_drops}' in text

    def test_trace_summary_reports_faults(self, graph, tmp_path):
        from repro.obs import summarize_trace, to_chrome_trace, validate_chrome_trace

        plan = FaultPlan(seed=4, drop_prob=0.1)
        result = Session(
            graph, CONFIG.with_(faults=plan, observe=True)
        ).execute(QUERY)
        trace = to_chrome_trace(result.obs)
        assert validate_chrome_trace(trace) == []
        text = summarize_trace(trace)
        assert "faults injected" in text
        assert "retransmissions" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_query_with_faults_file(self, graph, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.loader import save_graph

        gpath = tmp_path / "g.jsonl"
        save_graph(graph, str(gpath))
        plan_path = tmp_path / "plan.json"
        FaultPlan(seed=6, drop_prob=0.1, dup_prob=0.05).to_file(plan_path)
        rc = main(
            [
                "query",
                str(gpath),
                "SELECT COUNT(*) FROM MATCH (a)-[:E]->(b)",
                "--faults",
                str(plan_path),
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "transport" in captured.err
        assert "fault_events" in captured.err

    def test_chaos_subcommand(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "--scale", "xs", "--plans", "2", "--queries", "Q09"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "chaos sweep: ok" in captured.out

    def test_chaos_subcommand_json(self, capsys):
        from repro.cli import main

        rc = main(
            ["chaos", "--scale", "xs", "--plans", "1", "--queries", "Q09", "--json"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out.split("-- chaos sweep")[0])
        assert payload["results"][0]["ok"] is True
        assert payload["results"][0]["makespan_inflation"]

    def test_chaos_rejects_unknown_query(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "--scale", "xs", "--queries", "Q99"])
        assert rc == 2
