"""Unit tests for flow control, the simulated network, and messages."""

import pytest

from repro import EngineConfig, GraphBuilder
from repro.pgql import parse
from repro.plan import compile_query
from repro.runtime.buffers import FlowControl, SHARED, remote_target_stages
from repro.runtime.message import Batch, DoneMessage, StatusMessage
from repro.runtime.network import LossyNetwork, SimulatedNetwork
from repro.runtime.stats import MachineStats


@pytest.fixture(scope="module")
def rpq_plan():
    b = GraphBuilder()
    for i in range(4):
        b.add_vertex("N", idx=i)
    b.add_edge(0, 1, "E")
    g = b.build()
    return compile_query(parse("SELECT COUNT(*) FROM MATCH (a)-/:E+/->(b)"), g)


class TestRemoteTargets:
    def test_rpq_plan_targets(self, rpq_plan):
        # Only neighbor/inspect hop targets receive remote messages; in the
        # canonical RPQ plan that is the second path stage.
        targets = remote_target_stages(rpq_plan)
        assert targets == [3]


class TestFlowControl:
    def make(self, config=None, plan=None):
        config = config or EngineConfig(num_machines=4, buffers_per_machine=64)
        stats = MachineStats()
        return FlowControl(0, plan, config, stats), stats, config

    def test_acquire_release_cycle(self, rpq_plan):
        flow, stats, _ = self.make(plan=rpq_plan)
        key = flow.try_acquire(1, 3, 0, is_path_stage=True)
        assert key is not None
        assert flow.in_flight == 1
        flow.release(key)
        assert flow.in_flight == 0

    def test_per_depth_partitions_are_independent(self, rpq_plan):
        config = EngineConfig(num_machines=4, buffers_per_machine=64, rpq_flow_depth=2)
        flow, _, _ = self.make(config, rpq_plan)
        cap0 = flow.capacity_of(1, 3, 0, True)
        # Exhaust depth-0 credits; depth-1 still grants.
        for _ in range(cap0):
            assert flow.try_acquire(1, 3, 0, True) is not None
        assert flow.try_acquire(1, 3, 0, True) is None
        assert flow.try_acquire(1, 3, 1, True) is not None

    def test_deep_depths_share_then_overflow(self, rpq_plan):
        config = EngineConfig(
            num_machines=2,
            buffers_per_machine=32,
            rpq_flow_depth=1,
            rpq_shared_credits=2,
            rpq_overflow_per_depth=1,
        )
        flow, stats, _ = self.make(config, rpq_plan)
        # Depth 5 >= D: two shared credits, then one overflow per depth.
        assert flow.try_acquire(1, 3, 5, True) == (1, 3, SHARED)
        assert flow.try_acquire(1, 3, 6, True) == (1, 3, SHARED)
        ovf = flow.try_acquire(1, 3, 5, True)
        assert ovf == (1, 3, ("ovf", 5))
        assert stats.overflow_grants == 1
        # Overflow for depth 5 exhausted; depth 6 overflow independent.
        assert flow.try_acquire(1, 3, 5, True) is None
        assert flow.try_acquire(1, 3, 6, True) == (1, 3, ("ovf", 6))

    def test_release_underflow_raises(self, rpq_plan):
        flow, _, _ = self.make(plan=rpq_plan)
        with pytest.raises(RuntimeError):
            flow.release((1, 3, 0))

    def test_peak_tracking(self, rpq_plan):
        flow, stats, _ = self.make(plan=rpq_plan)
        keys = [flow.try_acquire(1, 3, d, True) for d in range(3)]
        assert stats.peak_inflight_buffers == 3
        for key in keys:
            flow.release(key)
        assert stats.peak_inflight_buffers == 3  # peak is sticky


class TestBatch:
    def test_add_copies_context(self):
        batch = Batch(src_machine=0, dst_machine=1, target_stage=2, depth=0)
        ctx = [1, 2, 3]
        batch.add(7, ctx)
        ctx[0] = 99
        assert batch.contexts[0] == (7, [1, 2, 3])

    def test_priority_prefers_deeper_then_later_stage(self):
        shallow = Batch(0, 1, target_stage=5, depth=1)
        deep = Batch(0, 1, target_stage=3, depth=4)
        late = Batch(0, 1, target_stage=6, depth=1)
        ordered = sorted([shallow, deep, late], key=lambda b: b.priority)
        assert ordered[0] is deep
        assert ordered[1] is late
        assert ordered[2] is shallow

    def test_modelled_bytes_grow_with_contexts(self):
        batch = Batch(0, 1, 2, 0)
        empty = batch.modelled_bytes(4)
        batch.add(1, [None] * 4)
        assert batch.modelled_bytes(4) > empty


class TestNetwork:
    def test_delivery_after_delay(self):
        net = SimulatedNetwork(2, net_delay_rounds=2)
        msg = DoneMessage(src_machine=0, dst_machine=1, credit_key="k")
        net.send(msg, now_round=5)
        assert net.drain(1, 6) == []
        assert net.drain(1, 7) == [msg]
        assert net.pending() == 0

    def test_order_is_deterministic(self):
        net = SimulatedNetwork(2, net_delay_rounds=0)
        a = DoneMessage(0, 1, "a")
        b = DoneMessage(0, 1, "b")
        net.send(a, 1)
        net.send(b, 1)
        assert net.drain(1, 1) == [a, b]

    def test_extra_delay_hook(self):
        net = LossyNetwork(2, net_delay_rounds=1)
        net.extra_delay_fn = lambda m: 3
        msg = StatusMessage(src_machine=0, dst_machine=1)
        net.send(msg, 0)
        assert net.drain(1, 3) == []
        assert net.drain(1, 4) == [msg]

    def test_duplicate_hook(self):
        net = LossyNetwork(2, net_delay_rounds=0)
        net.duplicate_fn = lambda m: True
        msg = StatusMessage(src_machine=0, dst_machine=1)
        net.send(msg, 0)
        assert net.drain(1, 0) == [msg]
        assert net.drain(1, 1) == [msg]

    def test_pending_kinds(self):
        net = SimulatedNetwork(2, net_delay_rounds=5)
        net.send(Batch(0, 1, 2, 0), 0)
        net.send(DoneMessage(0, 1, "k"), 0)
        net.send(StatusMessage(0, 1), 0)
        assert net.pending_kinds() == {"batch": 1, "done": 1, "status": 1}
