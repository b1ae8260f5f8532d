"""The cheap STATUS round: one snapshot per broadcast, counter dicts shared
across unmoved generations, and the termination check memoised on them.

On a plain channel (:class:`SimulatedNetwork`) a broadcast is one object
queued for every receiver; on a :class:`LossyNetwork` (injector, reliable
transport or a test hook) each copy is its own message.  Both classes
must charge the same and decide the same, on every golden-oracle case.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import EngineConfig
from repro.datagen import mini_ldbc
from repro.faults import FaultPlan
from repro.runtime import multi
from repro.runtime.message import CONTROL_BYTES, Batch, StatusMessage
from repro.runtime.network import LossyNetwork, SimulatedNetwork
from repro.runtime.termination import (
    TerminationEvaluator,
    TerminationProtocol,
    TerminationTracker,
    counter_totals,
)

from . import dft_golden_cases as cases
from .onetask import make_execution, run
from .test_termination import GOLDEN_PLANS, rpq_plan

QUERY = "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b:Person)"


def _golden_run(per_copy):
    """Every golden case, recording each channel built and each broadcast
    made per class; with ``per_copy`` the scheduler builds a
    :class:`LossyNetwork` (no injector, no ARQ) where it would build a
    plain channel."""
    channels = []
    broadcasts = {SimulatedNetwork: 0, LossyNetwork: 0}
    with pytest.MonkeyPatch.context() as monkeypatch:
        init = SimulatedNetwork.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            channels.append(self)

        monkeypatch.setattr(SimulatedNetwork, "__init__", recording_init)
        for cls in broadcasts:
            def counting(self, snapshot, now_round, cls=cls, real=cls.broadcast):
                broadcasts[cls] += 1
                real(self, snapshot, now_round)

            monkeypatch.setattr(cls, "broadcast", counting)
        if per_copy:
            monkeypatch.setattr(multi, "SimulatedNetwork", LossyNetwork)
        out = cases.compute()
    totals = [(c.total_messages, c.total_bytes) for c in channels]
    return out, totals, channels, broadcasts


def test_bulk_and_per_copy_paths_agree_on_every_golden_case():
    bulk, bulk_totals, bulk_channels, bulk_calls = _golden_run(per_copy=False)
    per_copy, per_copy_totals, lossy_channels, lossy_calls = _golden_run(per_copy=True)
    assert sorted(bulk) == sorted(per_copy)
    assert any("/conc4/" in key for key in bulk)
    assert any("/seed5/" in key for key in bulk)
    # The per-copy half provably ran the lossy class, every broadcast
    # through its per-copy override; the bulk half ran the plain class
    # wherever no fault plan asked for the lossy one.
    assert all(type(c) is LossyNetwork for c in lossy_channels)
    assert lossy_calls[SimulatedNetwork] == 0 and lossy_calls[LossyNetwork] > 0
    plain = [c for c in bulk_channels if type(c) is SimulatedNetwork]
    assert len(plain) > len(bulk_channels) // 2
    assert bulk_calls[SimulatedNetwork] > lossy_calls[LossyNetwork] // 2
    # Rows, rounds, virtual time and every per-machine counter (status
    # messages, idle / busy rounds and cost units among them).
    diverged = [key for key in bulk if bulk[key] != per_copy[key]]
    assert diverged == []
    assert bulk_totals == per_copy_totals
    assert sum(messages for messages, _bytes in bulk_totals) > 0


def test_a_plain_channel_takes_the_bulk_path(monkeypatch):
    graph, _info = mini_ldbc("xs")
    cluster, task, _sinks, _plan = make_execution(graph, QUERY, EngineConfig(num_machines=3))
    assert type(task.channel) is SimulatedNetwork
    copies = []
    send = SimulatedNetwork.send

    def counting_send(self, message, now_round):
        if isinstance(message, StatusMessage):
            copies.append(message)
        send(self, message, now_round)

    monkeypatch.setattr(SimulatedNetwork, "send", counting_send)
    stats = run(cluster, task)
    status = sum(m.status_messages for m in stats.per_machine)
    assert status > 0 and copies == []
    channel = task.channel
    machines = stats.per_machine
    assert channel.total_messages == status + sum(
        m.batches_sent + m.done_messages for m in machines
    )
    assert channel.total_bytes == sum(m.bytes_sent for m in machines) + CONTROL_BYTES * (
        status + sum(m.done_messages for m in machines)
    )


def _snapshot(src=0, generation=1):
    tracker = TerminationTracker(src)
    tracker.generation = generation
    return tracker.snapshot()


class TestBulkQueue:
    def test_pending_counts_it_and_protocol_work_ignores_it(self):
        net = SimulatedNetwork(3, net_delay_rounds=1)
        snapshot = _snapshot()
        net.broadcast(snapshot, 5)
        assert net.pending() == 2
        assert net.pending_kinds() == {"batch": 0, "done": 0, "status": 2}
        assert not net.has_protocol_work()
        # One heap entry per receiver, each the one object.
        assert [[entry[2] for entry in queue] for queue in net._queues] == [
            [], [snapshot], [snapshot]
        ]
        assert (net.total_messages, net.total_bytes) == (2, 2 * CONTROL_BYTES)
        assert net.drain(1, 5) == []  # due one round later
        assert net.drain(1, 6) == [snapshot]
        assert net.drain(2, 6)[0] is snapshot
        assert net.pending() == 0

    def test_a_drain_keeps_the_send_order(self):
        net = SimulatedNetwork(2, net_delay_rounds=1)
        batch = Batch(src_machine=1, dst_machine=0, target_stage=1, depth=0)
        net.send(batch, 0)
        snapshot = _snapshot(src=1)
        net.broadcast(snapshot, 0)
        assert net.has_protocol_work()
        assert net.drain(0, 1) == [batch, snapshot]

    def test_lose_queue_empties_it(self):
        net = SimulatedNetwork(3, net_delay_rounds=1)
        net.broadcast(_snapshot(), 0)
        assert net.lose_queue(2) == 1
        assert net.lost_in_crash == 1
        assert net.drain(2, 10) == []
        assert net.pending() == 1  # machine 1's copy is untouched

    def test_a_hook_sends_every_copy_with_the_seqs_it_always_drew(self):
        net = LossyNetwork(4, net_delay_rounds=1)
        seen = []
        net.extra_delay_fn = lambda message: seen.append(message) or 0
        snapshot = _snapshot(src=1)
        net.broadcast(snapshot, 0)
        assert [m.dst_machine for m in seen] == [0, 2, 3]
        assert seen[0] is snapshot  # the first copy is the snapshot itself
        assert [m.seq for m in seen] == [snapshot.seq + i for i in range(3)]
        assert all(m.sent is snapshot.sent for m in seen)
        assert [len(queue) for queue in net._queues] == [1, 0, 1, 1]

    def test_reliable_transport_registers_a_tseq_per_copy(self):
        net = LossyNetwork(3, net_delay_rounds=1, reliable=True)
        net.broadcast(_snapshot(), 0)
        assert sorted(net._outstanding) == [(0, 1, 0), (0, 2, 0)]
        copies = [entry[0] for entry in net._outstanding.values()]
        assert copies[0] is not copies[1]
        assert net.pending_kinds()["status"] == 2

    def test_dropped_status_is_counted_and_the_query_still_concludes(self):
        graph, _info = mini_ldbc("xs")
        session = repro.connect(graph, num_machines=3)
        solo = session.execute(QUERY).scalar()
        chaos = EngineConfig(
            num_machines=3, reliable_transport=False,
            faults=FaultPlan(seed=4, drop_prob=0.4, kinds=("status",)),
        )
        result = session.execute(QUERY, config=chaos)
        assert result.complete and result.scalar() == solo
        # Only STATUS is in the plan's kinds: every drop counted is one.
        assert result.stats.fault_events["drop"] > 0


# ----------------------------------------------------------------------
# Counter dicts shared across unmoved generations
# ----------------------------------------------------------------------
WRITERS = {
    "record_sent": lambda t: t.record_sent(1, 0),
    "record_processed": lambda t: t.record_processed(1, 0),
    "record_bootstrap": lambda t: t.record_bootstrap(2),
    "observe_depth": lambda t: t.observe_depth(0, 3),
    "restore_state": lambda t: t.restore_state(t.checkpoint_state()),
}


class TestSharedSnapshots:
    def _tracker(self):
        tracker = TerminationTracker(0)
        tracker.record_bootstrap(1)
        tracker.observe_depth(0, 1)
        return tracker

    def test_an_unmoved_tracker_ships_the_same_dicts_under_a_new_generation(self):
        tracker = self._tracker()
        tracker.generation = 1
        first = tracker.snapshot()
        tracker.observe_depth(0, 0)  # not a raise: nothing moved
        tracker.generation = 2
        second = tracker.snapshot()
        assert (first.generation, second.generation) == (1, 2)
        assert second.sent is first.sent
        assert second.processed is first.processed
        assert second.max_depths is first.max_depths
        assert second.sent is not tracker.sent  # a copy, not the live dict

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_every_writer_breaks_the_sharing(self, writer):
        tracker = self._tracker()
        first = tracker.snapshot()
        WRITERS[writer](tracker)
        second = tracker.snapshot()
        assert second.sent is not first.sent
        assert second.processed is not first.processed
        assert second.max_depths is not first.max_depths
        assert (second.sent, second.processed, second.max_depths) == (
            dict(tracker.sent), dict(tracker.processed), dict(tracker.max_depths)
        )

    def test_a_shared_max_depths_is_not_adopted_twice(self, monkeypatch):
        remote = self._tracker()
        own = TerminationTracker(1)
        protocol = TerminationProtocol(1, rpq_plan(), 2, own)
        observed = []
        observe = own.observe_depth
        monkeypatch.setattr(
            own, "observe_depth",
            lambda rpq_id, depth: observed.append(depth) or observe(rpq_id, depth),
        )
        for generation in (1, 2, 3):
            remote.generation = generation
            protocol.on_status(remote.snapshot())
        assert observed == [1] and own.max_depths == {0: 1}
        remote.observe_depth(0, 2)
        remote.generation = 4
        protocol.on_status(remote.snapshot())
        assert observed == [1, 2] and own.max_depths == {0: 2}


@st.composite
def protocol_runs(draw):
    """A protocol over one golden plan and 2-4 trackers with drawn counts,
    checked once; then a second check with nothing moved or one write."""
    plan = draw(st.sampled_from(GOLDEN_PLANS))
    trackers = [TerminationTracker(m) for m in range(draw(st.integers(2, 4)))]
    machine = st.sampled_from(trackers)
    top = draw(st.integers(0, 2))
    for stage in plan.stages:
        for depth in range(top + 1 if stage.is_rpq_stage else 1):
            for _ in range(draw(st.integers(0, 2))):
                draw(machine).record_sent(stage.index, depth)
                if draw(st.integers(0, 5)):
                    draw(machine).record_processed(stage.index, depth)
    for spec in plan.rpq_specs():
        for tracker in trackers:
            if draw(st.integers(0, 5)):
                tracker.observe_depth(spec.rpq_id, top)
    move = draw(st.sampled_from([None, *sorted(WRITERS)]))
    return plan, trackers, draw(machine), move


def _broadcast(protocol, trackers):
    for tracker in trackers:
        tracker.generation += 1
    for tracker in trackers[1:]:
        protocol.on_status(tracker.snapshot())


class TestCheckMemo:
    @settings(max_examples=300, deadline=None)
    @given(protocol_runs())
    def test_a_check_reports_what_a_fresh_evaluation_would(self, case):
        plan, trackers, mover, move = case
        protocol = TerminationProtocol(0, plan, len(trackers), trackers[0])
        _broadcast(protocol, trackers)
        protocol.check()
        if move is not None:
            WRITERS[move](mover)
        for _ in range(2):
            _broadcast(protocol, trackers)
            protocol.check()
            views = [protocol.views[m] for m in range(1, len(trackers))]
            fresh = TerminationEvaluator(plan).evaluate([trackers[0], *views])
            # A unit on a channel the evaluation does not reach (a depth no
            # snapshot reports) still unbalances the sums: no candidate.
            sent, processed = counter_totals([trackers[0], *views])
            balanced = sum(sent.values()) == sum(processed.values())
            assert protocol.confirming == (protocol.concluded or (fresh[1] and balanced))

    def test_identical_inputs_skip_the_totals_too(self, monkeypatch):
        import repro.runtime.termination as termination

        plan = rpq_plan()
        trackers = [TerminationTracker(0), TerminationTracker(1)]
        trackers[0].record_bootstrap(1)
        trackers[0].record_sent(1, 0)
        protocol = TerminationProtocol(0, plan, 2, trackers[0])
        totals = []
        counter_totals = termination.counter_totals
        monkeypatch.setattr(
            termination, "counter_totals",
            lambda snaps: totals.append(1) or counter_totals(snaps),
        )
        _broadcast(protocol, trackers)
        protocol.check()
        _broadcast(protocol, trackers)  # newer generations, same dicts
        protocol.check()
        assert len(totals) == 1
        trackers[1].record_processed(1, 0)
        _broadcast(protocol, trackers)
        protocol.check()
        assert len(totals) == 2
