"""Tests for worker/machine mechanics: frames, undo on backtracking, the
locality guard, bootstrap sharing, nested blocked jobs, batch accounting."""

import pytest

from repro import EngineConfig, GraphBuilder, Session
from repro.engine.result import assemble_results
from repro.errors import GraphError
from repro.graph.generators import chain_graph, random_graph, star_graph
from repro.graph.types import Direction
from repro.runtime.worker import Frame, Job, MAX_NESTED_JOBS, Worker

from .onetask import make_execution, run


class TestFrame:
    def test_new_frame_awaits_its_match(self):
        f = Frame(3, 17)
        assert (f.stage_idx, f.vertex) == (3, 17)
        assert f.pos < 0  # not matched yet
        assert f.undo is None  # nothing to restore until a stage writes

    def test_clone_does_not_share_pending_runs(self):
        runs = [("in-csr", 4, 6)]
        f = Frame(1, 0, pos=2, end=3, csr="out-csr", aux=runs)
        c = f.clone()
        assert (c.stage_idx, c.vertex, c.pos, c.end, c.csr) == (1, 0, 2, 3, "out-csr")
        f.aux.pop()  # the live frame moves on to its next run
        assert c.aux == [("in-csr", 4, 6)]

    def test_stack_survives_checkpoint_mid_traversal(self):
        """Stop after every step, swap the job stack for its clone, go on:
        the result must not notice (recovery restores exactly such clones,
        including a frame whose match is still pending)."""
        g = random_graph(12, 30, seed=4, edge_label="E")
        query = "SELECT a, c FROM MATCH (a)-[:E]->(b)-/:E{1,2}/-(c)"
        config = EngineConfig(num_machines=1)
        expected = Session(g, config).execute(query).rows
        cluster, task, sinks, plan = make_execution(g, query, config)
        worker = task.slices[0].workers[0]
        while not worker.idle:
            worker.run(0.05)  # one step per call
            worker.restore_state(worker.checkpoint_state())
        rows = assemble_results(plan, sinks).rows
        assert sorted(rows) == sorted(expected)


class TestUndoLog:
    QUERY = (
        "PATH p AS (pa)-[:NEXT]->(pb) "
        "SELECT COUNT(*) FROM MATCH (p1)-/:p{1,3}/->(p2) WHERE pb.idx <= p2.idx"
    )

    def test_backtracking_restores_control_and_accumulator_slots(self):
        """Control frames write depth and rpid, the path stage folds the
        deferred cross filter into an accumulator; once the DFT has
        backtracked out of a root, all of them read as before it."""
        g = chain_graph(6)
        config = EngineConfig(num_machines=1)
        cluster, task, _sinks, plan = make_execution(g, self.QUERY, config)
        spec = plan.rpq_specs()[0]
        restored = [spec.depth_slot, spec.rpid_slot]
        restored += [slot for slot, _kind in spec.accumulator_inits]
        assert len(restored) == 3
        worker = task.slices[0].workers[0]
        seen_depths = set()
        ctx = None
        while not worker.idle:
            worker.run(0.05)  # one step per call
            if worker.jobs:
                ctx = worker.jobs[0].ctx
                seen_depths.add(ctx[spec.depth_slot])
            elif ctx is not None:
                # The root's subtree is fully explored and popped.
                assert [ctx[slot] for slot in restored] == [None, None, None]
                ctx = None
        assert {0, 1, 2, 3} <= seen_depths

    def test_pop_restores_in_reverse_order(self):
        """Two saved values of one slot: the oldest must win."""
        g = chain_graph(3)
        config = EngineConfig(num_machines=1)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)", config
        )
        machine = task.slices[0]
        worker = machine.workers[0]
        machine.bootstrap_roots.clear()
        job = Job("root", ctx=["current", 0])
        # A frame whose hop is exhausted: the next step pops it.
        job.stack.append(
            Frame(0, 0, pos=0, end=0, undo=[(0, "first"), (0, "second")])
        )
        worker.jobs.append(job)
        worker.run(0.05)
        assert not job.stack
        assert job.ctx[0] == "first"


class TestLocalityGuard:
    QUERY = "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)"

    def forge(self, sanitize):
        g = chain_graph(8)
        config = EngineConfig(num_machines=2, sanitize=sanitize)
        cluster, task, _sinks, plan = make_execution(g, self.QUERY, config)
        machine = task.slices[0]
        remote = next(v for v in range(8) if not machine.partition.is_local(v))
        job = Job("root", ctx=[None] * plan.num_slots)
        job.stack.append(Frame(0, remote))
        machine.workers[0].jobs.append(job)
        return machine, remote

    def test_forged_remote_frame_fails_loudly_under_sanitizer(self):
        machine, remote = self.forge(sanitize=True)
        with pytest.raises(GraphError, match=f"remote vertex {remote}"):
            machine.workers[0].run(10.0)

    def test_public_readers_still_refuse_remote_vertices(self):
        machine, remote = self.forge(sanitize=False)
        with pytest.raises(GraphError):
            machine.partition.vertex_has_label(remote, 0)
        with pytest.raises(GraphError):
            list(machine.partition.neighbor_runs(remote, Direction.OUT))


class TestBootstrapSharing:
    def test_workers_share_the_root_queue(self):
        # A star: one heavy hub plus leaves. With the shared queue, every
        # worker can contribute; all roots get processed exactly once.
        g = star_graph(30)
        config = EngineConfig(num_machines=1, workers_per_machine=4)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)", config
        )
        stats = run(cluster, task)
        m = task.slices[0]
        assert not m.bootstrap_pending()
        assert m.stats.bootstrapped == 31
        assert stats.outputs == 30

    def test_single_vertex_bootstrap_only_on_owner(self):
        g = chain_graph(10)
        config = EngineConfig(num_machines=2)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)->(b) WHERE id(a) = 3", config
        )
        owner = task.slices[3 % 2]
        other = task.slices[(3 + 1) % 2]
        assert owner.bootstrap_pending()
        assert not other.bootstrap_pending()
        run(cluster, task)
        assert owner.stats.bootstrapped == 1
        assert other.stats.bootstrapped == 0


class TestBatchAccounting:
    def test_done_sent_at_absorption_and_processed_at_completion(self):
        g = chain_graph(20)
        config = EngineConfig(num_machines=2, batch_size=4)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", config
        )
        run(cluster, task)
        for m in task.slices:
            # Every absorbed batch was eventually completed.
            assert m._absorbed == 0
            # DONEs match the batches this machine received and absorbed.
            received = sum(
                other.tracker.sent[key]
                for other in task.slices
                if other is not m
                for key in other.tracker.sent
            )
        total_sent = sum(m.stats.batches_sent for m in task.slices)
        total_done = sum(m.stats.done_messages for m in task.slices)
        assert total_done == total_sent

    def test_sent_equals_processed_after_run(self):
        g = chain_graph(15)
        config = EngineConfig(num_machines=3)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{1,4}/->(b)", config
        )
        run(cluster, task)
        from collections import Counter

        sent = Counter()
        processed = Counter()
        for m in task.slices:
            sent.update(m.tracker.sent)
            processed.update(m.tracker.processed)
        assert sent == processed

    def test_credits_all_returned(self):
        g = chain_graph(25)
        config = EngineConfig(num_machines=4, batch_size=2)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", config
        )
        run(cluster, task)
        for m in task.slices:
            assert m.flow.in_flight == 0


class TestNestedJobs:
    def test_nesting_cap_constant_is_sane(self):
        assert 2 <= MAX_NESTED_JOBS <= 64

    def test_worker_idle_semantics(self):
        g = chain_graph(4)
        config = EngineConfig(num_machines=1)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)->(b)", config
        )
        worker = task.slices[0].workers[0]
        assert not worker.idle  # bootstrap pending
        run(cluster, task)
        assert worker.idle


class TestIdleSlice:
    """A machine with no job, no received batch and no root does nothing —
    and under ``schedule_seed`` still draws its worker order, so a seeded
    schedule is the same stream of draws as ever."""

    def _finished_machine(self):
        config = EngineConfig(num_machines=2, workers_per_machine=3)
        cluster, task, _sinks, _plan = make_execution(
            chain_graph(6), "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", config
        )
        run(cluster, task)
        return task.slices[0]

    def test_idle_slice_costs_nothing_and_moves_no_stat(self, monkeypatch):
        machine = self._finished_machine()
        before = vars(machine.stats.clone())
        calls = []
        monkeypatch.setattr(Worker, "run", lambda self, budget: calls.append(self))
        assert machine.run_slice(99, 100.0) == 0.0
        assert calls == []  # not even a call per worker
        assert vars(machine.stats) == before
        assert all(not w.blocked and w.idle for w in machine.workers)

    def test_idle_slice_draws_the_same_rng_stream(self):
        import random

        machine = self._finished_machine()
        rng, reference = random.Random(5), random.Random(5)
        assert machine.run_slice(99, 100.0, rng=rng) == 0.0
        reference.sample(machine.workers, len(machine.workers))
        assert rng.getstate() == reference.getstate()

    def test_slice_with_a_received_batch_runs_its_workers(self):
        from repro.runtime.message import Batch

        machine = self._finished_machine()
        plan = machine.plan
        batch = Batch(src_machine=1, dst_machine=0,
                      target_stage=plan.num_stages - 1, depth=0,
                      query_id=machine.query_id)
        batch.add(0, [None] * plan.num_slots)  # vertex 0 lives on machine 0
        machine.deliver([batch])
        outputs = machine.stats.outputs
        assert machine.run_slice(99, 100.0) > 0.0
        assert machine.stats.outputs == outputs + 1
        assert not machine.inbox
