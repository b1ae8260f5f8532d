"""Tests for worker/machine mechanics: list frames and their checkpoint
copies, undo on backtracking, the locality guard, bootstrap sharing, nested
blocked jobs, batch accounting, and the fused RPQ chain."""

import inspect
import math
import sys

import pytest

import repro
from repro import EngineConfig, GraphBuilder, Session
from repro.datagen import BENCHMARK_QUERIES, mini_ldbc
from repro.engine.result import assemble_results
from repro.errors import GraphError
from repro.faults import FaultPlan, MachineCrash
from repro.graph.generators import chain_graph, random_graph, star_graph
from repro.graph.types import Direction
from repro.runtime import machine as machine_module
from repro.runtime import worker as worker_module
from repro.runtime.steptable import step_table
from repro.runtime.worker import Job, Worker

from . import dft_golden_cases as golden
from .onetask import make_execution, run


class _LoopTrace:
    """Line events of ``Worker._run_budget`` while active (``lines``), and
    every frame list the fused chain built where it stopped (``built``).

    The chain's frames are read at the first statement after the block that
    builds them — ``if op == NBR_MANY:``, with ``live`` of them on top of the
    stack — so the lists kept here are the very objects the loop pushed.
    """

    def __init__(self):
        code = Worker._run_budget.__code__
        source, first = inspect.getsourcelines(Worker._run_budget)
        after = [first + i for i, line in enumerate(source)
                 if line.strip() == "if op == NBR_MANY:"]
        assert len(after) == 1, "the chain's frame-building block moved"
        self._code, self._after = code, after[0]
        self.lines = 0
        self.built = []

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines += 1
            if frame.f_lineno == self._after:
                live = frame.f_locals["live"]
                if live:
                    self.built.extend(frame.f_locals["stack"][-live:])
        return self._line

    def _call(self, frame, event, arg):
        return self._line if frame.f_code is self._code else None

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)
        return False


def _unfused(patch):
    """Disable the fused chain on every machine built from now on: its
    worst-case charge becomes infinite, so it never fits a budget."""
    patch.setattr(
        machine_module, "step_costs",
        lambda cost: worker_module.step_costs(cost)[:-1] + (math.inf,),
    )


class TestFrame:
    def test_new_frame_awaits_its_match(self):
        """A quantum ending between a hop and its match stores the pending
        ``(stage, vertex)`` as a frame with ``pos < 0`` and no undo."""
        g = chain_graph(3)
        config = EngineConfig(num_machines=1, workers_per_machine=1)
        _cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)", config
        )
        worker = task.slices[0].workers[0]
        worker.run(0.5)  # the bootstrap of the first root, not its match
        (job,) = worker.jobs
        assert job.stack == [[0, 0, -1, 0, None, False, None]]

    def test_clone_does_not_share_pending_runs(self):
        """Nor any frame: a clone's frames are its own lists."""
        runs = [("in-csr", 4, 6)]
        job = Job("root", ctx=[None])
        job.stack.append([1, 0, 2, 3, "out-csr", runs, None])
        job.stack.append([2, 5, 0, 2, None, ("exit", "path"), [(0, "old")]])
        clone = job.clone()
        assert clone.stack == job.stack
        for mine, theirs in zip(job.stack, clone.stack):
            assert mine is not theirs
        assert clone.stack[0][5] is not runs
        runs.pop()  # the live frame moves on to its next run
        job.stack[0][2] = 3
        assert clone.stack[0] == [1, 0, 2, 3, "out-csr", [("in-csr", 4, 6)], None]
        # The action tuple and the undo pairs are immutable and stay shared.
        assert clone.stack[1][5] is job.stack[1][5]
        assert clone.stack[1][6] is job.stack[1][6]

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

    def test_crash_restores_frames_the_chain_built_bit_identically(self, monkeypatch):
        """A crash rolls back to a checkpoint cut while a frame the fused
        chain built where it stopped sits on a job stack: the recovered run
        is field for field the run with the chain disabled."""
        graph = random_graph(60, 180, seed=11, edge_label="E")
        config = EngineConfig(
            num_machines=4, buffers_per_machine=2048, workers_per_machine=1,
            quantum=10, sanitize=True, recovery=True,
            faults=FaultPlan(seed=7, crashes=(MachineCrash(machine=2, round=14),)),
        )
        query = "SELECT b, c FROM MATCH (a)-[:E]->(b)-/:E{1,4}/->(c) WHERE id(a) = 3"
        cut = []  # per checkpoint: the frames on every live job stack
        checkpoint_state = machine_module.Machine.checkpoint_state

        def recording(machine):
            cut.append([f for w in machine.workers for j in w.jobs for f in j.stack])
            return checkpoint_state(machine)

        def fingerprint():
            with repro.connect(graph, config) as session:
                result = session.execute(query)
            assert result.complete
            assert result.stats.summary()["recovery"]["recoveries"] == 1
            return golden.fingerprint(result)

        monkeypatch.setattr(machine_module.Machine, "checkpoint_state", recording)
        with _LoopTrace() as trace:
            fused = fingerprint()
        kept = {id(f) for f in trace.built}
        assert any(id(f) in kept for frames in cut for f in frames)
        with pytest.MonkeyPatch.context() as patch:
            _unfused(patch)
            assert fingerprint() == fused


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
        job.stack.append([0, 0, 0, 0, None, None, [(0, "first"), (0, "second")]])
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
        job.stack.append([0, remote, -1, 0, None, False, None])
        machine.workers[0].jobs.append(job)
        return machine, remote

    def test_forged_remote_frame_fails_loudly_under_sanitizer(self):
        machine, remote = self.forge(sanitize=True)
        with pytest.raises(GraphError, match=f"remote vertex {remote}"):
            machine.workers[0].run(10.0)

    def test_forged_remote_context_fails_loudly_inside_a_chain(self):
        """The fused chain takes a batch's next context itself, so it runs
        the locality guard there too: a remote vertex behind a local one in
        a batch addressed to an RPQ's advance transition is caught."""
        from repro.runtime.message import Batch

        config = EngineConfig(num_machines=2, sanitize=True)
        _cluster, task, _sinks, plan = make_execution(
            chain_graph(8), "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", config
        )
        machine = task.slices[0]
        machine.bootstrap_roots.clear()
        spec = plan.rpq_specs()[0]
        (advance,) = [i for i, step in enumerate(machine.steps)
                      if step.chain is not None and not step.init]
        batch = Batch(src_machine=1, dst_machine=0, target_stage=advance, depth=0,
                      query_id=machine.query_id)
        for vertex in (0, 1):  # vertex 1 lives on machine 1
            ctx = [None] * plan.num_slots
            ctx[spec.depth_slot], ctx[spec.rpid_slot] = 0, 7
            batch.add(vertex, ctx)
        machine.deliver([batch])
        with pytest.raises(GraphError, match="remote vertex 1"):
            machine.workers[0].run(100.0)

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
            assert m.absorbed == 0
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
        assert all(w.idle for w in machine.workers)

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


def _rpq_queries(graph, info):
    """Every RPQ template the benchmark runs — the nine paper queries, the two
    cyclic ``KNOWS`` closures and the two RPQ point-query templates — and the
    comment-anchored up-walks no benchmark query takes any more, and the
    tag walks whose exit inspects back and hops on (Q09*'s shape before its
    creator hop moved ahead of the RPQ)."""
    lo, person = info.start_person, info.start_person
    queries = {name: build(info) for name, build in BENCHMARK_QUERIES.items()}
    for name, hops, sources in (("K15x16", 5, 16), ("K16x8", 6, 8)):
        queries[name] = (
            f"SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{{1,{hops}}}/->(b:Person) "
            f"WHERE id(a) >= {lo} AND id(a) < {lo + sources}"
        )
    queries["Pknows"] = (
        "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b:Person) "
        f"WHERE id(a) = {person}"
    )
    queries["Preplies"] = (
        "SELECT COUNT(*) FROM MATCH (a:Person)<-[:HAS_CREATOR]-(p:Post)"
        f"<-/:REPLY_OF{{1,2}}/-(c:Comment) WHERE id(a) = {person}"
    )
    queries.update(golden.upwalk_queries(graph, info))
    queries.update(golden.tag_exit_queries(info))
    return queries


@pytest.fixture(scope="module")
def ldbc_xs():
    return mini_ldbc("xs", 7)


def _chains(session, text):
    """``{control stage: [marked transition stages]}`` of the query's plan."""
    plan = session.compile(text)
    table = step_table(plan)
    marked = {stage.index: [] for stage in plan.stages if stage.rpq is not None}
    for index, step in enumerate(table):
        if step.chain is not None:
            marked[step.chain[0]].append(index)
    return plan, marked


class TestFusedChainMarking:
    """The step table marks the fused chain once per plan; a planner change
    that drops the fast path fails here, not only in a benchmark."""

    def test_every_benchmark_rpq_fuses_both_transitions(self, ldbc_xs):
        graph, info = ldbc_xs
        with repro.connect(graph) as session:
            for name, text in _rpq_queries(graph, info).items():
                plan, marked = _chains(session, text)
                assert marked, name
                for control, transitions in marked.items():
                    # The init transition (a new source path) and the path's
                    # advance transition back into the control stage.
                    inits = [plan.stages[t].hop.control_entry for t in transitions]
                    assert sorted(inits) == ["advance", "init"], name

    def test_emitting_exits_run_inside_the_chain(self, ldbc_xs):
        graph, info = ldbc_xs
        queries = _rpq_queries(graph, info)
        with repro.connect(graph) as session:
            for name, text in queries.items():
                plan, _marked = _chains(session, text)
                exits = {step.chain[2] is not None for step in step_table(plan) if step.chain}
                # Q10* hops on and the tag walks inspect from the exit stage:
                # their chains stop once the exit action is dispatched.  Q09*
                # takes its functional creator hop before the RPQ, so its
                # exit emits the row.
                assert exits == {name not in ("Q10*", "Ttag", "TtagR")}, name

    @pytest.mark.parametrize("name", ["cross_acc", "cross_inline", "edge_filter_macro"])
    def test_filtered_paths_keep_the_per_stage_chain(self, name):
        with repro.connect(golden.small_graph()) as session:
            _plan, marked = _chains(session, golden.SMALL_QUERIES[name])
        assert marked and not any(marked.values())

    def test_two_segments_fuse_each_and_hand_the_first_exit_on(self):
        """``two_rpqs``: both paths are one plain hop, so both segments fuse;
        the first segment's exit stage is the second's init transition, so
        its chain stops at the exit and the next step matches it."""
        with repro.connect(golden.small_graph()) as session:
            plan, marked = _chains(session, golden.SMALL_QUERIES["two_rpqs"])
        assert [len(t) for t in marked.values()] == [2, 2]
        first, second = sorted(marked)
        table = step_table(plan)
        assert {table[t].chain[2] for t in marked[first]} == {None}
        assert None not in {table[t].chain[2] for t in marked[second]}

    def test_a_zero_charge_disables_fusing_on_the_machine(self):
        config = EngineConfig(num_machines=1, cost=repro.config.CostModel(output=0.0))
        _cluster, task, _sinks, _plan = make_execution(
            chain_graph(4), "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", config
        )
        assert task.slices[0].step_costs[-1] == math.inf
        _cluster, task, _sinks, _plan = make_execution(
            chain_graph(4), "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)",
            EngineConfig(num_machines=1),
        )
        assert 0 < task.slices[0].step_costs[-1] < 20


def _frame_view(frame):
    stage, vertex, pos, end, csr, aux, undo = frame
    if isinstance(aux, list):
        aux = [(id(run_csr), lo, hi) for run_csr, lo, hi in aux]
    return (stage, vertex, pos, end, None if csr is None else id(csr), aux, undo)


def _stacks_per_round(graph, query, config):
    """Every worker's cloned job stacks after every round, the rows, the
    run's statistics and the loop's line events."""
    cluster, task, sinks, plan = make_execution(graph, query, config)
    views = []
    with _LoopTrace() as trace:
        while cluster.active:
            cluster.step()
            views.append([
                [
                    (job.kind, job.next_context, job.ctx,
                     [_frame_view(f) for f in job.stack])
                    for job in worker.checkpoint_state()[0]
                ]
                for machine in task.slices
                for worker in machine.workers
            ])
    assert task.error is None
    rows = assemble_results(plan, sinks).rows
    return views, rows, task.stats, trace.lines


#: Where chains stop mid-scan: sends refused by flow control (two contexts a
#: batch, few buffers), local neighbors (two machines), the sanitizer's
#: locality guard on every received context.
STOP_CONFIGS = {
    "tight": {"batch_size": 2, "buffers_per_machine": 12, "workers_per_machine": 2},
    "m2": {"num_machines": 2},
    "sanitize": {"sanitize": True},
}


class TestFusedChainEquivalence:
    """At every round boundary the fused run's stacks are the per-stage
    run's: a chain leaves exactly the frames its steps would, wherever it
    stops — mid-scan, between pops, after a receipt."""

    @pytest.mark.parametrize("quantum", [13, 48, 2000])
    @pytest.mark.parametrize("name", ["Q09R", "K15x16", "Q09*", "Uwalk", "UwalkR", "Ttag"])
    def test_stacks_equal_the_per_stage_run(self, ldbc_xs, name, quantum):
        self._check(ldbc_xs, name, quantum, {})

    @pytest.mark.parametrize("config_name", sorted(STOP_CONFIGS))
    @pytest.mark.parametrize("quantum", [13, 48, 2000])
    @pytest.mark.parametrize("name", ["Q09R", "K15x16", "Q09*", "Uwalk", "UwalkR", "Ttag"])
    def test_stacks_equal_where_chains_stop(self, ldbc_xs, name, quantum, config_name):
        self._check(ldbc_xs, name, quantum, STOP_CONFIGS[config_name])

    @staticmethod
    def _check(ldbc_xs, name, quantum, overrides):
        graph, info = ldbc_xs
        query = _rpq_queries(graph, info)[name]
        config = EngineConfig(**{"num_machines": 4, "quantum": quantum, **overrides})
        fused = _stacks_per_round(graph, query, config)
        with pytest.MonkeyPatch.context() as patch:
            _unfused(patch)
            reference = _stacks_per_round(graph, query, config)
        assert fused[0] == reference[0]  # stacks, round by round
        assert fused[1] == reference[1]  # rows
        summary = [dict(run[2].summary(), wall_seconds=0) for run in (fused, reference)]
        assert summary[0] == summary[1]
        assert fused[2].depth_table() == reference[2].depth_table()
        assert fused[2].cost_units_total() == reference[2].cost_units_total()
        worst = worker_module.step_costs(config.cost)[-1]
        if quantum / config.workers_per_machine > worst:
            # A worker's share holds a whole chain: it fused, so the loop ran
            # fewer lines than the one-step-per-iteration reference.
            assert fused[3] < reference[3]
        else:
            assert fused[3] == reference[3]  # 3.25 or 6.5 units never fit a chain
