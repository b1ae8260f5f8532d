"""Scheduler edge cases, failure injection, and runtime robustness."""

import pytest

from repro import EngineConfig, ExecutionError, Session
from repro.graph import DistributedGraph
from repro.graph.generators import chain_graph, random_graph, star_graph
from repro.runtime.message import Batch, DoneMessage, StatusMessage
from repro.runtime.multi import ClusterScheduler

from .onetask import make_execution, run


class TestSchedulerGuards:
    def test_max_rounds_exceeded_raises(self):
        g = random_graph(30, 90, seed=1)
        config = EngineConfig(num_machines=2, max_rounds=3)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)", config
        )
        with pytest.raises(ExecutionError, match="max_rounds=3"):
            run(cluster, task)
        # The cap ends the query before round 4 does any work.
        assert task.stats.rounds == 4
        assert all(
            m.busy_rounds + m.idle_rounds == 3 for m in task.stats.per_machine
        )

    def test_machine_count_mismatch_raises(self):
        g = chain_graph(5)
        other = DistributedGraph(g, 3)
        with pytest.raises(ExecutionError):
            ClusterScheduler(other, EngineConfig(num_machines=2))

    def test_ground_truth_quiescent_after_run(self):
        g = chain_graph(8)
        config = EngineConfig(num_machines=2)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", config
        )
        run(cluster, task)
        assert task.is_quiescent()


class TestFailureInjection:
    """The network is reliable but not synchronous: injected extra delays on
    control messages must never change results or hang the protocol."""

    QUERY = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)"

    def run_with_hooks(self, extra_delay_fn=None, duplicate_fn=None, machines=3):
        g = random_graph(25, 70, seed=9)
        config = EngineConfig(num_machines=machines)
        cluster, task, sinks, plan = make_execution(g, self.QUERY, config, lossy=True)
        fired = []  # messages a hook delayed or duplicated

        def hooked(fn):
            if fn is None:
                return None

            def hook(m):
                out = fn(m)
                if out:
                    fired.append(m)
                return out

            return hook

        task.channel.extra_delay_fn = hooked(extra_delay_fn)
        task.channel.duplicate_fn = hooked(duplicate_fn)
        stats = run(cluster, task)
        from repro.engine.result import assemble_results

        assert fired
        return assemble_results(plan, sinks).scalar(), stats

    def expected(self):
        g = random_graph(25, 70, seed=9)
        return Session(g, EngineConfig(num_machines=1)).execute(self.QUERY).scalar()

    def test_delayed_done_messages(self):
        value, _ = self.run_with_hooks(
            extra_delay_fn=lambda m: 5 if isinstance(m, DoneMessage) else 0
        )
        assert value == self.expected()

    def test_delayed_batches(self):
        value, _ = self.run_with_hooks(
            extra_delay_fn=lambda m: (m.seq % 4) if isinstance(m, Batch) else 0
        )
        assert value == self.expected()

    def test_delayed_status_messages(self):
        value, _ = self.run_with_hooks(
            extra_delay_fn=lambda m: 9 if isinstance(m, StatusMessage) else 0
        )
        assert value == self.expected()

    def test_duplicated_status_messages(self):
        # STATUS is idempotent (latest generation wins): duplicates are safe.
        value, _ = self.run_with_hooks(
            duplicate_fn=lambda m: isinstance(m, StatusMessage)
        )
        assert value == self.expected()

    def test_everything_at_once(self):
        value, _ = self.run_with_hooks(
            extra_delay_fn=lambda m: m.seq % 3,
            duplicate_fn=lambda m: isinstance(m, StatusMessage) and m.seq % 2 == 0,
        )
        assert value == self.expected()


class TestVirtualTimeModel:
    def test_quiescent_round_precedes_protocol_end(self):
        g = chain_graph(10)
        r = Session(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"
        )
        assert r.stats.quiescent_round is not None
        assert r.stats.quiescent_round <= r.stats.rounds

    def test_smaller_quantum_means_more_rounds(self):
        g = random_graph(40, 120, seed=3)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)"
        fine = Session(g, EngineConfig(num_machines=2, quantum=100.0)).execute(q)
        coarse = Session(g, EngineConfig(num_machines=2, quantum=5000.0)).execute(q)
        assert fine.virtual_time > coarse.virtual_time
        assert fine.scalar() == coarse.scalar()

    def test_busy_and_idle_rounds_accounted(self):
        g = star_graph(20)
        r = Session(g, EngineConfig(num_machines=4)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)"
        )
        for m in r.stats.per_machine:
            assert m.busy_rounds + m.idle_rounds == r.stats.rounds


class TestWorkerInternals:
    def test_accumulator_undo_on_backtrack(self):
        """A DFT branch that fails its deferred check must not poison the
        accumulator for sibling branches."""
        from repro import GraphBuilder

        b = GraphBuilder()
        # src -> m1 -> dst1 (high), src -> m2 -> dst2 (low)
        src = b.add_vertex("N", score=0)
        m1 = b.add_vertex("N", score=100)
        m2 = b.add_vertex("N", score=1)
        d1 = b.add_vertex("N", score=0)
        d2 = b.add_vertex("N", score=5)
        b.add_edge(src, m1, "E")
        b.add_edge(m1, d1, "E")
        b.add_edge(src, m2, "E")
        b.add_edge(m2, d2, "E")
        g = b.build()
        # Chains of length 2 where every hop's pb.score <= sink.score.
        # Branch via m1 accumulates max=100 and fails at d1 (100 > 0); the
        # branch via m2 must still succeed (max over its own path = 5 <= 5).
        q = (
            "PATH hop AS (pa:N)-[:E]->(pb:N) "
            "SELECT COUNT(*) FROM MATCH (s:N)-/:hop{2,2}/->(sink:N) "
            f"WHERE id(s) = {src} AND pb.score <= sink.score"
        )
        r = Session(g, EngineConfig(num_machines=1)).execute(q)
        assert r.scalar() == 1

    def test_blocked_worker_processes_inbox(self):
        # Extremely tight buffers force blocking; results stay correct and
        # the run terminates thanks to nested inbox processing + overflow.
        g = random_graph(40, 160, seed=17)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)"
        config = EngineConfig(
            num_machines=4,
            buffers_per_machine=8,
            batch_size=4,
            rpq_flow_depth=1,
            rpq_shared_credits=1,
            rpq_overflow_per_depth=1,
        )
        tight = Session(g, config).execute(q)
        loose = Session(g, EngineConfig(num_machines=4)).execute(q)
        assert tight.scalar() == loose.scalar()
        assert tight.stats.flow_control_blocks > 0
