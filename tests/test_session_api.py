"""Tests for the Session/QueryHandle API, the plan cache, and the public
export surface."""

import gc
import inspect
import re
import warnings
import weakref
from pathlib import Path

import pytest

import repro
from repro import (
    EngineConfig,
    QueryCancelledError,
    Session,
    SessionClosedError,
    connect,
)
from repro.errors import ConfigError, ExecutionError
from repro.faults import FaultPlan
from repro.graph.generators import chain_graph, random_graph
from repro.plan.cache import PlanCache, normalize_query_text

COUNT_Q = "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)"
RPQ_Q = "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"


class TestConnect:
    def test_connect_builds_config_from_kwargs(self):
        session = connect(chain_graph(6), num_machines=3, sanitize=True)
        assert session.config.num_machines == 3
        assert session.config.sanitize is True
        assert session.dgraph.num_machines == 3

    def test_connect_overrides_explicit_config(self):
        base = EngineConfig(num_machines=2, batch_size=8)
        session = connect(chain_graph(6), config=base, batch_size=16)
        assert session.config.batch_size == 16
        assert session.config.num_machines == 2

    def test_connect_invalid_kwarg_is_config_error(self):
        with pytest.raises((ConfigError, TypeError)):
            connect(chain_graph(6), num_machines=0)

    def test_context_manager_closes(self):
        with connect(chain_graph(6), num_machines=2) as session:
            assert session.execute(COUNT_Q).scalar() == 5
        assert session.closed
        with pytest.raises(SessionClosedError):
            session.execute(COUNT_Q)
        with pytest.raises(SessionClosedError):
            session.submit(COUNT_Q)


class TestExecute:
    @pytest.fixture
    def session(self):
        return connect(chain_graph(8), num_machines=2)

    def test_execute_matches_legacy_engine(self, session):
        assert session.execute(COUNT_Q).scalar() == 7
        assert session.execute(RPQ_Q).scalar() == 28

    def test_execute_config_override_repartitions(self, session):
        result = session.execute(RPQ_Q, config=EngineConfig(num_machines=5))
        assert result.scalar() == 28
        assert result.stats.num_machines == 5

    def test_execute_owns_a_private_scheduler(self, session):
        """``execute`` never runs on (or advances) the session's shared
        scheduler, takes its own profiler, and raises its own error."""
        from repro.errors import ExecutionError

        pending = session.submit(RPQ_Q)
        shared, rounds = session._scheduler, session.cluster_rounds
        result = session.execute(RPQ_Q, config=session.config.with_(profile=True))
        assert result.scalar() == 28
        assert session._scheduler is shared and shared.prof is None
        assert session.cluster_rounds == rounds and not pending.done()
        assert {"sched.deliver", "sched.compute", "sched.protocol"} <= set(
            result.stats.profile
        )
        with pytest.raises(ExecutionError, match="max_rounds=1"):
            session.execute(RPQ_Q, config=session.config.with_(max_rounds=1))
        assert pending.result().scalar() == 28


class TestSubmit:
    def test_handle_result_matches_execute(self):
        g = random_graph(40, 120, seed=5)
        session = connect(g, num_machines=3)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,4}/->(b)"
        solo = session.execute(q).scalar()
        handle = session.submit(q)
        assert not handle.done()
        assert handle.result().scalar() == solo
        assert handle.done()
        # result() is idempotent (cached).
        assert handle.result() is handle.result()

    def test_many_handles_interleave_and_all_match(self):
        g = random_graph(40, 120, seed=5)
        session = connect(g, num_machines=3, max_concurrent_queries=3)
        queries = [
            "SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)",
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b)",
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)",
        ]
        solo = [session.execute(q).rows for q in queries]
        handles = [session.submit(q) for q in queries]
        assert session.drain() == handles  # the handles it finished
        assert all(h.done() for h in handles)
        for h, rows in zip(handles, solo):
            assert h.result().rows == rows

    def test_cancel_before_running(self):
        session = connect(chain_graph(8), num_machines=2)
        handle = session.submit(RPQ_Q)
        assert handle.cancel() is True
        assert handle.done() and handle.cancelled()
        with pytest.raises(QueryCancelledError):
            handle.result()

    def test_cancel_after_completion_returns_false(self):
        session = connect(chain_graph(8), num_machines=2)
        handle = session.submit(COUNT_Q)
        handle.result()
        assert handle.cancel() is False

    def test_deadline_produces_timed_out_partial(self):
        g = random_graph(60, 240, seed=3)
        session = connect(g, num_machines=3)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b)"
        handle = session.submit(q, config=session.config.with_(deadline=2))
        result = handle.result()
        assert result.timed_out
        assert result.complete is False

    def test_submit_rejects_differing_cluster_level_options(self):
        session = connect(chain_graph(8), num_machines=2)
        # A per-query fault plan or schedule_seed on a session without one
        # differs from the cluster's (None): both are cluster-level.
        faulty = session.config.with_(faults=FaultPlan(seed=1, drop_prob=0.1))
        with pytest.raises(ConfigError):
            session.submit(COUNT_Q, config=faulty)
        with pytest.raises(ConfigError):
            session.submit(COUNT_Q, config=session.config.with_(schedule_seed=3))
        # recovery is per query: it arms that query's own checkpoints.
        handle = session.submit(
            COUNT_Q, config=session.config.with_(recovery=True)
        )
        session.drain()
        assert handle.result().complete

    def test_close_cancels_outstanding_handles(self):
        session = connect(chain_graph(8), num_machines=2)
        handle = session.submit(RPQ_Q)
        session.close()
        assert handle.cancelled()

    def test_finished_submissions_are_freed_with_their_handles(self):
        # The session holds only unfinished handles, so a finished query's
        # task (slices, index shards, channel) dies with the caller's handle.
        session = connect(chain_graph(8), num_machines=2)
        handle = session.submit(RPQ_Q)
        first = weakref.ref(handle._task)
        handle.result()
        del handle
        for _ in range(49):
            session.submit(RPQ_Q).result()
        gc.collect()
        assert first() is None
        session.close()

    def test_failed_submission_carries_its_recorder(self):
        session = connect(chain_graph(8), num_machines=2)
        handle = session.submit(
            RPQ_Q, config=session.config.with_(max_rounds=2, observe=True)
        )
        with pytest.raises(ExecutionError, match="exceeded max_rounds=2") as exc:
            handle.result()
        assert exc.value.obs is handle._task.obs and exc.value.obs.events


class TestPlanCache:
    def test_normalization_collapses_whitespace(self):
        assert (
            normalize_query_text("SELECT  COUNT(*)\n FROM   MATCH (a)")
            == "SELECT COUNT(*) FROM MATCH (a)"
        )

    def test_cache_hit_counting(self):
        cache = PlanCache()
        assert cache.lookup("SELECT 1") is None
        cache.store("SELECT 1", False, object())
        assert cache.lookup("SELECT 1") is not None
        assert cache.lookup("  SELECT   1 ") is not None
        assert (cache.hits, cache.misses) == (2, 1)
        assert len(cache) == 1

    def test_size_is_bounded_and_least_recently_used_goes_first(self, monkeypatch):
        from repro.plan import cache as cache_module

        monkeypatch.setattr(cache_module, "_MAX_PLANS", 4)
        cache = PlanCache()
        texts = [f"SELECT {i}" for i in range(7)]
        for text in texts[:4]:
            cache.store(text, False, text)
        assert cache.lookup(texts[0]) == texts[0]  # used: no longer the oldest
        for text in texts[4:]:
            cache.store(text, False, text)
            assert len(cache) == 4
        assert [cache.lookup(t) for t in texts] == [
            texts[0], None, None, None, texts[4], texts[5], texts[6],
        ]

    def test_a_session_of_one_off_queries_keeps_the_bound(self):
        from repro.plan.cache import _MAX_PLANS

        session = connect(chain_graph(8), num_machines=2)
        for i in range(_MAX_PLANS + 20):
            session.compile(f"SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b) WHERE id(a) = {i}")
        assert len(session.plan_cache) == _MAX_PLANS
        latest = f"SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b) WHERE id(a) = {_MAX_PLANS + 19}"
        assert session.plan_cache.lookup(latest) is not None

    def test_session_shares_plans_across_execute_and_submit(self):
        session = connect(chain_graph(8), num_machines=2)
        p1 = session.compile(COUNT_Q)
        session.execute(COUNT_Q)
        handle = session.submit("SELECT  COUNT(*) FROM  MATCH (a)-[:NEXT]->(b)")
        assert handle.result().scalar() == 7
        assert session.compile(COUNT_Q) is p1
        assert session.plan_cache.hits >= 3
        assert session.plan_cache.misses == 1


class TestPlanCacheLiterals:
    """Whitespace inside a string literal is part of the query."""

    TWO = "SELECT id(a) FROM MATCH (a:Person) WHERE a.name = 'John  Smith'"
    ONE = "SELECT id(a) FROM MATCH (a:Person) WHERE a.name = 'John Smith'"

    @pytest.fixture
    def smiths(self):
        b = repro.GraphBuilder()
        b.add_vertex("Person", name="John  Smith")  # id 0: two spaces
        b.add_vertex("Person", name="John Smith")  # id 1: one space
        return b.build()

    @pytest.mark.parametrize("order", [("TWO", "ONE"), ("ONE", "TWO")])
    def test_literals_differing_in_whitespace_get_their_own_plans(
        self, smiths, order
    ):
        expected = {"TWO": [(0,)], "ONE": [(1,)]}
        with connect(smiths, num_machines=2) as session:
            for name in order + order:
                assert session.execute(getattr(self, name)).rows == expected[name]
            assert (session.plan_cache.misses, session.plan_cache.hits) == (2, 2)

    def test_reformatted_repeats_still_hit(self, smiths):
        with connect(smiths, num_machines=2) as session:
            plan = session.compile(self.TWO)
            reformatted = self.TWO.replace(" FROM ", "\n  FROM   ") + "  "
            assert session.compile(reformatted) is plan
            assert session.plan_cache.misses == 1

    def test_normalization_keeps_what_the_lexer_reads(self):
        assert normalize_query_text("a  =  'x  ''  y'  ") == "a = 'x  ''  y'"
        # A line comment ends at its newline; a quote inside a comment
        # opens no literal.
        assert (
            normalize_query_text("SELECT 1 -- it's  a\n  FROM  'p  q'")
            == "SELECT 1 -- it's  a\n FROM 'p  q'"
        )
        assert (
            normalize_query_text("SELECT /* it's  a */  1  FROM 'p  q'")
            == "SELECT /* it's  a */ 1 FROM 'p  q'"
        )


class TestMachineCountOverride:
    """A per-run ``num_machines`` override runs on the session's own
    partitioning for that count, built once."""

    def test_override_honours_the_session_partitioner_and_is_built_once(
        self, monkeypatch
    ):
        import repro.session as session_module

        built = []
        real = session_module.DistributedGraph

        def counting(graph, num_machines, partitioner="hash"):
            built.append((num_machines, partitioner))
            return real(graph, num_machines, partitioner)

        monkeypatch.setattr(session_module, "DistributedGraph", counting)
        session = connect(random_graph(30, 90, seed=4), num_machines=4,
                          partitioner="block")
        two = session.config.with_(num_machines=2)
        dgraphs = []
        real_run = session.backend.run
        monkeypatch.setattr(
            session.backend, "run",
            lambda dgraph, *a, **k: dgraphs.append(dgraph) or real_run(dgraph, *a, **k),
        )
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)"
        expected = session.execute(q).scalar()
        assert session.execute(q, config=two).scalar() == expected
        assert session.execute(q, config=two).scalar() == expected
        assert built == [(4, "block"), (2, "block")]
        assert dgraphs[0] is session.dgraph
        assert dgraphs[1] is dgraphs[2] and dgraphs[1].num_machines == 2
        assert type(dgraphs[1].partitioner).__name__ == "BlockPartitioner"

    def test_override_on_the_process_backend_forks_once(self):
        graph = random_graph(30, 90, seed=4)
        q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)"
        with connect(graph, num_machines=4, backend="process") as session:
            two = session.config.with_(num_machines=2)
            first = session.execute(q, config=two).scalar()
            pids = session.backend.worker_pids
            assert len(pids) == 2
            assert session.execute(q, config=two).scalar() == first
            assert session.backend.worker_pids == pids  # nothing re-forked

    def test_partitioner_instance_is_bound_to_its_machine_count(self):
        from repro.errors import GraphError
        from repro.graph import HashPartitioner

        graph = chain_graph(8)
        session = Session(
            graph, EngineConfig(num_machines=4),
            partitioner=HashPartitioner(graph.num_vertices, 4),
        )
        assert session.execute(COUNT_Q).scalar() == 7
        with pytest.raises(GraphError, match="built for 4 machines"):
            session.execute(COUNT_Q, config=session.config.with_(num_machines=2))


class TestPublicSurface:
    def test_session_runs_without_deprecation_warnings(self):
        g = chain_graph(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = Session(g, EngineConfig(num_machines=2))
            assert session.execute(COUNT_Q).scalar() == 7
            assert session.compile(COUNT_Q) is session.compile(COUNT_Q)
            assert "rpq_control" in session.explain(RPQ_Q)
            assert session.config.num_machines == 2
            assert session.dgraph.num_machines == 2

    def test_public_exports(self):
        assert sorted(repro.__all__) == sorted([
            "AdmissionError", "ConfigError", "CostModel", "Direction",
            "EngineConfig", "ExecutionError", "FlowControlDeadlock",
            "GraphBuilder", "GraphError", "PgqlSyntaxError", "PlanningError",
            "PropertyGraph", "QueryCancelledError", "QueryHandle",
            "QueryResult", "ReproError", "ResultSet", "Session",
            "SessionClosedError", "__version__", "connect", "witness_path",
        ])
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_run_settings_are_config_fields(self):
        # One way to configure a run: the run's EngineConfig.
        for method in (Session.execute, Session.submit):
            assert list(inspect.signature(method).parameters) == ["self", "query", "config"]
        fields = set(EngineConfig.__dataclass_fields__)
        assert {"observe", "profile", "deadline"} <= fields

    def test_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        (declared,) = re.findall(
            r'^version = "([^"]+)"$', pyproject.read_text(), flags=re.M
        )
        assert declared == repro.__version__
