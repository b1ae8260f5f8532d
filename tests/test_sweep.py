"""The differential sweep (``repro.sweep``): the oracle matrix of ROADMAP
item 2(a) over the paper's nine queries, that the sweep *finds* divergence
when there is some, and that it leaves no session, worker or shared-memory
segment behind — also when a variant raises mid-way."""

import multiprocessing
import os

import pytest

from repro import EngineConfig, Session, connect
from repro.datagen import BENCHMARK_QUERIES, mini_ldbc
from repro.errors import ConfigError
from repro.faults import FaultPlan, seeded_sweep
from repro.graph.generators import random_graph
from repro.sweep import Variant, run_sweep

CONFIG = EngineConfig(num_machines=4)


@pytest.fixture(scope="module")
def workload():
    """The ``xs`` graph and the nine paper queries as ``{name: text}``."""
    graph, info = mini_ldbc("xs", seed=7)
    return graph, {
        name: build(info) for name, build in BENCHMARK_QUERIES.items()
    }


def _segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestOracleMatrix:
    """sim solo ≡ sim concurrency 4 ≡ process ≡ chaos-recovered ≡ permuted
    schedule ≡ (on tree-shaped expansions) index off."""

    def test_nine_queries_agree_under_every_substrate(self, workload):
        graph, queries = workload
        (plan,) = seeded_sweep(1, permanent=True)
        report = run_sweep(
            graph,
            list(queries.values()),
            [
                Variant("conc4", concurrency=4),
                Variant("process", {"backend": "process"}),
                Variant(
                    "crash+recover",
                    {"faults": plan, "recovery": True, "sanitize": True},
                ),
                Variant("seed5", {"schedule_seed": 5}),
            ],
            config=CONFIG,
        )
        assert report.ok, report.mismatches
        assert [run.label for run in report.runs] == [
            "conc4", "process", "crash+recover", "seed5",
        ]
        assert all(len(run.results) == 9 for run in report.runs)
        conc4, process, crashed, seeded = report.runs
        # Each variant really was what its label says.
        assert 0 < conc4.cluster_rounds < sum(
            base.stats.rounds for base in report.baselines
        )
        assert process.cluster_rounds is None
        assert all(r.stats.fault_events for r in crashed.results)
        assert sum(r.stats.recovery["recoveries"] for r in crashed.results) > 0
        assert all(r.stats.schedule_fingerprint for r in seeded.results)
        assert all(
            base.stats.schedule_fingerprint is None for base in report.baselines
        )

    def test_index_off_agrees_on_the_tree_shaped_queries(self, workload):
        """``REPLY_OF`` is a forest, so every destination is reached along
        one path and the index eliminates nothing; the three ``KNOWS``
        queries legitimately count differently without it (see
        ``TestFindsDivergence``)."""
        graph, queries = workload
        reply_of = [q for q in queries.values() if "REPLY_OF" in q]
        assert len(reply_of) == 6
        report = run_sweep(
            graph,
            reply_of,
            [Variant("noindex", {"use_reachability_index": False})],
            config=CONFIG,
        )
        assert report.ok, report.mismatches


class TestFindsDivergence:
    def test_index_off_on_a_cyclic_expansion_is_a_rows_mismatch(self, workload):
        graph, queries = workload
        report = run_sweep(
            graph,
            [queries["Q09"], queries["Q10"]],
            [Variant("noindex", {"use_reachability_index": False})],
            config=CONFIG,
        )
        assert not report.ok
        assert report.mismatches == [("noindex", 1, "rows")]
        assert report.query_mismatches(0) == []
        assert report.query_mismatches(1) == [("noindex", "rows")]
        assert report.variant_mismatches("noindex") == [(1, "rows")]

    def test_a_deadline_cut_is_an_incomplete_mismatch(self, workload):
        graph, queries = workload
        report = run_sweep(
            graph,
            [queries["Q09"]],
            [Variant("full"), Variant("cut", {"deadline": 1})],
            config=CONFIG,
        )
        assert ("cut", 0, "incomplete") in report.mismatches
        assert report.variant_mismatches("full") == []
        (cut,) = report.runs[1].results
        assert cut.timed_out and not cut.complete

    def test_permuted_row_order_fails_only_the_ordered_comparison(self):
        graph = random_graph(60, 180, seed=11, edge_label="E")
        # Ties under ORDER BY keep arrival order, which a seed permutes.
        query = "SELECT a, b FROM MATCH (a)-/:E{1,2}/->(b) ORDER BY a"
        config = CONFIG.with_(buffers_per_machine=2048)
        variants = [Variant(3, {"schedule_seed": 3})]
        unordered = run_sweep(graph, [query], variants, config=config)
        assert unordered.ok, unordered.mismatches
        (base,), (seeded,) = unordered.baselines, unordered.runs[0].results
        assert seeded.rows != base.rows  # same multiset, another order
        ordered = run_sweep(
            graph, [query], variants, config=config, ordered=True
        )
        assert ordered.mismatches == [(3, 0, "rows")]

    def test_depth_tables_are_compared_only_on_request(self, workload):
        """Q10's eliminated/duplicated accounting depends on arrival order
        under faults; its rows do not."""
        graph, queries = workload
        plans = seeded_sweep(2, corrupt_prob=0.05)
        variants = [Variant(plan.seed, {"faults": plan}) for plan in plans]
        fault_free = {"faults": None, "reliable_transport": True}
        rows_only = run_sweep(
            graph, [queries["Q10"]], variants, config=CONFIG,
            baseline_overrides=fault_free,
        )
        assert rows_only.ok, rows_only.mismatches
        with_depths = run_sweep(
            graph, [queries["Q10"]], variants, config=CONFIG,
            baseline_overrides=fault_free, compare_depths=True,
        )
        assert with_depths.mismatches == [
            (1, 0, "depth_table"), (2, 0, "depth_table"),
        ]


class TestSharedClusterFields:
    def test_fault_counts_are_the_shared_injectors_final_counts(self, workload):
        graph, queries = workload
        texts = list(queries.values())[:4]
        plan = FaultPlan(seed=1, drop_prob=0.05, dup_prob=0.05)
        report = run_sweep(
            graph, texts, [Variant(1, {"faults": plan}, concurrency=4)],
            config=CONFIG,
            baseline_overrides={"faults": None, "reliable_transport": True},
        )
        assert report.ok, report.mismatches
        (run,) = report.runs
        # The same batch by hand, read off the scheduler itself.
        with connect(
            graph, CONFIG.with_(faults=plan, max_concurrent_queries=4)
        ) as session:
            for text in texts:
                session.submit(text)
            session.drain()
            assert run.fault_counts == dict(session._scheduler.chaos.injector.counts)
            assert run.cluster_rounds == session.cluster_rounds
        assert sum(run.fault_counts.values()) > 0
        assert run.blast_radius == []

    def test_solo_variants_carry_no_cluster_fields(self, workload):
        graph, queries = workload
        report = run_sweep(graph, [queries["Q03"]], [Variant("same")], config=CONFIG)
        (run,) = report.runs
        assert report.ok
        assert (run.cluster_rounds, run.blast_radius, run.fault_counts) == (
            None, [], {},
        )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method",
)
class TestLifetimes:
    @pytest.fixture
    def spy(self, monkeypatch):
        """Record every session the sweep opens, and its worker pids."""
        opened = []

        class SpySession(Session):
            fail_on_execute = None  # raise ConfigError on the n-th execute
            executes = 0

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.pids = set()
                opened.append(self)

            def execute(self, query, **kwargs):
                SpySession.executes += 1
                if SpySession.executes == SpySession.fail_on_execute:
                    raise ConfigError("injected mid-sweep failure")
                result = super().execute(query, **kwargs)
                self.pids.update(getattr(self.backend, "worker_pids", ()))
                return result

        monkeypatch.setattr("repro.sweep.Session", SpySession)
        return SpySession, opened

    @staticmethod
    def _assert_nothing_left(opened, segments_before):
        assert all(session.closed for session in opened)
        pids = set().union(*(session.pids for session in opened))
        assert pids, "no process-backend worker ever ran: vacuous"
        assert multiprocessing.active_children() == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert _segments() <= segments_before

    def test_process_variant_leaves_no_worker_or_segment(self, workload, spy):
        _spy_cls, opened = spy
        graph, queries = workload
        before = _segments()
        report = run_sweep(
            graph,
            [queries["Q03"], queries["Q09"]],
            [Variant("process", {"backend": "process"}), Variant("conc2", concurrency=2)],
            config=CONFIG,
        )
        assert report.ok, report.mismatches
        assert len(opened) == 3  # baseline + one per variant
        self._assert_nothing_left(opened, before)

    def test_variant_raising_mid_way_leaves_nothing_either(self, workload, spy):
        spy_cls, opened = spy
        graph, queries = workload
        before = _segments()
        # Executes 1-2 are the baselines, 3 the process variant's first
        # query (which forks the pool), 4 raises with the pool alive.
        spy_cls.fail_on_execute = 4
        with pytest.raises(ConfigError, match="injected"):
            run_sweep(
                graph,
                [queries["Q03"], queries["Q09"]],
                [Variant("process", {"backend": "process"}), Variant("never")],
                config=CONFIG,
            )
        assert len(opened) == 2  # the third variant never opened
        self._assert_nothing_left(opened, before)
