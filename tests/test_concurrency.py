"""Tests for the concurrent multi-query runtime (ClusterScheduler).

The load-bearing property: running queries concurrently perturbs only the
*schedule*, never the result sets — so every concurrent result must be
bit-identical to the same query executed solo, sanitizers included.
"""

from collections import Counter

import pytest

from repro import AdmissionError, EngineConfig, connect
from repro.engine.result import MachineSink
from repro.errors import ConfigError
from repro.graph.generators import chain_graph, random_graph
from repro.runtime.machine import Machine
from repro.runtime.multi import ClusterScheduler

QUERIES = [
    "SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)",
    "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b)",
    "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)",
    "SELECT COUNT(*) FROM MATCH (a)-/:LINK{2,4}/->(b)",
]


def _graph(seed=11):
    return random_graph(50, 150, seed=seed)


class TestConcurrentEqualsSequential:
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_results_bit_identical_to_solo(self, sanitize):
        session = connect(
            _graph(), num_machines=3, sanitize=sanitize,
            max_concurrent_queries=4,
        )
        solo = [session.execute(q).rows for q in QUERIES]
        handles = [session.submit(q) for q in QUERIES]
        session.drain()
        for handle, rows in zip(handles, solo):
            result = handle.result()
            assert result.rows == rows
            assert result.complete

    def test_concurrency_shares_idle_quantum(self):
        """Interleaving must beat back-to-back sequential makespan."""
        session = connect(_graph(), num_machines=3, max_concurrent_queries=4)
        sequential = sum(session.execute(q).stats.rounds for q in QUERIES)
        handles = [session.submit(q) for q in QUERIES]
        session.drain()
        assert all(h.result().complete for h in handles)
        assert session.cluster_rounds < sequential

    def test_repeated_concurrent_runs_are_deterministic(self):
        def one_run():
            session = connect(
                _graph(), num_machines=3, sanitize=True,
                max_concurrent_queries=4,
            )
            handles = [session.submit(q) for q in QUERIES]
            session.drain()
            return (
                [h.result().rows for h in handles],
                session.cluster_rounds,
            )

        first, second = one_run(), one_run()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_per_query_stats_use_local_clock(self):
        """A late-submitted query's rounds count from its own admission."""
        session = connect(chain_graph(12), num_machines=2)
        solo_rounds = session.execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"
        ).stats.rounds
        first = session.submit("SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)")
        first.result()
        second = session.submit("SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)")
        stats = second.result().stats
        # Admitted mid-makespan yet its own clock starts at admission; a
        # solo-equal workload on an otherwise idle cluster takes the same
        # virtual time (within the settle tail).
        assert stats.rounds <= solo_rounds + 4
        assert first.result().rows == second.result().rows


class TestRoundEpilogue:
    def test_one_timeout_flush_per_slice_per_round(self, monkeypatch):
        """Sharing a machine does not shorten a query's send timeout: each
        slice runs at most once a round, on what older slices left, and its
        partial buffers go out once, when its round closes."""
        runs, flushes, served = Counter(), Counter(), Counter()
        run_slice, flush_partials = Machine.run_slice, Machine.flush_partials

        def counting_run(self, round_no, budget, rng=None):
            runs[self.query_id, self.id, round_no] += 1
            served[self.id, round_no] += 1
            return run_slice(self, round_no, budget, rng=rng)

        def counting_flush(self):
            flushes[self.query_id, self.id, self.current_round] += 1
            return flush_partials(self)

        monkeypatch.setattr(Machine, "run_slice", counting_run)
        monkeypatch.setattr(Machine, "flush_partials", counting_flush)
        session = connect(_graph(), num_machines=3, max_concurrent_queries=4)
        handles = [session.submit(q) for q in QUERIES]
        session.drain()
        assert all(h.result().complete for h in handles)
        assert max(served.values()) >= 2  # not vacuous: slices shared a round
        assert max(runs.values()) == 1
        assert flushes and max(flushes.values()) == 1


class TestOldestFirstSharing:
    def test_each_slice_is_offered_what_older_ones_left(self, monkeypatch):
        offers = {}
        run_slice = Machine.run_slice

        def recording_run(self, round_no, budget, rng=None):
            used = run_slice(self, round_no, budget, rng=rng)
            offers.setdefault((self.id, round_no), []).append((self.query_id, budget, used))
            return used

        monkeypatch.setattr(Machine, "run_slice", recording_run)
        session = connect(_graph(), num_machines=3, max_concurrent_queries=4)
        handles = [session.submit(q) for q in QUERIES]
        session.drain()
        assert all(h.result().complete for h in handles)
        shared = 0
        for calls in offers.values():
            ids = [query_id for query_id, _, _ in calls]
            assert ids == sorted(ids)  # admission order
            left = session.config.quantum
            for _, budget, used in calls:
                assert budget == pytest.approx(left)
                left -= used
            shared += len(calls) > 1
        assert shared  # not vacuous: a younger slice ran on leftovers

    def test_the_oldest_query_runs_as_it_would_alone(self):
        """Co-runners take only the quantum it leaves idle, so the oldest
        query's schedule, costs and messages are those of a solo run."""
        session = connect(_graph(), num_machines=3, max_concurrent_queries=4)
        unbounded = QUERIES[1]

        def shape(stats):
            return stats.rounds, stats.virtual_time, [
                (m.cost_units, m.busy_rounds, m.batches_sent, m.status_messages)
                for m in stats.per_machine
            ]

        solo = session.execute(unbounded)
        handles = [session.submit(q) for q in (unbounded, *QUERIES)]
        session.drain()
        oldest = handles[0].result()
        assert oldest.rows == solo.rows
        assert shape(oldest.stats) == shape(solo.stats)

    def test_waiting_behind_an_older_query_is_no_stall(self):
        """A query with work and no quantum left over for more than
        ``stall_limit`` rounds is waiting, not deadlocked."""
        session = connect(
            _graph(), num_machines=2, quantum=20, stall_limit=6,
            max_concurrent_queries=2,
        )
        old = session.submit(QUERIES[1])
        young = session.submit(QUERIES[0])
        assert young.result().rows == session.execute(QUERIES[0]).rows
        assert old.result().complete
        assert young.result().stats.rounds > 6


class TestAdmissionControl:
    def test_admission_error_past_queue_limit(self):
        session = connect(
            chain_graph(10), num_machines=2,
            max_concurrent_queries=1, admission_queue_limit=2,
        )
        q = "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"
        handles = [session.submit(q) for _ in range(3)]  # 1 active + 2 queued
        with pytest.raises(AdmissionError, match="admission queue full"):
            session.submit(q)
        session.drain()
        rows = [h.result().rows for h in handles]
        assert rows[0] == rows[1] == rows[2]

    def test_finish_frees_admission_slot(self):
        session = connect(
            chain_graph(10), num_machines=2,
            max_concurrent_queries=1, admission_queue_limit=1,
        )
        q = "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)"
        first = session.submit(q)
        second = session.submit(q)
        first.result()
        # The queue drained into the freed slot, so there is room again.
        third = session.submit(q)
        session.drain()
        assert second.result().rows == third.result().rows

    def test_cancel_pending_frees_queue_slot(self):
        session = connect(
            chain_graph(10), num_machines=2,
            max_concurrent_queries=1, admission_queue_limit=1,
        )
        q = "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)"
        session.submit(q)
        queued = session.submit(q)
        assert queued.cancel() is True
        replacement = session.submit(q)  # no AdmissionError
        session.drain()
        assert replacement.result().complete


class TestSeededSchedules:
    def test_four_queries_under_three_seeds_match_the_unseeded_run(self):
        """``schedule_seed`` permutes the shared loop's service order: it
        must change the schedule (distinct fingerprints) and nothing else."""
        graph = _graph()

        def batch(seed):
            config = EngineConfig(
                num_machines=4, workers_per_machine=3, schedule_seed=seed,
                max_concurrent_queries=4,
            )
            with connect(graph, config) as session:
                handles = [session.submit(q) for q in QUERIES]
                session.drain()
                results = [h.result() for h in handles]
            rows = [sorted(tuple(r) for r in result.rows) for result in results]
            return rows, results[-1].stats.schedule_fingerprint

        baseline, unseeded_fingerprint = batch(None)
        assert unseeded_fingerprint is None
        fingerprints = set()
        for seed in (1, 2, 3):
            rows, fingerprint = batch(seed)
            assert rows == baseline
            assert fingerprint is not None
            fingerprints.add(fingerprint)
        assert len(fingerprints) == 3
        # Same seed, same submissions: same schedule.
        assert batch(2)[1] == batch(2)[1]


class TestIsolation:
    def test_channels_are_private_and_leave_with_their_task(self):
        """Each task owns its channel, and the round loop ticks exactly
        the channels of the tasks still running."""
        session = connect(chain_graph(8), num_machines=2, reliable_transport=True)
        scheduler = ClusterScheduler(session.dgraph, session.config)
        one_hop = session.compile("SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)")
        rpq = session.compile("SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)")
        cancelled, short, long = (
            scheduler.submit(plan, lambda m, plan=plan: MachineSink(plan))
            for plan in (rpq, one_hop, rpq)
        )
        assert len({id(t.channel) for t in (cancelled, short, long)}) == 3
        ticked = []
        for task in (cancelled, short, long):
            def tick(now_round, task=task, real=task.channel.tick):
                ticked.append(task.query_id)
                real(now_round)
            task.channel.tick = tick
        scheduler.step()
        assert ticked == [1, 2, 3]
        scheduler.cancel(cancelled)
        while not short.finished:
            scheduler.step()
        assert not long.finished
        ticked.clear()
        scheduler.step()
        assert ticked == [3]

    def test_per_query_retransmit_timeout_overrides_the_clusters(self):
        session = connect(
            chain_graph(8), num_machines=2, reliable_transport=True,
            retransmit_timeout_rounds=9,
        )
        scheduler = ClusterScheduler(session.dgraph, session.config)
        plan = session.compile("SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)")
        inherited = scheduler.submit(plan, lambda m: MachineSink(plan))
        own = scheduler.submit(
            plan, lambda m: MachineSink(plan),
            config=session.config.with_(retransmit_timeout_rounds=3),
        )
        assert inherited.channel._base_rto == 9
        assert own.channel._base_rto == 3

    def test_scheduler_rejects_mismatched_cluster_shape(self):
        session = connect(chain_graph(8), num_machines=2)
        scheduler = ClusterScheduler(session.dgraph, session.config)
        plan = session.compile("SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)")
        with pytest.raises(ConfigError, match="machines"):
            scheduler.submit(
                plan, lambda m: None,
                config=EngineConfig(num_machines=4),
            )
        with pytest.raises(ConfigError, match="net_delay_rounds"):
            scheduler.submit(
                plan, lambda m: None,
                config=session.config.with_(net_delay_rounds=3),
            )

    def test_per_query_schedule_seed_must_match_cluster(self):
        """The race detector's seed is cluster-level, like the fault plan:
        a differing per-query seed is rejected, restating or omitting the
        session's own is fine."""
        query = "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)"
        unseeded = connect(chain_graph(8), num_machines=2)
        with pytest.raises(ConfigError, match="schedule_seed=1 differs"):
            unseeded.submit(query, config=unseeded.config.with_(schedule_seed=1))
        seeded = connect(chain_graph(8), num_machines=2, schedule_seed=1)
        with pytest.raises(ConfigError, match="schedule_seed=2 differs"):
            seeded.submit(query, config=seeded.config.with_(schedule_seed=2))
        restated = seeded.submit(query, config=seeded.config.with_(deadline=500))
        omitted = seeded.submit(query, config=seeded.config.with_(schedule_seed=None))
        seeded.drain()
        assert restated.result().complete and omitted.result().complete

    def test_recovery_and_transport_ride_the_concurrent_path(self):
        session = connect(chain_graph(8), num_machines=2)
        base = session.config
        handle = session.submit(
            "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)",
            config=base.with_(recovery=True, reliable_transport=True),
        )
        session.drain()
        assert handle.result().complete

    def test_per_query_fault_plan_must_match_cluster(self):
        """Chaos is cluster-level: a differing per-query plan is rejected,
        restating the session's own plan is fine."""
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=3, drop_prob=0.02)
        session = connect(
            chain_graph(8), num_machines=2, faults=plan, sanitize=True
        )
        with pytest.raises(ConfigError, match="fault plan"):
            session.submit(
                "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)",
                config=session.config.with_(faults=FaultPlan(seed=4)),
            )
        restated = session.submit(
            "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)",
            config=session.config.with_(faults=plan),
        )
        session.drain()
        assert restated.result().complete

    def test_one_query_failure_spares_the_others(self):
        """A per-query round-cap breach must not take down its neighbours."""
        session = connect(_graph(), num_machines=3)
        doomed = session.submit(
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK+/->(b)",
            config=session.config.with_(max_rounds=1),
        )
        healthy = session.submit("SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)")
        session.drain()
        with pytest.raises(Exception, match="max_rounds"):
            doomed.result()
        assert healthy.result().complete
