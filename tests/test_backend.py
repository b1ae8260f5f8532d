"""Tests for the execution-backend API (:mod:`repro.runtime.backend`).

The headline contract: the process backend and the simulator return
bit-identical result sets (the simulator is the verification oracle),
workers take the graph by fork alone (no shared-memory segment is ever
created), and no worker outlives ``close`` — not on a clean close, not on
a worker crash.
"""

import dataclasses
import marshal
import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro import EngineConfig, connect
from repro.datagen import BENCHMARK_QUERIES, mini_ldbc
from repro.errors import ConfigError, ExecutionError
from repro.faults import FaultPlan
from repro.graph.generators import random_graph
from repro.runtime.backend import (
    ProcessBackend,
    SimBackend,
    _fenced,
    backend_from_config,
)
from repro.runtime.message import (
    Batch,
    DoneMessage,
    StatusMessage,
    from_wire,
    to_wire,
)

from .test_sweep import _segments

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method",
)

COUNT_Q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)"


# ---------------------------------------------------------------------------
# Backend field validation
# ---------------------------------------------------------------------------


class TestBackendFields:
    def test_unknown_backend_names_value(self):
        with pytest.raises(ConfigError, match=r"backend.*'threads'"):
            EngineConfig(backend="threads")

    def test_invalid_workers_names_value(self):
        with pytest.raises(ConfigError, match=r"workers.*0"):
            EngineConfig(workers=0)

    def test_connect_accepts_backend_kwarg(self):
        with connect(random_graph(30, 60), backend="process") as session:
            assert session.backend.name == "process"
            assert session.config.backend == "process"

    def test_backend_from_config_dispatch(self):
        assert isinstance(
            backend_from_config(EngineConfig(backend="sim")), SimBackend
        )
        assert isinstance(
            backend_from_config(EngineConfig(backend="process")),
            ProcessBackend,
        )


# ---------------------------------------------------------------------------
# Feature matrix: simulator-only options fail loudly with process backend
# ---------------------------------------------------------------------------


class TestFeatureMatrix:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"faults": FaultPlan(seed=1, drop_prob=0.1)},
            {"recovery": True},
            {"membership": True},
            {"schedule_seed": 3},
            {"observe": True},
        ],
        ids=["faults", "recovery", "membership", "schedule_seed", "observe"],
    )
    def test_simulator_only_options_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="simulator-only"):
            EngineConfig(backend="process", **kwargs)

    def test_error_points_at_sim_backend(self):
        with pytest.raises(ConfigError, match="backend='sim'"):
            EngineConfig(backend="process", recovery=True)

    def test_trace_rejected_at_execute(self):
        with connect(random_graph(30, 60), backend="process") as session:
            with pytest.raises(ConfigError, match="simulator-only"):
                session.execute(COUNT_Q, trace=True)

    def test_observe_rejected_at_execute(self):
        with connect(random_graph(30, 60), backend="process") as session:
            with pytest.raises(ConfigError, match="simulator-only"):
                session.execute(COUNT_Q, observe=True)

    def test_submit_rejected(self):
        with connect(random_graph(30, 60), backend="process") as session:
            with pytest.raises(ConfigError, match="submit"):
                session.submit(COUNT_Q)


# ---------------------------------------------------------------------------
# Cross-backend equivalence: the simulator is the oracle
# ---------------------------------------------------------------------------


class TestCrossBackendEquivalence:
    @pytest.fixture(scope="class")
    def workload(self):
        graph, info = mini_ldbc("xs", seed=7)
        queries = {
            name: build(info) for name, build in BENCHMARK_QUERIES.items()
        }
        return graph, queries

    def test_full_bench_workload_bit_identical(self, workload):
        graph, queries = workload
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process"
        ) as proc:
            for name, query in queries.items():
                expected = sim.execute(query)
                actual = proc.execute(query)
                assert actual.rows == expected.rows, name
                assert actual.columns == expected.columns, name

    def test_distinct_rows_identical(self):
        graph = random_graph(60, 150, seed=11)
        query = "SELECT DISTINCT b.idx FROM MATCH (a)-/:LINK{1,2}/->(b)"
        with connect(graph, num_machines=3) as sim, connect(
            graph, num_machines=3, backend="process"
        ) as proc:
            assert proc.execute(query).rows == sim.execute(query).rows

    def test_aggregate_order_by_identical(self, workload):
        graph, _ = workload
        query = (
            "SELECT p.country AS c, COUNT(*) AS n "
            "FROM MATCH (p:Person) GROUP BY p.country "
            "ORDER BY n DESC, c"
        )
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process"
        ) as proc:
            assert proc.execute(query).rows == sim.execute(query).rows

    def test_fewer_workers_than_machines_identical(self, workload):
        graph, queries = workload
        query = queries["Q09"]
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process", workers=2
        ) as proc:
            assert proc.execute(query).rows == sim.execute(query).rows


# ---------------------------------------------------------------------------
# Pool lifecycle: the graph goes by fork, nothing outlives close
# ---------------------------------------------------------------------------


class TestShmLifecycle:
    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs a /dev/shm to list"
    )
    def test_session_creates_no_segment(self):
        # The xs CSR is 91,568 B: above the 64 KB at which workers used to
        # take an exported shared-memory copy instead of the forked one.
        graph, info = mini_ldbc("xs")
        query = BENCHMARK_QUERIES["Q09"](info)
        with connect(graph, num_machines=4) as sim:
            expected = sim.execute(query).rows
        before = _segments()
        with connect(graph, num_machines=4, backend="process") as proc:
            assert proc.execute(query).rows == expected
            assert len(proc.backend.worker_pids) == 4
            assert _segments() == before

    def test_worker_crash_raises_and_close_unlinks(self, monkeypatch):
        import repro.runtime.backend as backend_mod

        def crash(*args, **kwargs):
            os._exit(1)

        graph = random_graph(80, 200, seed=5)
        session = connect(graph, num_machines=4, backend="process")
        try:
            # Fork inherits the patched module, so every worker dies on
            # entry; the coordinator must surface it as ExecutionError.
            monkeypatch.setattr(backend_mod, "_worker_main", crash)
            with pytest.raises(ExecutionError, match="worker"):
                session.execute(COUNT_Q)
        finally:
            session.close()
        assert session.backend.worker_pids == []
        assert multiprocessing.active_children() == []

    def test_worker_exception_propagates_with_traceback(self, monkeypatch):
        import repro.runtime.backend as backend_mod

        def explode(config):
            raise RuntimeError("injected worker failure")

        graph = random_graph(40, 80, seed=5)
        session = connect(graph, num_machines=2, backend="process")
        try:
            # Patched in the parent, inherited by forked workers: the real
            # _worker_main catches it and posts an error payload, which
            # the coordinator re-raises with the worker's traceback.
            monkeypatch.setattr(
                backend_mod, "sanitizer_from_config", explode
            )
            with pytest.raises(
                ExecutionError, match="injected worker failure"
            ):
                session.execute(COUNT_Q)
        finally:
            session.close()

    def test_backend_close_is_idempotent(self):
        graph = random_graph(80, 200, seed=5)
        session = connect(graph, num_machines=2, backend="process")
        session.execute(COUNT_Q)
        assert len(session.backend.worker_pids) == 2
        session.close()
        session.backend.close()  # second close is a no-op
        assert session.backend.worker_pids == []


# ---------------------------------------------------------------------------
# The persistent worker pool: generations, run isolation, per-run profiles
# ---------------------------------------------------------------------------


class TestWorkerPool:
    @pytest.fixture(scope="class")
    def workload(self):
        graph, info = mini_ldbc("xs", seed=7)
        queries = [build(info) for build in BENCHMARK_QUERIES.values()]
        with connect(graph, num_machines=4) as sim:
            expected = {q: sim.execute(q).rows for q in queries}
            tenth = "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b)"
            expected[tenth] = sim.execute(tenth).rows
        return graph, queries, tenth, expected

    def test_runs_are_isolated_and_workers_persist(self, workload):
        graph, queries, tenth, expected = workload
        rng = random.Random(3)
        with connect(graph, num_machines=4, backend="process") as proc:
            assert proc.backend.worker_pids == []  # the pool forks lazily
            pids = []
            for _ in range(3):
                order = list(queries)
                rng.shuffle(order)
                for query in order:
                    assert proc.execute(query).rows == expected[query]
                pids.append(proc.backend.worker_pids)
            assert len(pids[0]) == 4
            # Every plan was registered in the first pass: nothing forks.
            assert pids[1] == pids[0] and pids[2] == pids[0]

            # A never-seen plan costs exactly one new generation...
            assert proc.execute(tenth).rows == expected[tenth]
            fresh = proc.backend.worker_pids
            assert set(fresh).isdisjoint(pids[0])
            # ...which knows the nine older plans too.
            for query in queries + [tenth]:
                assert proc.execute(query).rows == expected[query]
            assert proc.backend.worker_pids == fresh

            # Re-partitioning is another dgraph: the pool follows it.
            two = proc.config.with_(num_machines=2)
            assert proc.execute(tenth, config=two).rows == expected[tenth]
            assert len(proc.backend.worker_pids) == 2
            assert set(proc.backend.worker_pids).isdisjoint(fresh)
        assert multiprocessing.active_children() == []

    def test_profile_is_per_run(self, workload):
        graph, queries, _tenth, _expected = workload
        query = queries[list(BENCHMARK_QUERIES).index("Q09")]
        with connect(
            graph, num_machines=4, backend="process", workers=2, profile=True
        ) as proc:
            for _ in range(4):
                result = proc.execute(query)
                profile = result.profile
                for phase in ("backend.spawn", "backend.coordinate",
                              "backend.merge"):
                    assert profile[phase]["calls"] == 1, phase
                for phase in ("worker.dft", "machine.flush", "index.probe"):
                    assert profile[phase]["calls"] > 0, phase
                # Two workers cannot have spent more than twice the run's
                # wall time in the DFT; phases summed over runs would.
                assert (
                    profile["worker.dft"]["total_s"]
                    <= 2 * result.stats.wall_seconds
                )


class TestRobustness:
    def test_killed_worker_raises_and_next_execute_recovers(
        self, monkeypatch, tmp_path
    ):
        import repro.runtime.backend as backend_mod

        real_run = backend_mod._run_query
        stall = tmp_path / "stall"

        def stalls_on_worker_1(worker_id, *args):
            if worker_id == 1 and stall.exists():
                time.sleep(60)  # mid-query for as long as the test needs
            return real_run(worker_id, *args)

        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=4) as sim:
            expected = sim.execute(COUNT_Q).rows
        with connect(graph, num_machines=4, backend="process") as session:
            # Inherited by the generation the first execute forks (before
            # this test starts a thread).
            monkeypatch.setattr(backend_mod, "_run_query", stalls_on_worker_1)
            assert session.execute(COUNT_Q).rows == expected
            victim = session.backend.worker_pids[1]
            stall.touch()
            killed_at = []

            def kill_worker_1():
                time.sleep(0.2)
                killed_at.append(time.perf_counter())
                os.kill(victim, signal.SIGKILL)

            killer = threading.Thread(target=kill_worker_1)
            killer.start()
            with pytest.raises(
                ExecutionError, match=r"worker 1 exited \(code -9\)"
            ):
                session.execute(COUNT_Q)
            assert time.perf_counter() - killed_at[0] < 1.0
            killer.join(timeout=5.0)
            assert not killer.is_alive()
            # The whole generation is gone, not only the dead worker.
            assert session.backend.worker_pids == []
            assert multiprocessing.active_children() == []

            stall.unlink()
            assert session.execute(COUNT_Q).rows == expected
            assert victim not in session.backend.worker_pids
            assert len(session.backend.worker_pids) == 4
        assert multiprocessing.active_children() == []

    def test_worker_dying_with_its_command_unread_is_a_lost_worker(
        self, monkeypatch
    ):
        # The pipe then reports a connection reset, not EOF.
        import repro.runtime.backend as backend_mod

        real_main = backend_mod._worker_main

        def worker_0_never_reads(worker_id, pipes, *args):
            if worker_id != 0:
                return real_main(worker_id, pipes, *args)
            for w, (coordinator_end, worker_end) in enumerate(pipes):
                coordinator_end.close()
                if w != 0:
                    worker_end.close()
            pipes[0][1].poll(5.0)  # the command is in the pipe now
            os._exit(3)

        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=4, backend="process") as session:
            monkeypatch.setattr(
                backend_mod, "_worker_main", worker_0_never_reads
            )
            with pytest.raises(
                ExecutionError, match=r"worker 0 exited \(code 3\)"
            ):
                session.execute(COUNT_Q)
            assert multiprocessing.active_children() == []

    def test_coordinator_interrupt_retires_the_generation(self, monkeypatch):
        import repro.runtime.backend as backend_mod

        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=4) as sim:
            expected = sim.execute(COUNT_Q).rows
        with connect(graph, num_machines=4, backend="process") as session:
            assert session.execute(COUNT_Q).rows == expected
            before = session.backend.worker_pids

            def interrupted(handles, timeout=None):
                raise KeyboardInterrupt

            # Only the coordinator sees the patch: the workers were forked
            # above and wait on their own copy of the module.
            monkeypatch.setattr(backend_mod, "wait", interrupted)
            with pytest.raises(KeyboardInterrupt):
                session.execute(COUNT_Q)
            assert session.backend.worker_pids == []
            assert multiprocessing.active_children() == []

            monkeypatch.undo()
            assert session.execute(COUNT_Q).rows == expected
            assert set(session.backend.worker_pids).isdisjoint(before)


class TestPoolLifecycle:
    def _session(self):
        session = connect(
            random_graph(80, 200, seed=5), num_machines=3, backend="process"
        )
        session.execute(COUNT_Q)
        assert len(session.backend.worker_pids) == 3
        return session

    def test_close_exit_and_second_close_leave_no_children(self):
        session = self._session()
        session.close()
        assert multiprocessing.active_children() == []
        session.close()
        session.backend.close()
        assert multiprocessing.active_children() == []
        with self._session():
            pass
        assert multiprocessing.active_children() == []

    def test_temporary_backend_of_a_config_override_is_retired(self):
        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=3) as session:
            override = session.config.with_(backend="process")
            expected = session.execute(COUNT_Q).rows
            assert session.execute(COUNT_Q, config=override).rows == expected
            assert multiprocessing.active_children() == []

    def test_workers_exit_when_the_command_channel_closes(self):
        # What a dropped session or a dead coordinator looks like from a
        # worker: EOF on its command pipe.  No signal is sent here.
        session = self._session()
        generation = session.backend._generation
        procs = list(generation.procs)
        for conn in generation.conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=5.0)
            assert not proc.is_alive()
            assert proc.exitcode == 0
        session.close()
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# The wire: tuple codec, coalesced blobs, run fencing
# ---------------------------------------------------------------------------


def _fields(message):
    """Every dataclass field but ``seq``, which the receiver re-draws."""
    values = dataclasses.asdict(message)
    del values["seq"]
    return values


class TestWire:
    MESSAGES = [
        Batch(
            src_machine=2, dst_machine=1, target_stage=3, depth=4,
            query_id=17, credit_key=(1, 3, ("ovf", 4)),
            contexts=[(5, [1, None, "Ann", 2.5]), (9, [None, None, "", 0.0])],
        ),
        Batch(src_machine=0, dst_machine=3, target_stage=1, depth=0,
              query_id=17, credit_key=(3, 1, "shared")),
        DoneMessage(src_machine=1, dst_machine=2, query_id=17,
                    credit_key=(1, 3, 0)),
        StatusMessage(src_machine=3, dst_machine=0, query_id=17),
        StatusMessage(
            src_machine=0, dst_machine=2, query_id=17, generation=6,
            sent={(0, 0): 12, (2, 3): 1}, processed={(0, 0): 11},
            max_depths={0: 3, 1: 0},
        ),
    ]

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_round_trip_is_field_for_field_equal(self, message):
        record = marshal.loads(marshal.dumps(to_wire(message)))
        rebuilt = from_wire(record)
        assert type(rebuilt) is type(message)
        assert _fields(rebuilt) == _fields(message)
        assert rebuilt.seq != message.seq  # drawn from the local counter

    def test_coalesced_blob_preserves_frame_order(self):
        blob = marshal.dumps([to_wire(m) for m in self.MESSAGES])
        rebuilt = [from_wire(record) for record in marshal.loads(blob)]
        assert [_fields(m) for m in rebuilt] == [
            _fields(m) for m in self.MESSAGES
        ]
        seqs = [m.seq for m in rebuilt]
        assert seqs == sorted(seqs)

    def test_unknown_record_kind_is_rejected(self):
        with pytest.raises(ValueError, match="kind 9"):
            from_wire((9, 17))
        with pytest.raises(TypeError):
            to_wire(object())

    def test_frames_of_another_run_are_dropped_at_the_fence(self):
        # Everything the worker loop delivers comes out of ``_fenced``.
        records = [to_wire(m) for m in self.MESSAGES]
        assert _fenced(records, 18) == []
        mixed = records[:2] + [to_wire(DoneMessage(
            src_machine=0, dst_machine=1, query_id=16, credit_key=(1, 0, 0),
        ))] + records[2:]
        assert [_fields(m) for m in _fenced(mixed, 17)] == [
            _fields(m) for m in self.MESSAGES
        ]


# ---------------------------------------------------------------------------
# Wall-clock speedup (needs real cores; the repo benchmark's
# ``runtime.backend.speedup_vs_sim`` reports it on any host)
# ---------------------------------------------------------------------------


class TestSatellites:
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="wall-clock speedup needs >= 4 physical cores",
    )
    def test_process_backend_speedup_on_multicore(self):
        graph, info = mini_ldbc("s", seed=7)
        query = BENCHMARK_QUERIES["Q09"](info)

        def best_of_3(backend):
            with connect(graph, num_machines=4, backend=backend) as session:
                session.execute(query)  # plan cache, worker generation
                walls = []
                for _ in range(3):
                    started = time.perf_counter()
                    session.execute(query)
                    walls.append(time.perf_counter() - started)
            return min(walls)

        assert best_of_3("sim") / best_of_3("process") >= 1.5
