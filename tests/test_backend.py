"""Tests for the execution-backend API (:mod:`repro.runtime.backend`).

The headline contract: the process backend and the simulator return
bit-identical result sets (the simulator is the verification oracle),
workers take the graph by fork alone (no shared-memory segment is ever
created), and no worker outlives ``close`` — not on a clean close, not on
a worker crash.
"""

import fcntl
import marshal
import multiprocessing
import os
import random
import signal
import sys
import threading
import time
from collections import Counter

import pytest

from repro import EngineConfig, connect
from repro.datagen import BENCHMARK_QUERIES, mini_ldbc
from repro.errors import ConfigError, ExecutionError
from repro.faults import FaultPlan
from repro.graph.generators import random_graph
from repro.runtime.backend import (
    _FRAME_HEADER,
    ProcessBackend,
    SimBackend,
    _PeerLinks,
    _WorkerChannel,
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
        # A trace= argument fails loudly; the round timeline is in the
        # run's stats, the simulator's to the last float.
        graph = random_graph(30, 60)
        with connect(graph, backend="process") as session:
            with pytest.raises(TypeError, match="trace"):
                session.execute(COUNT_Q, trace=True)
            stats = session.execute(COUNT_Q).stats
        with connect(graph) as sim:
            expected = sim.execute(COUNT_Q).stats
        assert stats.round_work == expected.round_work
        assert stats.render_timeline() == expected.render_timeline()

    def test_observe_rejected_at_execute(self):
        with connect(random_graph(30, 60), backend="process") as session:
            with pytest.raises(ConfigError, match="simulator-only"):
                session.execute(COUNT_Q, config=session.config.with_(observe=True))

    def test_submit_rejected(self):
        with connect(random_graph(30, 60), backend="process") as session:
            with pytest.raises(ConfigError, match="submit"):
                session.submit(COUNT_Q)


# ---------------------------------------------------------------------------
# Cross-backend equivalence: the simulator is the oracle
# ---------------------------------------------------------------------------


def run_fields(stats):
    """Everything a run's stats hold but wall time and the profile."""
    return {
        "rounds": stats.rounds,
        "quiescent_round": stats.quiescent_round,
        "partial": stats.partial,
        "timed_out": stats.timed_out,
        "round_work": stats.round_work,
        "machines": [vars(m) for m in stats.per_machine],
    }


#: The cyclic cases beside the nine paper queries: bounded from eight
#: sources, unbounded from two.
KNOWS_CASES = {
    "K1_4": "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,4}/->(b:Person) WHERE id(a) < 8",
    "Kplus": "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS+/->(b:Person) WHERE id(a) < 2",
}


class TestCrossBackendEquivalence:
    """The process backend runs the simulator's rounds: rows, rounds,
    ``quiescent_round``, the round timeline and every per-machine counter,
    floats included, are the simulator's."""

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
                assert run_fields(actual.stats) == run_fields(expected.stats), name

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 2},
            {"workers": 4, "net_delay_rounds": 0},
            {"workers": 2, "net_delay_rounds": 3},
            {"num_machines": 5, "workers": 3, "net_delay_rounds": 0},
            {"num_machines": 3, "workers": 2, "batch_size": 2,
             "buffers_per_machine": 12, "workers_per_machine": 2},
        ],
        ids=["w2", "w4-delay0", "w2-delay3", "m5-w3-delay0", "tight-flow"],
    )
    def test_run_stats_identical(self, workload, overrides):
        graph, queries = workload
        kwargs = {"num_machines": 4, **overrides}
        with connect(graph, **kwargs) as sim, connect(
            graph, backend="process", **kwargs
        ) as proc:
            for name, query in {**queries, **KNOWS_CASES}.items():
                expected = sim.execute(query)
                actual = proc.execute(query)
                assert actual.rows == expected.rows, name
                assert run_fields(actual.stats) == run_fields(expected.stats), name

    def test_deadline_and_round_cap_end_both_backends_alike(self, workload):
        graph, queries = workload
        query = queries["Q09"]
        ends = []
        for backend in ("sim", "process"):
            with connect(graph, num_machines=4, deadline=3, backend=backend) as session:
                result = session.execute(query)
            ends.append((result.rows, result.complete, result.timed_out,
                         run_fields(result.stats)))
        assert ends[0] == ends[1]
        assert ends[0][1:3] == (False, True) and ends[0][3]["rounds"] == 4
        errors, pids = [], []
        for backend in ("sim", "process"):
            with connect(graph, num_machines=4, max_rounds=3, backend=backend) as session:
                for _ in range(2):
                    with pytest.raises(ExecutionError, match="exceeded max_rounds=3") as raised:
                        session.execute(query)
                    errors.append(str(raised.value))
                    pids.append(getattr(session.backend, "worker_pids", None))
        assert len(set(errors)) == 1
        # The round cap ends a run at a barrier too: the pool serves the next.
        assert pids[2] == pids[3] and len(pids[2]) == 4

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

    def test_a_connection_error_inside_a_run_is_a_worker_failure(self, monkeypatch):
        """Only the command pipe's own EOF or broken pipe ends a worker
        quietly: a ConnectionError raised by the run itself reaches the
        coordinator with its traceback, not as an exit with code 0."""
        from repro.runtime.machine import Machine

        run_slice = Machine.run_slice
        raised = []

        def resets_once(self, *args, **kwargs):
            if not raised:
                raised.append(True)
                raise ConnectionResetError("injected reset inside run_slice")
            return run_slice(self, *args, **kwargs)

        graph = random_graph(40, 80, seed=5)
        session = connect(graph, num_machines=2, backend="process")
        try:
            # Patched before the pool forks: every worker inherits it.
            monkeypatch.setattr(Machine, "run_slice", resets_once)
            with pytest.raises(ExecutionError) as excinfo:
                session.execute(COUNT_Q)
        finally:
            session.close()
        message = str(excinfo.value)
        assert "failed:" in message and "Traceback" in message
        assert "ConnectionResetError: injected reset inside run_slice" in message
        assert "before posting its result" not in message

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
        # Q09 walks the reply forest: pin the paper's index so it is probed.
        with connect(
            graph, num_machines=4, backend="process", workers=2, profile=True,
            use_reachability_index=True,
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

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="F_SETPIPE_SZ is Linux's"
    )
    def test_peer_death_with_bytes_pending_is_reported_as_peer_death(
        self, monkeypatch, tmp_path
    ):
        import repro.runtime.backend as backend_mod

        real_main = backend_mod._worker_main
        real_run = backend_mod._run_query
        real_wait = backend_mod.wait
        stall = tmp_path / "stall"
        pending = tmp_path / "pending"

        def main_with_a_one_page_pipe_to_worker_1(worker_id, pipes, links, *args):
            if worker_id == 0:
                # One page instead of 64 KB: worker 0's round-1 blob to
                # worker 1 (about 6 KB on this graph) overfills it.
                fcntl.fcntl(links[0, 1][1], getattr(fcntl, "F_SETPIPE_SZ", 1031), 4096)
            return real_main(worker_id, pipes, links, *args)

        def stalls_on_worker_1(worker_id, *args):
            if worker_id == 1 and stall.exists():
                time.sleep(60)
            return real_run(worker_id, *args)

        class MarksPendingBytes(_PeerLinks):
            def push(self, blobs):
                super().push(blobs)
                # Worker 0 is the one with no outbox to worker 0.
                if 0 not in self._outboxes and self._outboxes.get(1, (0, b""))[1]:
                    pending.touch()

        graph = random_graph(400, 2000, seed=5)
        with connect(graph, num_machines=4) as sim:
            expected = sim.execute(COUNT_Q).rows
        with connect(graph, num_machines=4, backend="process") as session:
            monkeypatch.setattr(
                backend_mod, "_worker_main", main_with_a_one_page_pipe_to_worker_1
            )
            monkeypatch.setattr(backend_mod, "_run_query", stalls_on_worker_1)
            monkeypatch.setattr(backend_mod, "_PeerLinks", MarksPendingBytes)
            assert session.execute(COUNT_Q).rows == expected
            pending.unlink(missing_ok=True)
            victim = session.backend.worker_pids[1]
            victim_sentinel = session.backend._generation.procs[1].sentinel

            def slow_to_see_the_death(handles, timeout=None):
                # Give worker 0 time to hit EPIPE and, if it raised, to post
                # its traceback: both notices are then ready together, and
                # the coordinator reads pipes before sentinels.
                ready = real_wait(handles, timeout)
                if victim_sentinel in ready:
                    time.sleep(0.3)
                    ready = real_wait(handles, 0)
                return ready

            # The workers were forked above: only the coordinator sees this.
            monkeypatch.setattr(backend_mod, "wait", slow_to_see_the_death)
            stall.touch()
            killed_at = []

            def kill_worker_1_once_worker_0_has_bytes_pending():
                deadline = time.perf_counter() + 10.0
                while not pending.exists() and time.perf_counter() < deadline:
                    time.sleep(0.01)
                killed_at.append(time.perf_counter())
                os.kill(victim, signal.SIGKILL)

            killer = threading.Thread(
                target=kill_worker_1_once_worker_0_has_bytes_pending
            )
            killer.start()
            with pytest.raises(ExecutionError) as raised:
                session.execute(COUNT_Q)
            killer.join(timeout=15.0)
            assert not killer.is_alive()
            assert pending.exists(), "worker 0 never had bytes pending"
            assert "worker 1 exited (code -9)" in str(raised.value)
            assert "BrokenPipeError" not in str(raised.value)
            # The 1 s any lost worker gets, plus the 0.3 s added above.
            assert time.perf_counter() - killed_at[0] < 1.0 + 0.3
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


def _open_fds(pid="self"):
    return os.listdir(f"/proc/{pid}/fd")


def _pipes_and_sockets(pid):
    """The pipe and socket inodes a process holds, as ``/proc`` names them."""
    links = set()
    for fd in _open_fds(pid):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except FileNotFoundError:
            continue  # closed while listed (the listing's own descriptor)
        if target.startswith(("pipe:", "socket:")):
            links.add(target)
    return links


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/<pid>/fd"
)
class TestDescriptors:
    def test_coordinator_holds_no_peer_pipe_across_reforks_or_after_close(self):
        graph = random_graph(80, 200, seed=5)
        before = len(_open_fds())
        with connect(graph, num_machines=3, backend="process") as session:
            session.execute(COUNT_Q)
            counts, pids = [len(_open_fds())], [session.backend.worker_pids]
            for hops in (2, 4, 5):  # three plans never seen: three re-forks
                session.execute(f"SELECT COUNT(*) FROM MATCH (a)-/:LINK{{1,{hops}}}/->(b)")
                counts.append(len(_open_fds()))
                pids.append(session.backend.worker_pids)
            assert len({tuple(p) for p in pids}) == 4
            assert counts == [counts[0]] * 4
        assert len(_open_fds()) == before

    def test_a_worker_holds_its_peer_ends_and_its_command_pipe_only(self):
        workers = 3
        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=workers, backend="process") as session:
            session.execute(COUNT_Q)  # every worker has finished its start-up
            coordinator = _pipes_and_sockets("self")
            private = {
                pid: _pipes_and_sockets(pid) - coordinator
                for pid in session.backend.worker_pids
            }
        for held in private.values():
            pipes = {name for name in held if name.startswith("pipe:")}
            assert len(pipes) == 2 * (workers - 1)
            assert len(held - pipes) == 1  # its end of the command pipe
        # Each peer pipe joins exactly one writer and one reader.
        joined = Counter(name for held in private.values() for name in held)
        assert {n for name, n in joined.items() if name.startswith("pipe:")} == {2}


# ---------------------------------------------------------------------------
# Peer pipes: framing over real non-blocking pipes
# ---------------------------------------------------------------------------


@pytest.fixture
def linked():
    """Workers 0 and 1 of a two-worker pool, in this process."""
    to_1, to_0 = os.pipe(), os.pipe()
    ends = (
        _PeerLinks({1: to_1[1]}, [to_0[0]]),
        _PeerLinks({0: to_0[1]}, [to_1[0]]),
    )
    yield ends, to_1
    for fd in (*to_1, *to_0):
        os.close(fd)


def _records(count, run_id=17, width=1000):
    return [to_wire(Batch(
        src_machine=0, dst_machine=1, target_stage=1, depth=0, query_id=run_id,
        credit_key=(0, 1, 0), contexts=[(i, ["x" * width])],
    )) for i in range(count)]


class TestPeerPipes:
    def test_a_frame_larger_than_the_pipe_arrives_whole(self, linked):
        (zero, one), _ = linked
        records = _records(1000)  # about 1 MB: sixteen pipe-fulls
        zero.push([(1, marshal.dumps(records))])
        received, writes = [], 1
        while zero._outboxes[1][1]:
            received += one.receive()
            zero.push([])
            writes += 1
        received += one.receive()
        assert writes > 2
        assert received == [records]

    @pytest.mark.parametrize("cut", [2, _FRAME_HEADER.size + 10])
    def test_half_a_frame_is_completed_by_the_next_read(self, linked, cut):
        (_, one), (_, write_end) = linked
        records = _records(3)
        blob = marshal.dumps(records)
        frame = _FRAME_HEADER.pack(len(blob)) + blob
        os.write(write_end, frame[:cut])
        assert one.receive() == []
        os.write(write_end, frame[cut:] + frame)
        assert one.receive() == [records, records]

    def test_both_ends_sending_a_megabyte_at_once_both_finish(self, linked):
        ends, _ = linked
        blob = marshal.dumps(_records(64, width=1024))  # 64 KB and a little
        sent = 20  # frames each way: over 1 MB, far above both pipes' room
        done = {}

        def exchange(me, peer):
            end, received = ends[me], []
            end.push([(peer, blob)] * sent)
            deadline = time.perf_counter() + 20.0
            while time.perf_counter() < deadline:
                received += end.receive()
                end.push([])
                if len(received) == sent and not end._outboxes[peer][1]:
                    done[me] = received
                    return
                end.wait(0.01)

        # Daemons: a blocking write would hang them, not the test run.
        threads = [threading.Thread(target=exchange, args=pair, daemon=True)
                   for pair in ((0, 1), (1, 0))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert sorted(done) == [0, 1]
        assert all(received == [marshal.loads(blob)] * sent
                   for received in done.values())

    def test_a_gone_peer_is_dropped_without_raising(self):
        to_1, to_0 = os.pipe(), os.pipe()
        zero = _PeerLinks({1: to_1[1]}, [to_0[0]])
        os.close(to_1[0])  # worker 1 is gone: its read end first...
        zero.push([(1, marshal.dumps(_records(2)))])  # ...so this is EPIPE
        zero.push([(1, b"dropped")])
        os.close(to_0[1])  # ...then its write end: worker 0 reads EOF
        assert zero.receive() == []
        assert zero._outboxes == {} and zero._buffers == {}
        for fd in (to_1[1], to_0[0]):  # worker 0 closed its ends of both
            with pytest.raises(OSError):
                os.fstat(fd)


# ---------------------------------------------------------------------------
# A worker's channel: one blob per peer per round, headers, due rounds
# ---------------------------------------------------------------------------


def _blob(run, round_no, sender, records=()):
    """A peer's blob: header, summary (worked, nothing more), frames."""
    return (run, round_no, sender, False, True, False, list(records))


class TestWorkerChannel:
    def test_a_blob_of_another_run_or_out_of_round_order_raises(self):
        channel = _WorkerChannel(17, 0, 3, EngineConfig())
        with pytest.raises(
            ExecutionError,
            match="run 17 round 1 from worker 1, which sent run 16 round 1",
        ):
            channel.absorb(_blob(16, 1, 1))
        channel.absorb(_blob(17, 1, 1))
        with pytest.raises(ExecutionError, match="round 2 from worker 1, which sent run 17 round 3"):
            channel.absorb(_blob(17, 3, 1))
        with pytest.raises(ExecutionError, match="round 1 from worker 2, which sent run 17 round 2"):
            channel.absorb(_blob(17, 2, 2))

    def test_a_round_ends_in_one_blob_per_peer_even_an_empty_one(self):
        channel = _WorkerChannel(17, 0, 3, EngineConfig(num_machines=6))
        done = DoneMessage(src_machine=0, dst_machine=4, query_id=1, credit_key=(0, 1, 0))
        channel.send(done, 1)  # machine 4 is worker 1's
        channel.send(DoneMessage(src_machine=0, dst_machine=3, query_id=1), 1)  # ours
        blobs = dict(channel.blobs(1, (False, True, False)))
        assert sorted(blobs) == [1, 2]
        assert marshal.loads(blobs[1]) == (17, 1, 0, False, True, False, [to_wire(done)])
        assert marshal.loads(blobs[2]) == (17, 1, 0, False, True, False, [])
        assert channel.data_round == 1
        assert [m.dst_machine for m in channel.due(2)] == [3]

    @pytest.mark.parametrize("delay", [0, 1, 3])
    def test_frames_are_due_a_delay_later_and_an_early_blob_waits(self, delay):
        channel = _WorkerChannel(17, 0, 3, EngineConfig(net_delay_rounds=delay))
        channel.absorb(_blob(17, 1, 2, _records(2)))
        # Worker 1 ran ahead: its round-2 blob comes before worker 2's.
        channel.absorb(_blob(17, 1, 1, _records(1)))
        channel.absorb(_blob(17, 2, 1, _records(3)))
        assert [len(channel.heard[r]) for r in (1, 2)] == [2, 1]
        lag = max(delay, 1)  # no delay still drains a round later
        assert all(list(channel.due(r)) == [] for r in range(1, lag + 1))
        # By sending worker, whatever arrived first.
        assert [m.contexts[0][0] for m in channel.due(1 + lag)] == [0, 0, 1]
        assert len(list(channel.due(2 + lag))) == 3


# ---------------------------------------------------------------------------
# The wire: tuple codec, coalesced blobs
# ---------------------------------------------------------------------------


class TestWire:
    MESSAGES = [
        Batch(
            src_machine=2, dst_machine=1, target_stage=3, depth=4,
            query_id=17, credit_key=(1, 3, ("ovf", 4)),
            contexts=[(5, [1, None, "Ann", 2.5]), (9, [None, None, "", 0.0])],
            seq=(9 << 32) + 3,
        ),
        Batch(src_machine=0, dst_machine=3, target_stage=1, depth=0,
              query_id=17, credit_key=(3, 1, "shared"), seq=1),
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
        assert rebuilt == message  # a batch's seq included: it orders the inbox

    def test_coalesced_blob_preserves_frame_order(self):
        blob = marshal.dumps([to_wire(m) for m in self.MESSAGES])
        rebuilt = [from_wire(record) for record in marshal.loads(blob)]
        assert rebuilt == self.MESSAGES

    def test_unknown_record_kind_is_rejected(self):
        with pytest.raises(ValueError, match="kind 9"):
            from_wire((9, 17))
        with pytest.raises(TypeError):
            to_wire(object())


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
