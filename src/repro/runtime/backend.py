"""Execution backends: one interface, a simulator and a process runtime.

:class:`~repro.session.Session` no longer constructs the discrete-time
scheduler directly; it dispatches through an :class:`ExecutionBackend`:

* :class:`SimBackend` — the deterministic discrete-time simulator: one
  :class:`~repro.runtime.multi.ClusterScheduler` round loop, private to
  the call for ``run`` and shared by the session for ``submit``.  It is
  the verification oracle: virtual rounds, faults, recovery, membership,
  tracing, and the race detector all live here.
* :class:`ProcessBackend` — real parallelism.  Each partition's
  :class:`~repro.runtime.machine.Machine` loop runs in a forked OS
  process; ``Batch``/``Done``/``Status`` frames are pickled onto
  ``multiprocessing.Queue`` channels between workers; the CSR adjacency
  is placed in ``multiprocessing.shared_memory`` and attached read-only
  per worker (:mod:`repro.graph.shm`); this coordinator process owns
  admission, termination, and result assembly.

Topology: ``workers`` processes (default ``num_machines``) each host the
machines ``m`` with ``m % workers == worker_id``.  One inbound queue per
worker carries data/control frames from peers plus the coordinator's
stop sentinel; one shared result queue carries conclusion notices and
final per-machine payloads back.

Termination: each machine runs the paper's double-confirmation protocol
(Section 3.4) exactly as under the simulator — STATUS snapshots are
broadcast every ``status_interval`` loop iterations.  A machine may only
conclude after confirming, twice, with strictly newer information, that
global sent == processed on every channel; that property is
schedule-independent, so the *first* conclusion anywhere proves all
data-plane work is globally done and every sink is complete.  The
coordinator then broadcasts the stop sentinel; in-flight frames past
that point can only be credit returns or stale STATUS traffic.

Message ordering: receive-priority seq tiebreakers are process-local.
Frames are re-stamped from the receiving process's own counter at the
channel boundary (raw sender seqs never order a remote inbox — see the
note in :mod:`repro.runtime.message`), which keeps every inbox heap
totally ordered.  Arrival interleaving still varies run to run, so the
backend relies on the engine's schedule-invariant result assembly (the
property the race detector and the RPQ102 static rule certify) — the
cross-backend oracle in ``tests/test_backend.py`` holds result sets
bit-identical to the simulator's.

The feature matrix (what each backend supports) is documented in
``docs/backends.md`` and enforced by :class:`~repro.config.EngineConfig`
validation plus the explicit checks here — simulator-only options raise
:class:`~repro.errors.ConfigError` instead of being silently ignored.
"""

import multiprocessing
import time
import traceback
from queue import Empty

from ..analysis.sanitizer import sanitizer_from_config
from ..engine.result import MachineSink
from ..errors import ConfigError, ExecutionError
from ..graph.shm import SharedGraphStore, csr_nbytes, install_shared_csrs
from .machine import Machine
from .message import _seq
from .multi import ClusterScheduler
from .stats import RunStats

#: Coordinator's stop sentinel on worker inboxes (a plain string cannot be
#: confused with a message dataclass after pickling).
_STOP = "__repro_stop__"
#: Hard ceiling on one process-backend run; a healthy run signals long
#: before this, so hitting it means workers live-locked or lost frames.
_RUN_TIMEOUT_S = 600.0
#: Idle worker block on the inbox (seconds) before re-polling; long
#: enough not to spin a core, short enough to keep STATUS cadence tight.
_IDLE_WAIT_S = 0.002


class ExecutionBackend:
    """The execution substrate behind :class:`~repro.session.Session`.

    ``run`` executes one query with exclusive cluster ownership and
    fills the caller's per-machine sinks; ``open_cluster`` returns the
    shared multi-query scheduler for ``Session.submit``; ``close``
    releases any resources the backend holds across runs (worker
    processes, shared-memory segments).
    """

    name = "abstract"

    def run(self, dgraph, plan, config, sinks, trace=None, recorder=None,
            prof=None):
        """Execute ``plan`` and fill ``sinks``.

        Returns ``(stats, partial, timed_out)`` where ``stats`` is a
        :class:`~repro.runtime.stats.RunStats`; raises the query's own
        error.  A caller-supplied ``prof`` is the profiler used.
        """
        raise NotImplementedError

    def open_cluster(self, dgraph, config):
        """The shared scheduler behind ``Session.submit``."""
        raise NotImplementedError

    def close(self):
        """Release cross-run resources (idempotent)."""

    def __repr__(self):
        return f"{type(self).__name__}()"


class SimBackend(ExecutionBackend):
    """The deterministic discrete-time simulator (the verification oracle)."""

    name = "sim"

    def run(self, dgraph, plan, config, sinks, trace=None, recorder=None,
            prof=None):
        # Exclusive ownership is a private one-task cluster: the same
        # round loop ``submit`` shares, with nobody else admitted.
        cluster = ClusterScheduler(dgraph, config, prof=prof, obs=recorder)
        task = cluster.submit(
            plan, lambda m: sinks[m], obs=recorder, trace=trace
        )
        cluster.run()
        if task.error is not None:
            raise task.error
        return task.stats, task.partial, task.timed_out

    def open_cluster(self, dgraph, config):
        return ClusterScheduler(dgraph, config)


def backend_from_config(config):
    """The backend instance ``config.backend`` names."""
    if config.backend == "process":
        return ProcessBackend()
    return SimBackend()


class _ProcessNetwork:
    """Send-side channel fabric inside one worker process.

    :class:`~repro.runtime.machine.Machine` talks to the network only
    through ``send`` (delivery is push-based via ``Machine.deliver``),
    so this is the whole surface.  Frames for machines hosted by this
    worker short-circuit through a local pending list; remote frames are
    pickled onto the owning worker's inbox queue.
    """

    def __init__(self, worker_id, num_workers, inboxes):
        self._worker_id = worker_id
        self._num_workers = num_workers
        self._inboxes = inboxes
        self._local_pending = []

    def send(self, message, now_round):
        owner = message.dst_machine % self._num_workers
        if owner == self._worker_id:
            self._local_pending.append(message)
        else:
            self._inboxes[owner].put(message)

    def take_local(self):
        """Drain frames addressed to this worker's own machines."""
        pending = self._local_pending
        self._local_pending = []
        return pending


def _worker_main(worker_id, num_workers, dgraph, plan, config, shm_spec,
                 inboxes, results):
    """One worker process: host machines ``m % num_workers == worker_id``.

    Runs under the fork start method — ``dgraph``/``plan``/``config``
    are inherited, never pickled.  Exits when the coordinator's stop
    sentinel arrives, posting each hosted machine's sink payload and
    counters on the result queue.
    """
    try:
        if shm_spec is not None:
            install_shared_csrs(dgraph.graph, shm_spec)
        prof = None
        if config.profile:
            from ..obs.prof import PhaseProfiler

            prof = PhaseProfiler()
        sanitizer = sanitizer_from_config(config)
        network = _ProcessNetwork(worker_id, num_workers, inboxes)
        inbox = inboxes[worker_id]
        sinks = {}
        machines = []
        for m in range(worker_id, config.num_machines, num_workers):
            sinks[m] = MachineSink(plan)
            machines.append(
                Machine(m, dgraph, plan, config, network, sinks[m],
                        sanitizer=sanitizer, prof=prof)
            )
        local = {machine.id: machine for machine in machines}

        loop_no = 0
        reported = False
        running = True
        while running:
            frames = network.take_local()
            while True:
                try:
                    frames.append(inbox.get_nowait())
                except Empty:
                    break
            delivered = 0
            for frame in frames:
                if frame == _STOP:
                    running = False
                    continue
                # Re-stamp the receive-priority tiebreaker from this
                # process's counter: sender seqs are only unique per
                # process, and a tie would make the inbox heap compare
                # unorderable Batch objects.
                frame.seq = next(_seq)
                local[frame.dst_machine].deliver([frame])
                delivered += 1
            if not running:
                break
            worked = 0.0
            for machine in machines:
                consumed = machine.run_slice(loop_no, config.quantum)
                machine.account_round(consumed)
                worked += consumed
            loop_no += 1
            if loop_no % config.status_interval == 0:
                for machine in machines:
                    machine.broadcast_status(loop_no)
                for machine in machines:
                    if not machine.protocol.concluded:
                        machine.check_termination()
                if not reported and any(
                    machine.protocol.concluded for machine in machines
                ):
                    reported = True
                    results.put(("concluded", worker_id))
            if worked == 0.0 and delivered == 0:
                # Fully idle: block briefly on the inbox instead of
                # spinning; whatever arrives is handled next iteration.
                try:
                    frame = inbox.get(timeout=_IDLE_WAIT_S)
                except Empty:
                    continue  # poll timeout: re-check local work and inbox
                network._local_pending.append(frame)

        for machine in machines:
            machine.finalize_stats()
        payload = {
            "machines": {
                m: {
                    "rows": sinks[m].rows,
                    "groups": sinks[m].groups,
                    "stats": local[m].stats,
                }
                for m in sorted(local)
            },
            "iterations": loop_no,
            "profile": None if prof is None else prof.summary(),
        }
        results.put(("result", worker_id, payload))
    except BaseException:
        # Worker boundary: ship the traceback across the process gap so
        # the coordinator can re-raise it as ExecutionError, then crash
        # this worker loudly too.
        results.put(("error", worker_id, traceback.format_exc()))
        raise


class ProcessBackend(ExecutionBackend):
    """Real-parallel execution: one forked OS process per worker.

    The backend caches the shared-memory CSR export across runs on the
    same graph (benchmarks re-run queries back to back); ``close`` — or
    the owning Session's context-manager exit — unlinks it.  Worker
    processes are per-run: spawned after the sinks are known, joined or
    terminated before ``run`` returns, so a crash can never leak
    children past the call.
    """

    name = "process"

    def __init__(self):
        self._store = None
        self._store_graph = None  # graph the cached export belongs to

    # -- shared-memory lifecycle ---------------------------------------
    def _shm_spec(self, graph, config):
        """The cached CSR export's attach spec, or ``None`` below threshold."""
        if self._store is not None and self._store_graph is not graph:
            self._release_store()
        if self._store is None:
            if csr_nbytes(graph) < config.shm_threshold_bytes:
                # Small adjacency: fork inheritance is cheaper than an
                # export+attach round trip.
                return None
            self._store = SharedGraphStore.export(graph)
            self._store_graph = graph
        return self._store.spec()

    def _release_store(self):
        if self._store is not None:
            self._store.close()
            self._store = None
            self._store_graph = None

    @property
    def shm_segments(self):
        """Live shared-memory segment names (leak-check surface for tests)."""
        return [] if self._store is None else self._store.segment_names

    def close(self):
        self._release_store()

    # -- execution ------------------------------------------------------
    def open_cluster(self, dgraph, config):
        raise ConfigError(
            "backend='process' does not support concurrent submit() yet: "
            "the shared multi-query scheduler is simulator-only for now — "
            "use backend='sim' for Session.submit, or Session.execute for "
            "solo process-parallel runs"
        )

    def run(self, dgraph, plan, config, sinks, trace=None, recorder=None,
            prof=None):
        if trace is not None:
            raise ConfigError(
                "trace=True is simulator-only: the per-round activity "
                "timeline is defined on the virtual clock, which "
                "backend='process' does not have — run backend='sim'"
            )
        if recorder is not None:
            raise ConfigError(
                "observe is simulator-only for now: the span recorder "
                "timestamps on the virtual clock, which backend='process' "
                "does not have — run backend='sim' (wall-clock profiling "
                "via profile=True is supported on both backends)"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutionError(
                "backend='process' requires the fork start method "
                "(workers inherit the graph and plan); this platform "
                "offers none — run backend='sim'"
            )
        # repro: allow[RPQ103] wall-clock reporting only; never feeds protocol state
        started = time.perf_counter()
        num_workers = config.workers or config.num_machines
        num_workers = min(num_workers, config.num_machines)
        if prof is not None:
            prof.enter("backend.spawn")
        shm_spec = self._shm_spec(dgraph.graph, config)
        ctx = multiprocessing.get_context("fork")
        inboxes = [
            ctx.Queue(config.channel_capacity) for _ in range(num_workers)
        ]
        results = ctx.Queue()
        procs = []
        try:
            for w in range(num_workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(w, num_workers, dgraph, plan, config, shm_spec,
                          inboxes, results),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            if prof is not None:
                prof.exit()
                prof.enter("backend.coordinate")
            payloads = self._coordinate(procs, inboxes, results, started)
        except BaseException:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            raise
        finally:
            for proc in procs:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            for chan in inboxes:
                chan.close()
            results.close()
            if prof is not None:
                prof.unwind()
        if prof is not None:
            prof.enter("backend.merge")
        machine_stats, iterations, profile = self._merge(
            payloads, sinks, config, prof
        )
        if prof is not None:
            prof.exit()
            profile = _merged_profile([profile, prof.summary()])
        # repro: allow[RPQ103] wall-clock reporting only; never feeds protocol state
        wall = time.perf_counter() - started
        stats = RunStats(
            machine_stats, iterations, wall, config, profile=profile,
        )
        return stats, False, False

    def _coordinate(self, procs, inboxes, results, started):
        """Drive one run: stop on first conclusion, collect all payloads."""
        payloads = {}
        stopped = False
        while len(payloads) < len(procs):
            try:
                msg = results.get(timeout=0.05)
            except Empty:
                for w, proc in enumerate(procs):
                    if w not in payloads and not proc.is_alive():
                        raise ExecutionError(
                            f"process backend worker {w} exited (code "
                            f"{proc.exitcode}) before posting its result"
                        )
                # repro: allow[RPQ103] wall-clock watchdog only; never feeds protocol state
                if time.perf_counter() - started > _RUN_TIMEOUT_S:
                    raise ExecutionError(
                        "process backend run exceeded "
                        f"{_RUN_TIMEOUT_S:.0f}s without concluding"
                    )
                continue
            kind = msg[0]
            if kind == "concluded":
                # Double-confirmation makes any machine's conclusion a
                # proof that global sent == processed: all sinks are
                # complete, so stop every worker.
                if not stopped:
                    stopped = True
                    for chan in inboxes:
                        chan.put(_STOP)
            elif kind == "error":
                raise ExecutionError(
                    f"process backend worker {msg[1]} failed:\n{msg[2]}"
                )
            else:  # ("result", worker_id, payload)
                payloads[msg[1]] = msg[2]
        return payloads

    def _merge(self, payloads, sinks, config, prof):
        """Fold worker payloads into the caller's sinks and stats."""
        machine_stats = [None] * config.num_machines
        iterations = 0
        profiles = []
        for w in sorted(payloads):
            payload = payloads[w]
            iterations = max(iterations, payload["iterations"])
            if payload["profile"]:
                profiles.append(payload["profile"])
            for m in sorted(payload["machines"]):
                data = payload["machines"][m]
                sinks[m].rows[:] = data["rows"]
                sinks[m].groups.clear()
                sinks[m].groups.update(data["groups"])
                machine_stats[m] = data["stats"]
        missing = [m for m, s in enumerate(machine_stats) if s is None]
        if missing:
            raise ExecutionError(
                f"process backend lost machines {missing}: no worker "
                "posted their payloads"
            )
        return machine_stats, iterations, _merged_profile(profiles)


def _merged_profile(profiles):
    from ..obs.prof import merge_summaries

    merged = merge_summaries([p for p in profiles if p])
    return merged or None
