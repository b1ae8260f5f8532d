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
  process that outlives the query; every worker inherits the graph,
  CSR adjacency included, at fork and never copies it again; this
  coordinator process owns admission, termination, and result assembly.

Topology: ``workers`` processes (default ``num_machines``) each host the
machines ``m`` with ``m % workers == worker_id``.  Every worker has one
duplex pipe to the coordinator (commands down, notices and the final
payload up) and one inbound ``multiprocessing.Queue`` that only its peers
write to.

Generations: plans are closures and cannot be pickled, so a worker knows
a plan because it was forked after the backend registered it.  The
backend keeps a bounded registry of plans and one live *generation* of
workers forked with that registry, the ``dgraph`` and the ``config``
inherited.  A run whose plan the generation holds is the two integers
``(run id, plan id)`` on each command pipe; a first-sight plan, another
``dgraph`` object, an unequal config or worker count retires the
generation and forks the next one.  A generation whose run did not end
cleanly is never reused.

Run fencing: channels outlive a run, so each run's machines are built
with ``query_id = run id``; the id rides every frame, and a received
frame that carries another run's id (a late credit return, a stale
STATUS) is dropped before it can reach ``Machine.deliver``.

Frames: a machine's remote sends are collected per destination worker
and leave once per loop iteration as one ``marshal`` blob of plain
tuples (:func:`repro.runtime.message.to_wire`); the receiver rebuilds
the dataclasses, which also draws their receive-priority ``seq`` from
its own counter (raw sender seqs never order a remote inbox — see the
note in :mod:`repro.runtime.message`), so every inbox heap stays
totally ordered.

Termination: each machine runs the paper's double-confirmation protocol
(Section 3.4) exactly as under the simulator, but a loop iteration is
not a unit of time on real processes, so STATUS is not sent on an
iteration count.  A worker broadcasts when it goes idle and has
something to say: its counters moved since its last broadcast, or it
holds a confirmation candidate and has heard from a peer since.  A
machine may only conclude after confirming, twice, with strictly newer
information, that global sent == processed on every channel; that
property is schedule-independent, so any cadence is safe and the
*first* conclusion anywhere proves all data-plane work is globally done
and every sink is complete.  The coordinator then tells every worker to
stop the run.

Arrival interleaving varies run to run, so the backend relies on the
engine's schedule-invariant result assembly (the property the race
detector holds) — the cross-backend oracle in ``tests/test_backend.py``
and the hash-seed differential in ``tests/test_hash_seed.py`` hold result
sets bit-identical to the simulator's.

The feature matrix (what each backend supports) is documented in
``docs/backends.md`` and enforced by :class:`~repro.config.EngineConfig`
validation plus the explicit checks here — simulator-only options raise
:class:`~repro.errors.ConfigError` instead of being silently ignored.
"""

import itertools
import marshal
import multiprocessing
import time
import traceback
from collections import OrderedDict
from multiprocessing.connection import wait
from queue import Empty

from ..analysis.sanitizer import sanitizer_from_config
from ..engine.result import MachineSink
from ..errors import ConfigError, ExecutionError
from .machine import Machine
from .message import WIRE_QUERY_ID, StatusMessage, from_wire, to_wire
from .multi import ClusterScheduler
from .stats import RunStats

#: Hard ceiling on one process-backend run; a healthy run signals long
#: before this, so hitting it means workers live-locked or lost frames.
_RUN_TIMEOUT_S = 600.0
#: Idle worker block on its inbox and command pipe (seconds) before it
#: looks at its machines again.
_IDLE_WAIT_S = 0.002
#: Plans the backend keeps registered (least recently run evicted first),
#: so a stream of one-off plans does not pin every plan for ever.
_MAX_PLANS = 64


class ExecutionBackend:
    """The execution substrate behind :class:`~repro.session.Session`.

    ``run`` executes one query with exclusive cluster ownership and
    fills the caller's per-machine sinks; ``open_cluster`` returns the
    shared multi-query scheduler for ``Session.submit``; ``close``
    releases any resources the backend holds across runs (worker
    processes).
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


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _ProcessNetwork:
    """Send-side channel fabric inside one worker process, for one run.

    :class:`~repro.runtime.machine.Machine` talks to the network only
    through ``send`` (delivery is push-based via ``Machine.deliver``).
    Frames for machines hosted by this worker short-circuit through a
    local pending list; remote frames are kept as wire records per
    owning worker until the loop's once-per-iteration :meth:`flush`.
    """

    def __init__(self, worker_id, num_workers, inboxes):
        self._worker_id = worker_id
        self._num_workers = num_workers
        self._inboxes = inboxes
        self._local_pending = []
        self._outgoing = [[] for _ in range(num_workers)]

    def send(self, message, now_round):
        owner = message.dst_machine % self._num_workers
        if owner == self._worker_id:
            self._local_pending.append(message)
        else:
            self._outgoing[owner].append(to_wire(message))

    def take_local(self):
        """Drain frames addressed to this worker's own machines."""
        pending = self._local_pending
        self._local_pending = []
        return pending

    @property
    def has_local(self):
        return bool(self._local_pending)

    def flush(self):
        """One blob per destination worker that has records waiting."""
        for owner, records in enumerate(self._outgoing):
            if records:
                self._inboxes[owner].put(marshal.dumps(records))
                self._outgoing[owner] = []


def _fenced(records, run_id):
    """The frames of one received blob that belong to run ``run_id``.

    The run fence: a record stamped with another run's id is dropped here,
    before it is rebuilt, so it can never reach ``Machine.deliver``.
    """
    return [
        from_wire(record)
        for record in records
        if record[WIRE_QUERY_ID] == run_id
    ]


def _counters(machine):
    """What a STATUS broadcast of ``machine`` would say, as plain values."""
    tracker = machine.tracker
    return (
        dict(tracker.sent), dict(tracker.processed), dict(tracker.max_depths)
    )


def _run_query(worker_id, num_workers, dgraph, plan, config, run_id, conn,
               inboxes):
    """One run in this worker: returns the payload for the coordinator.

    Leaves when the coordinator's stop for ``run_id`` arrives on ``conn``;
    raises ``EOFError`` if the coordinator went away instead.
    """
    prof = None
    if config.profile:
        from ..obs.prof import PhaseProfiler

        prof = PhaseProfiler()
    sanitizer = sanitizer_from_config(config)
    network = _ProcessNetwork(worker_id, num_workers, inboxes)
    inbox = inboxes[worker_id]
    # The queue's read end, to sleep on it and the command pipe together
    # (the stdlib's own process pool waits on ``Queue._reader`` this way).
    wakeups = [inbox._reader, conn]
    sinks = {}
    machines = {}
    for m in range(worker_id, config.num_machines, num_workers):
        sinks[m] = MachineSink(plan)
        machines[m] = Machine(
            m, dgraph, plan, config, network, sinks[m],
            sanitizer=sanitizer, query_id=run_id, prof=prof,
        )
    hosted = list(machines.values())

    announced = None  # the hosted machines' counters at the last broadcast
    heard = False  # a peer's blob arrived since the last broadcast
    reported = False
    loop_no = 0
    while True:
        frames = network.take_local()
        while True:
            try:
                blob = inbox.get_nowait()
            except Empty:
                break
            heard = True
            frames.extend(_fenced(marshal.loads(blob), run_id))
        data = 0  # batches and credit returns: STATUS is nothing to work on
        for frame in frames:
            machines[frame.dst_machine].deliver([frame])
            if not isinstance(frame, StatusMessage):
                data += 1
        worked = 0.0
        for machine in hosted:
            consumed = machine.run_slice(loop_no, config.quantum)
            machine.account_round(consumed)
            worked += consumed
        loop_no += 1
        idle = worked == 0.0 and data == 0
        if idle:
            for machine in hosted:
                if not machine.protocol.concluded:
                    machine.check_termination()
            if not reported and any(m.protocol.concluded for m in hosted):
                reported = True
                conn.send(("concluded", run_id))
            # Going idle is when a broadcast can tell a peer something:
            # counters it has not seen, or — once an evaluation here found
            # everything terminated — the newer generation its second
            # confirmation needs.  A confirming worker answers only what
            # it heard since it last spoke, so idle workers waiting on a
            # busy one do not echo STATUS at each other.
            counters = [_counters(machine) for machine in hosted]
            if counters != announced or (
                heard and any(m.protocol.confirming for m in hosted)
            ):
                heard = False
                announced = counters
                for machine in hosted:
                    machine.broadcast_status(loop_no)
        network.flush()
        if idle:
            # Nothing to do until a frame or the stop arrives; frames a
            # broadcast just addressed to co-hosted machines are handled
            # first.
            timeout = 0 if network.has_local else _IDLE_WAIT_S
            ready = wait(wakeups, timeout)
            if conn in ready and conn.recv() == (run_id, None):
                break
            if not ready and timeout:
                # A full wait of silence counts as having heard: a
                # confirming worker then speaks again, so termination
                # never hangs on who answered whom.
                heard = True

    for machine in hosted:
        machine.finalize_stats()
    return {
        "machines": {
            m: {
                "rows": sinks[m].rows,
                "groups": sinks[m].groups,
                "stats": machines[m].stats,
            }
            for m in sorted(machines)
        },
        "iterations": loop_no,
        "profile": None if prof is None else prof.summary(),
    }


def _worker_main(worker_id, pipes, inboxes, dgraph, plans, config):
    """One worker process: host machines ``m % len(pipes) == worker_id``.

    Runs under the fork start method — ``dgraph``/``plans``/``config``
    are inherited, never pickled.  Serves ``(run id, plan id)`` commands
    until its command pipe reaches EOF, which is how a retired generation
    and a coordinator that died both look from here.
    """
    conn = pipes[worker_id][1]
    # Drop every inherited pipe end but our own: EOF reaches a worker only
    # when the coordinator holds the last open copy of the other end.
    for w, (coordinator_end, worker_end) in enumerate(pipes):
        coordinator_end.close()
        if w != worker_id:
            worker_end.close()
    for inbox in inboxes:
        # A worker exits only when nobody wants its frames any more; never
        # let exit wait for a peer that may be gone to drain a queue.
        inbox.cancel_join_thread()
    try:
        while True:
            run_id, plan_id = conn.recv()
            payload = _run_query(
                worker_id, len(pipes), dgraph, plans[plan_id], config,
                run_id, conn, inboxes,
            )
            conn.send(("result", payload))
    except (EOFError, ConnectionError):
        return  # the coordinator closed the channel or is gone
    except BaseException:
        # Worker boundary: ship the traceback across the process gap so
        # the coordinator can re-raise it as ExecutionError, then crash
        # this worker loudly too.
        conn.send(("error", traceback.format_exc()))
        raise


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _Generation:
    """One fork of the worker pool: processes, command pipes, inboxes.

    The coordinator never writes to an inbox, so it never starts a
    ``Queue`` feeder thread and the next generation is always forked from
    a single-threaded process.
    """

    def __init__(self, dgraph, config, num_workers, plans):
        self.dgraph = dgraph
        self.config = config
        ctx = multiprocessing.get_context("fork")
        pipes = [ctx.Pipe() for _ in range(num_workers)]
        inboxes = [ctx.Queue() for _ in range(num_workers)]
        self.conns = [coordinator_end for coordinator_end, _ in pipes]
        self.procs = []
        try:
            for w in range(num_workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(w, pipes, inboxes, dgraph, plans, config),
                    daemon=True,
                )
                proc.start()
                self.procs.append(proc)
        except BaseException:
            self.retire()
            raise
        finally:
            for _, worker_end in pipes:
                worker_end.close()

    def serves(self, dgraph, config, num_workers):
        return (
            self.dgraph is dgraph
            and self.config == config
            and len(self.procs) == num_workers
        )

    def retire(self):
        """Stop every worker and reap it (idempotent)."""
        for conn in self.conns:
            conn.close()
        # Workers hold nothing that needs an orderly exit, and one busy
        # in a long slice would not see EOF for a while.
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.join()
            proc.close()
        self.conns = []
        self.procs = []

    def _lost(self, worker):
        proc = self.procs[worker]
        proc.join(timeout=1.0)
        return ExecutionError(
            f"process backend worker {worker} exited (code {proc.exitcode}) "
            "before posting its result"
        )

    def _tell(self, worker, command):
        try:
            self.conns[worker].send(command)
        except OSError:
            raise self._lost(worker) from None

    def execute(self, run_id, plan_id, deadline):
        """Drive one run: stop on first conclusion, collect all payloads."""
        workers = range(len(self.procs))
        for w in workers:
            self._tell(w, (run_id, plan_id))
        by_handle = {self.conns[w]: w for w in workers}
        by_handle.update((self.procs[w].sentinel, w) for w in workers)
        payloads = {}
        stopped = False
        while len(payloads) < len(self.procs):
            ready = wait(list(by_handle), deadline - time.perf_counter())
            if not ready:
                raise ExecutionError(
                    "process backend run exceeded "
                    f"{_RUN_TIMEOUT_S:.0f}s without concluding"
                )
            # Pipes before sentinels: a worker that failed posts its
            # traceback and then dies, which makes both ready at once.
            ready.sort(key=lambda handle: isinstance(handle, int))
            for handle in ready:
                w = by_handle[handle]
                if isinstance(handle, int):
                    raise self._lost(w)
                try:
                    msg = handle.recv()
                except (EOFError, OSError):
                    # EOF, or a reset when the worker died with a command
                    # still unread in its end of the pipe.
                    raise self._lost(w) from None
                kind = msg[0]
                if kind == "concluded":
                    # Double-confirmation makes any machine's conclusion
                    # a proof that global sent == processed: all sinks
                    # are complete, so stop every worker.
                    if msg[1] == run_id and not stopped:
                        stopped = True
                        for peer in workers:
                            self._tell(peer, (run_id, None))
                elif kind == "error":
                    raise ExecutionError(
                        f"process backend worker {w} failed:\n{msg[1]}"
                    )
                else:  # ("result", payload)
                    payloads[w] = msg[1]
        return payloads


class ProcessBackend(ExecutionBackend):
    """Real-parallel execution on a persistent pool of forked workers.

    The backend keeps one generation of workers alive between runs (see
    the module docstring); ``close`` — or the owning Session's
    context-manager exit — retires the workers.
    What persists pays off for executions whose plan the live generation
    already holds; the first execution of each plan forks.
    """

    name = "process"

    def __init__(self):
        self._plans = OrderedDict()  # plan id -> plan, least recent first
        self._plan_ids = itertools.count()
        self._generation = None
        self._run_ids = itertools.count(1)

    # -- worker lifecycle -----------------------------------------------
    @property
    def worker_pids(self):
        """Pids of the live generation's workers (empty before the first
        run and after ``close``)."""
        generation = self._generation
        return [] if generation is None else [p.pid for p in generation.procs]

    def _retire_generation(self):
        if self._generation is not None:
            self._generation.retire()
            self._generation = None

    def _generation_for(self, dgraph, plan, config, num_workers):
        """The generation to run ``plan`` on and the plan's id in it,
        forking a generation if need be."""
        plan_id = next(
            (key for key, known in self._plans.items() if known is plan), None
        )
        if plan_id is not None:
            self._plans.move_to_end(plan_id)
        else:
            plan_id = next(self._plan_ids)
            self._plans[plan_id] = plan
            if len(self._plans) > _MAX_PLANS:
                self._plans.popitem(last=False)
            self._retire_generation()  # forked before this plan existed
        generation = self._generation
        if generation is None or not generation.serves(
            dgraph, config, num_workers
        ):
            self._retire_generation()
            _ = dgraph.graph.label_masks  # built before the fork: every worker inherits it
            self._generation = _Generation(
                dgraph, config, num_workers, self._plans
            )
        return self._generation, plan_id

    def close(self):
        self._retire_generation()

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
        started = time.perf_counter()
        num_workers = config.workers or config.num_machines
        num_workers = min(num_workers, config.num_machines)
        try:
            if prof is not None:
                prof.enter("backend.spawn")
            generation, plan_id = self._generation_for(
                dgraph, plan, config, num_workers
            )
            if prof is not None:
                prof.exit()
                prof.enter("backend.coordinate")
            payloads = generation.execute(
                next(self._run_ids), plan_id, started + _RUN_TIMEOUT_S
            )
        except BaseException:
            # Frames of the broken run may be anywhere; a generation whose
            # run did not end cleanly is never reused.
            self._retire_generation()
            raise
        finally:
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
        wall = time.perf_counter() - started
        stats = RunStats(
            machine_stats, iterations, wall, config, profile=profile,
        )
        return stats, False, False

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
