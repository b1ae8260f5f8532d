"""Execution backends: one interface, a simulator and a process runtime.

:class:`~repro.session.Session` no longer constructs the discrete-time
scheduler directly; it dispatches through an :class:`ExecutionBackend`:

* :class:`SimBackend` — the deterministic discrete-time simulator: one
  :class:`~repro.runtime.multi.ClusterScheduler` round loop, private to
  the call for ``run`` and shared by the session for ``submit``.  It is
  the verification oracle: virtual rounds, faults, recovery, membership,
  span tracing, round timelines and the race detector all live here.
* :class:`ProcessBackend` — real parallelism.  Each partition's
  :class:`~repro.runtime.machine.Machine` loop runs in a forked OS
  process that outlives the query; every worker inherits the graph,
  CSR adjacency included, at fork and never copies it again; this
  coordinator process dispatches runs and assembles their results.

Topology: ``workers`` processes (default ``num_machines``) each host the
machines ``m`` with ``m % workers == worker_id``.  Every worker has one
duplex pipe to the coordinator (commands down, its payload up) and one
``os.pipe`` to each peer and from each peer: one writer and one reader
per pipe, so no lock.  The coordinator creates the peer pipes before the
fork and closes its copies right after it.

Generations: plans are closures and cannot be pickled, so a worker knows
a plan because it was forked after the backend registered it.  The
backend keeps a bounded registry of plans and one live *generation* of
workers forked with that registry, the ``dgraph`` and the ``config``
inherited.  A run whose plan the generation holds is the two integers
``(run id, plan id)`` on each command pipe; a first-sight plan, another
``dgraph`` object, an unequal config or worker count retires the
generation and forks the next one.  A generation whose run did not end
cleanly is never reused.

Rounds: a worker runs the simulator's round (:mod:`repro.runtime.multi`)
for its machines in lockstep with its peers (bulk-synchronous, one
barrier per round: Valiant, CACM 1990).  Round ``r`` is deliver →
compute → STATUS rule; then the worker sends every peer one blob, even an
empty one, with a ``(run id, r, worker id)`` header, a summary (a machine
concluded, a machine worked, nothing of ours is left to run or in
flight) and the round's frames for that peer, a ``marshal`` dump
length-prefixed onto a non-blocking pipe.  Round ``r + 1`` starts once
every peer's round-``r`` blob is in.  Every worker applies the same
:class:`~repro.runtime.multi.RoundRules` to the same summaries, so all
end the run in the same round, and after that last barrier no frame of
the run is left in any pipe.  A message carries the ``seq`` its machine
stamped (``Machine.run_slice``), so a remote inbox breaks ties as the
simulator's does: rows, rounds and every counter equal the simulator's.
The coordinator only dispatches runs and merges payloads, raising a
verdict's error (a stall, the round cap) with the simulator's text.

The feature matrix (what each backend supports) is documented in
``docs/backends.md`` and enforced by :class:`~repro.config.EngineConfig`
validation plus the explicit checks here — simulator-only options raise
:class:`~repro.errors.ConfigError` instead of being silently ignored.
"""

import itertools
import marshal
import multiprocessing
import os
import selectors
import struct
import time
import traceback
from array import array
from collections import OrderedDict
from multiprocessing.connection import wait

from ..analysis.sanitizer import sanitizer_from_config
from ..engine.result import MachineSink
from ..errors import ConfigError, ExecutionError
from ..obs.prof import merge_summaries, profiler_from_config
from .machine import Machine
from .message import StatusMessage, from_wire, to_wire
from .multi import ClusterScheduler, RoundRules, stall_error, stall_facts
from .stats import RunStats

#: Hard ceiling on one process-backend run: the round rules end a healthy
#: or wedged run, so hitting it means a worker hung inside a round.
_RUN_TIMEOUT_S = 600.0
#: The query id of a run's machines: a solo run's on the simulator, whose
#: private cluster admits it first, so both backends name it alike.
_QUERY_ID = 1
#: A frame on a peer pipe: the blob's byte length, then the blob.
_FRAME_HEADER = struct.Struct("<I")
#: Bytes one read takes from a peer pipe (Linux's default pipe capacity).
_READ_BYTES = 1 << 16
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

    def run(self, dgraph, plan, config, sinks, recorder=None, prof=None):
        """Execute ``plan`` and fill ``sinks``.

        Returns ``(stats, partial, timed_out)`` where ``stats`` is a
        :class:`~repro.runtime.stats.RunStats`; raises the query's own
        error.  ``recorder`` is the run's :class:`~repro.obs.Recorder`
        (``config.observe``); a caller's ``prof`` replaces ``config.profile``'s.
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

    def run(self, dgraph, plan, config, sinks, recorder=None, prof=None):
        # Exclusive ownership is a private one-task cluster: the same
        # round loop ``submit`` shares, with nobody else admitted.
        cluster = ClusterScheduler(dgraph, config, prof=prof, obs=recorder)
        task = cluster.submit(plan, sinks.__getitem__, obs=recorder)
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
class _PeerLinks:
    """One worker's ends of its peer pipes, for the worker's lifetime:
    ``outbound`` maps a peer to the write end of the pipe to it, ``inbound``
    lists the read ends from the peers; ``conn`` is only waited on.  A peer
    whose pipe reports EOF or ``EPIPE`` is dropped with its outbox, raising
    nothing: the coordinator's sentinel reports the lost worker."""

    def __init__(self, outbound, inbound, conn=None):
        self._outboxes = {peer: (fd, bytearray()) for peer, fd in outbound.items()}
        self._buffers = {fd: bytearray() for fd in inbound}
        self._selector = selectors.DefaultSelector()
        for fd in [*outbound.values(), *inbound]:
            os.set_blocking(fd, False)
        for handle in inbound + ([conn] if conn is not None else []):
            self._selector.register(handle, selectors.EVENT_READ)

    @property
    def pending(self):
        """True while an outbox holds bytes its pipe has not taken yet."""
        return any(outbox for _, outbox in self._outboxes.values())

    def push(self, blobs):
        """Frame each ``(peer, blob)`` onto the peer's outbox, then write
        what each pipe takes; the rest waits for the next call."""
        for peer, blob in blobs:
            if peer in self._outboxes:  # else the peer is gone
                self._outboxes[peer][1].extend(_FRAME_HEADER.pack(len(blob)) + blob)
        for peer, (fd, outbox) in list(self._outboxes.items()):
            try:
                if outbox:
                    del outbox[:os.write(fd, outbox)]
            except BlockingIOError:
                continue  # the pipe is full
            except ConnectionError:  # EPIPE: the peer is gone
                del self._outboxes[peer]
                os.close(fd)

    def receive(self):
        """The records of each whole frame that arrived since the last
        call, in arrival order per peer."""
        received, head = [], _FRAME_HEADER.size
        for fd, buffer in list(self._buffers.items()):
            chunk = None
            try:
                while chunk is None or len(chunk) == _READ_BYTES:
                    chunk = os.read(fd, _READ_BYTES)
                    buffer += chunk
            except BlockingIOError:
                chunk = None  # drained
            except ConnectionError:
                chunk = b""  # as good as EOF
            start = 0
            while len(buffer) >= start + head:
                end = start + head + _FRAME_HEADER.unpack_from(buffer, start)[0]
                if end > len(buffer):
                    break  # half a frame: a later read completes it
                received.append(marshal.loads(buffer[start + head:end]))
                start = end
            del buffer[:start]
            if chunk == b"":  # EOF: the peer is gone
                del self._buffers[fd]
                self._selector.unregister(fd)
                os.close(fd)
        return received

    def wait(self, timeout):
        """The pipes ready within ``timeout`` seconds (None: no limit): a
        frame, a command, or room in a pipe that has outbox bytes pending."""
        pending = [fd for fd, outbox in self._outboxes.values() if outbox]
        for fd in pending:
            self._selector.register(fd, selectors.EVENT_WRITE)
        ready = [key.fileobj for key, _ in self._selector.select(timeout)]
        for fd in pending:
            self._selector.unregister(fd)
        return ready


class _CoordinatorGone(Exception):
    """The command pipe's EOF or broken pipe: the generation was retired
    or the coordinator died, the one way a worker ends quietly."""


def _command(op, *args):
    """One operation on the command pipe: only its errors end a worker quietly."""
    try:
        return op(*args)
    except (EOFError, ConnectionError):
        raise _CoordinatorGone from None


class _WorkerChannel:
    """One worker's side of the network for one run (module docstring).

    :class:`~repro.runtime.machine.Machine` sends through ``send`` and
    ``broadcast`` (routing reads ``dst_machine``).  Frames for this
    worker's machines stay here; the others wait as wire records until
    :meth:`blobs` packs the round's blob per peer, ``(run id, round,
    sender, *summary, records)``.  A frame sent in round ``s`` is due in
    round ``s + lag``, ``lag = max(net_delay_rounds, 1)``: with no delay,
    after the deliver phase of ``s``, as on the simulator.  A peer's
    blobs arrive in round order, one of round ``r + 1`` perhaps while this
    worker still waits for round ``r``; any other header is a bug.
    """

    def __init__(self, run_id, worker_id, num_workers, config):
        self.run_id = run_id
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.num_machines = config.num_machines
        self.lag = max(config.net_delay_rounds, 1)
        self.peers = [w for w in range(num_workers) if w != worker_id]
        self.heard = {}  # round -> the peers' summaries of it
        self.data_round = float("-inf")  # the last round data left
        self._outgoing = [[] for _ in range(num_workers)]
        self._frames = {}  # round -> per sending worker, the frames due
        self._expect = dict.fromkeys(self.peers, 1)  # each peer's next round

    def send(self, message, now_round):
        owner = message.dst_machine % self.num_workers
        local = owner == self.worker_id
        self._outgoing[owner].append(message if local else to_wire(message))
        if not isinstance(message, StatusMessage):
            self.data_round = now_round

    def broadcast(self, snapshot, now_round):
        for message in snapshot.copies(self.num_machines):
            self.send(message, now_round)

    def blobs(self, round_no, summary):
        """End round ``round_no``: one ``(peer, blob)`` per peer."""
        outgoing = self._outgoing
        self._outgoing = [[] for _ in range(self.num_workers)]
        self._keep(self.worker_id, round_no, outgoing[self.worker_id])
        return [
            (peer, marshal.dumps(
                (self.run_id, round_no, self.worker_id, *summary, outgoing[peer])
            ))
            for peer in self.peers
        ]

    def absorb(self, blob):
        """Take in one peer's blob; raises on a header out of order."""
        run, sent_round, sender, *summary, records = blob
        expected = self._expect.get(sender)
        if (run, sent_round) != (self.run_id, expected):
            raise ExecutionError(
                f"process backend worker {self.worker_id} waits for run "
                f"{self.run_id} round {expected} from worker {sender}, "
                f"which sent run {run} round {sent_round}"
            )
        self._expect[sender] = sent_round + 1
        self.heard.setdefault(sent_round, []).append(summary)
        self._keep(sender, sent_round, [from_wire(record) for record in records])

    def _keep(self, sender, sent_round, frames):
        if frames:
            due = self._frames.setdefault(sent_round + self.lag, [None] * self.num_workers)
            due[sender] = frames

    def due(self, round_no):
        """The frames to deliver in ``round_no``, by sending worker."""
        for frames in self._frames.pop(round_no, ()):
            yield from frames or ()


def _run_query(worker_id, num_workers, dgraph, plan, config, run_id, conn,
               peers):
    """One run in this worker, in lockstep with its peers (module
    docstring): returns the payload for the coordinator.  Raises
    :class:`_CoordinatorGone` if the coordinator went away."""
    prof = profiler_from_config(config)
    sanitizer = sanitizer_from_config(config)
    channel = _WorkerChannel(run_id, worker_id, num_workers, config)
    rules = RoundRules(_QUERY_ID, config)
    machines = [
        Machine(
            m, dgraph, plan, config, channel, MachineSink(plan),
            sanitizer=sanitizer, query_id=_QUERY_ID, prof=prof,
        )
        for m in range(worker_id, config.num_machines, num_workers)
    ]
    hosted = {s.id: s for s in machines}
    consumed = [0.0] * config.num_machines
    failure = stall = None
    round_no = 0
    while True:
        round_no += 1
        try:
            if rules.expired(round_no):
                break
        except ExecutionError as error:  # past max_rounds, on every worker
            failure = str(error)
            break
        # The simulator's round for our machines: deliver, compute, STATUS.
        for frame in channel.due(round_no):
            hosted[frame.dst_machine].deliver([frame])
        for s in machines:
            used = 0.0 if s.is_quiescent() else s.run_slice(round_no, config.quantum)
            consumed[s.id] = s.close_round(used)
        rules.round_work.extend(consumed)
        summary = (
            rules.status_round(machines, consumed, round_no),
            any(consumed),
            # Quiet: nothing of ours left to run or in flight.
            channel.data_round <= round_no - channel.lag
            and all(s.is_quiescent() for s in machines),
        )
        # The barrier: our blobs out, every peer's blob of this round in.
        peers.push(channel.blobs(round_no, summary))
        while True:
            for blob in peers.receive():
                channel.absorb(blob)
            if len(channel.heard.get(round_no, ())) == len(channel.peers) and not peers.pending:
                break
            if conn in peers.wait(None):
                raise _CoordinatorGone  # nothing but its EOF comes mid-run
            peers.push([])
        # Every worker reads the same summaries: the same verdict everywhere.
        concluded, worked, quiet = zip(summary, *channel.heard.pop(round_no, ()))
        if any(concluded):
            break
        if not rules.progressed(round_no, any(worked), lambda: all(quiet)) and (
            rules.stalled(round_no)
        ):
            stall = stall_facts(machines)
            break

    for s in machines:
        s.finalize_stats()
    return {
        "machines": {
            s.id: (s.output_sink.rows, s.output_sink.groups, s.stats) for s in machines
        },
        "round_work": rules.round_work,
        "end": (round_no, rules.quiescent_round, rules.timed_out, failure,
                stall is not None),
        "stall": stall,
        "profile": None if prof is None else prof.summary(),
    }


def _worker_main(worker_id, pipes, links, dgraph, plans, config):
    """One worker process: host machines ``m % len(pipes) == worker_id``.

    Runs under the fork start method — ``dgraph``/``plans``/``config``
    are inherited, never pickled; ``links`` maps ``(src, dst)`` workers to
    the ``(read, write)`` ends of their peer pipe.  Serves ``(run id, plan
    id)`` commands until its command pipe reaches EOF, which is how a
    retired generation and a coordinator that died both look from here.
    """
    conn = pipes[worker_id][1]
    # Drop every inherited pipe end but our own: EOF reaches a worker only
    # when the coordinator holds the last open copy of the other end, and
    # a peer pipe only when its one writer or its one reader is gone.
    for w, (coordinator_end, worker_end) in enumerate(pipes):
        coordinator_end.close()
        if w != worker_id:
            worker_end.close()
    outbound = {dst: ends[1] for (src, dst), ends in links.items() if src == worker_id}
    inbound = [ends[0] for (src, dst), ends in links.items() if dst == worker_id]
    for fd in set(itertools.chain(*links.values())) - {*outbound.values(), *inbound}:
        os.close(fd)
    peers = _PeerLinks(outbound, inbound, conn)
    try:
        while True:
            run_id, plan_id = _command(conn.recv)
            payload = _run_query(
                worker_id, len(pipes), dgraph, plans[plan_id], config,
                run_id, conn, peers,
            )
            _command(conn.send, ("result", payload))
    except _CoordinatorGone:
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
    """One fork of the worker pool: processes, command pipes, peer pipes.

    The coordinator creates one ``os.pipe`` per ordered pair of workers
    before the fork and closes every end of them once all workers are
    forked: it holds ``2·W·(W−1)`` peer descriptors only while it forks,
    and never a frame.
    """

    def __init__(self, dgraph, config, num_workers, plans):
        self.dgraph = dgraph
        self.config = config
        ctx = multiprocessing.get_context("fork")
        pipes = [ctx.Pipe() for _ in range(num_workers)]
        links = {}
        self.conns = [coordinator_end for coordinator_end, _ in pipes]
        self.procs = []
        try:
            pairs = itertools.permutations(range(num_workers), 2)
            links.update((pair, os.pipe()) for pair in pairs)
            for w in range(num_workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(w, pipes, links, dgraph, plans, config),
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
            for fd in itertools.chain(*links.values()):
                os.close(fd)

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
        """Dispatch one run and collect every worker's payload."""
        workers = range(len(self.procs))
        for w in workers:
            self._tell(w, (run_id, plan_id))
        by_handle = {self.conns[w]: w for w in workers}
        by_handle.update((self.procs[w].sentinel, w) for w in workers)
        payloads = {}
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
                    kind, body = handle.recv()
                except (EOFError, OSError):
                    # EOF, or a reset when the worker died with a command
                    # still unread in its end of the pipe.
                    raise self._lost(w) from None
                if kind == "error":
                    raise ExecutionError(
                        f"process backend worker {w} failed:\n{body}"
                    )
                payloads[w] = body  # ("result", payload)
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

    def run(self, dgraph, plan, config, sinks, recorder=None, prof=None):
        # (EngineConfig rejects ``observe`` here, so ``recorder`` is None.)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutionError(
                "backend='process' requires the fork start method "
                "(workers inherit the graph and plan); this platform "
                "offers none — run backend='sim'"
            )
        started = time.perf_counter()
        if prof is None:
            prof = profiler_from_config(config)
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
        # The run ended at a barrier, with no frame left in any pipe: the
        # generation serves the next run whatever the verdict, which every
        # worker reached on the same summaries.
        rounds, quiescent_round, timed_out, failure, stalled = payloads[0]["end"]
        if failure is not None:
            raise ExecutionError(failure)
        if stalled:  # quiescent exactly when its round was stamped
            raise stall_error(
                _QUERY_ID, config, rounds, quiescent_round is not None,
                [payload["stall"] for payload in payloads.values()],
            )
        if prof is not None:
            prof.enter("backend.merge")
        machine_stats = [None] * config.num_machines
        round_work = array("d", payloads[0]["round_work"])
        for payload in payloads.values():
            for m, (rows, groups, machine) in payload["machines"].items():
                sinks[m].rows[:] = rows
                sinks[m].groups.clear()
                sinks[m].groups.update(groups)
                machine_stats[m] = machine
                # Each machine's column of the timeline, from its worker.
                round_work[m::config.num_machines] = payload["round_work"][m::config.num_machines]
        profiles = [payload["profile"] for payload in payloads.values()]
        if prof is not None:
            prof.exit()
            profiles.append(prof.summary())
        stats = RunStats(
            machine_stats, rounds, time.perf_counter() - started, config,
            quiescent_round=quiescent_round, partial=timed_out, timed_out=timed_out,
            profile=merge_summaries([p for p in profiles if p]) or None,
            round_work=round_work,
        )
        return stats, timed_out, timed_out
