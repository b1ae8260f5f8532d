"""The stable public API: :func:`connect`, :class:`Session`, handles.

Typical use::

    import repro

    with repro.connect(graph, num_machines=4) as session:
        # Blocking, full-featured (faults, recovery, tracing):
        result = session.execute(
            "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,3}/->(b)"
        )

        # Concurrent: several queries interleave on the same cluster.
        handles = [session.submit(q) for q in queries]
        for handle in handles:
            rows = handle.result().rows

``execute`` runs one query with exclusive ownership of the cluster,
dispatched through the session's :class:`~repro.runtime.backend.
ExecutionBackend` — the deterministic simulator by default (a private
:class:`~repro.runtime.multi.ClusterScheduler` with that one query
admitted, never the session's shared one), or real OS processes with
``repro.connect(graph, backend="process")`` (docs/backends.md).
``submit`` hands the query to the session's shared scheduler — the same
round loop — where it interleaves with every other in-flight
submission under oldest-first per-machine quantum sharing; the returned
:class:`QueryHandle` drives the cluster forward on demand.  Both paths
support fault injection, reliable transport, crash recovery, span
traces, and the race detector's ``schedule_seed``: on the shared
cluster the fault plan and the seed live in the *session* config (they
are cluster-level — one interconnect, shared machines, one service
order), while ARQ state, epoch checkpoints, and rollback stay per
query, so a permanent machine crash rolls back only the queries that
lost state on it (``Session.cluster_blast_radius`` records exactly
which).

Both paths share one :class:`~repro.plan.cache.PlanCache`, so repeated
query text (modulo whitespace) compiles once per session.
"""

from .config import EngineConfig
from .engine.result import MachineSink, QueryResult, assemble_results
from .errors import QueryCancelledError, SessionClosedError
from .graph.distributed import DistributedGraph
from .obs import Recorder
from .pgql.ast import Query
from .pgql.parser import parse
from .plan.cache import PlanCache
from .plan.compiler import compile_query
from .plan.explain import explain as explain_plan
from .runtime.backend import backend_from_config


def connect(graph, config=None, partitioner="hash", **overrides):
    """Open a :class:`Session` on ``graph``.

    ``config`` is an optional :class:`~repro.config.EngineConfig`;
    keyword overrides are applied on top (or, with no ``config``, used to
    build one), so ``repro.connect(graph, num_machines=8, sanitize=True)``
    works without touching the config class.  Invalid fields raise
    :class:`~repro.errors.ConfigError` naming the offending value.

    ``backend`` selects the execution substrate
    (:mod:`repro.runtime.backend`): ``repro.connect(graph,
    backend="process")`` runs each partition's machine loop in a real OS
    process; the default ``backend="sim"`` is the deterministic
    simulator.  Result sets are bit-identical either way — see
    ``docs/backends.md`` for the feature matrix.
    """
    if config is None:
        config = EngineConfig(**overrides)
    elif overrides:
        config = config.with_(**overrides)
    return Session(graph, config, partitioner=partitioner)


class QueryHandle:
    """One submitted query's future result.

    ``result()`` drives the session's shared cluster until this query
    finishes (every other in-flight query progresses alongside it) and
    returns the :class:`~repro.engine.result.QueryResult`; ``done()``
    peeks without advancing virtual time; ``cancel()`` withdraws the
    query, after which ``result()`` raises :class:`~repro.errors.
    QueryCancelledError`.
    """

    def __init__(self, session, task, plan, sinks, query_text):
        self._session = session
        self._task = task
        self._plan = plan
        self._sinks = sinks
        self._result = None
        #: The submitted query text (or ``None`` for pre-compiled plans).
        self.query_text = query_text

    @property
    def query_id(self):
        return self._task.query_id

    def done(self):
        """True once the query finished (concluded, failed, or cancelled)."""
        return self._task.finished

    def cancelled(self):
        return self._task.cancelled

    def cancel(self):
        """Withdraw the query; True unless it had already finished."""
        return self._session._cancel(self._task)

    def result(self):
        """Block (in virtual time) until finished; return the result.

        Raises the query's own failure (e.g. a flow-control deadlock or
        sanitizer violation) if it had one, and
        :class:`QueryCancelledError` after :meth:`cancel`.
        """
        if self._result is not None:
            return self._result
        self._session._drive(self._task)
        task = self._task
        if task.cancelled:
            raise QueryCancelledError(
                f"query {task.query_id} was cancelled before completing"
            )
        if task.error is not None:
            raise task.error
        result_set = assemble_results(
            self._plan, self._sinks, complete=not task.partial, timed_out=task.timed_out
        )
        self._result = QueryResult(result_set, task.stats, self._plan, obs=task.obs)
        return self._result


class Session:
    """A connection to one simulated RPQd cluster over one graph."""

    def __init__(self, graph, config=None, partitioner="hash"):
        self.graph = graph
        self.config = config or EngineConfig()
        self.partitioner = partitioner
        # One partitioning per machine count a run asks for, each built
        # once and by the session's partitioner (see :meth:`execute`).
        self._dgraphs = {}
        self.dgraph = self._dgraph_for(self.config.num_machines)
        self.plan_cache = PlanCache()
        self._backend = backend_from_config(self.config)
        self._scheduler = None
        self._handles = []
        self._closed = False

    @property
    def backend(self):
        """The session's :class:`~repro.runtime.backend.ExecutionBackend`."""
        return self._backend

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self):
        """Cancel outstanding submissions and refuse further queries."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if not handle.done():
                handle.cancel()
        self._handles = []
        self._scheduler = None
        self._backend.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    @property
    def closed(self):
        return self._closed

    def _dgraph_for(self, num_machines):
        dgraph = self._dgraphs.get(num_machines)
        if dgraph is None:
            dgraph = self._dgraphs[num_machines] = DistributedGraph(
                self.graph, num_machines, self.partitioner
            )
        return dgraph

    def _check_open(self):
        if self._closed:
            raise SessionClosedError(
                "this Session is closed; connect() a new one"
            )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def parse(self, query_text):
        return parse(query_text)

    def compile(self, query):
        """Compile PGQL text or a parsed Query into a distributed plan.

        Text goes through the session's :class:`PlanCache` (normalized, so
        whitespace-variant repeats hit); parsed ASTs and already-compiled
        plans bypass it.
        """
        scouting = self.config.scouting
        if isinstance(query, str):
            plan = self.plan_cache.lookup(query, scouting)
            if plan is None:
                plan = compile_query(parse(query), self.graph, scouting=scouting)
                self.plan_cache.store(query, scouting, plan)
            return plan
        if isinstance(query, Query):
            return compile_query(query, self.graph, scouting=scouting)
        return query  # assume an already-compiled DistributedPlan

    def explain(self, query):
        return explain_plan(self.compile(query), use_index=self.config.use_reachability_index)

    # ------------------------------------------------------------------
    # Solo execution (exclusive cluster ownership)
    # ------------------------------------------------------------------
    def _prepare(self, query, config):
        """The config (``config`` or the session's), plan, per-machine sinks
        and recorder of one run."""
        self._check_open()
        config = config or self.config
        plan = self.compile(query)
        sinks = [MachineSink(plan) for _ in range(config.num_machines)]
        recorder = Recorder(config) if config.observe else None
        return config, plan, sinks, recorder

    def execute(self, query, config=None):
        """Execute one query to completion and return a :class:`QueryResult`.

        ``config`` overrides the session's configuration for this run (used
        by benchmarks to sweep machine counts etc.); a differing
        ``num_machines`` runs on the session's partitioning for that count
        (built on first use, by the session's partitioner).  A simulated
        run's round timeline is ``result.stats.render_timeline()``.

        ``config.observe`` attaches the structured trace recorder
        (:mod:`repro.obs`), returned on ``result.obs`` for export (Perfetto
        / JSONL); its ``batch.send`` events add histograms to a Prometheus
        export of the result.  ``config.profile`` attaches the wall-clock
        phase profiler (:mod:`repro.obs.prof`); the breakdown lands on
        ``result.profile``.
        """
        run_config, plan, sinks, recorder = self._prepare(query, config)
        dgraph = self._dgraph_for(run_config.num_machines)
        backend = self._backend
        if run_config.backend != backend.name:
            # A per-run config override switched backends for this query
            # only (benchmarks sweep them); the temporary backend's
            # resources are torn down before returning.
            backend = backend_from_config(run_config)
        try:
            stats, partial, timed_out = backend.run(
                dgraph, plan, run_config, sinks, recorder=recorder
            )
        finally:
            if backend is not self._backend:
                backend.close()
        result_set = assemble_results(plan, sinks, complete=not partial, timed_out=timed_out)
        return QueryResult(result_set, stats, plan, obs=recorder)

    # ------------------------------------------------------------------
    # Concurrent execution (shared cluster)
    # ------------------------------------------------------------------
    def submit(self, query, config=None):
        """Queue a query on the shared cluster; returns a :class:`QueryHandle`.

        ``config.deadline`` bounds the query's virtual runtime in scheduler
        rounds (relative to its admission); past it the handle's result
        comes back ``timed_out`` with whatever rows were produced.  Raises
        :class:`~repro.errors.AdmissionError` when both the concurrency
        limit and the bounded pending queue are full, and
        :class:`~repro.errors.ConfigError` for a per-query fault plan or
        ``schedule_seed`` differing from the session's (both are
        cluster-level: restate the session's value or leave it unset).
        ``config.observe`` records the query, and its round timeline runs,
        on its own clock (rounds since admission).  ``recovery=True`` in
        the query or session config arms per-query checkpoints/rollback;
        cancelling or deadline-expiring the handle releases them without
        perturbing co-resident queries.
        """
        run_config, plan, sinks, recorder = self._prepare(query, config)
        if self._scheduler is None:
            # Backend dispatch: the simulator returns a ClusterScheduler
            # for the session to share; the process backend rejects
            # submit() with an explanatory ConfigError.
            self._scheduler = self._backend.open_cluster(
                self.dgraph, self.config
            )
        task = self._scheduler.submit(
            plan, sinks.__getitem__, config=run_config, obs=recorder
        )
        handle = QueryHandle(
            self, task, plan, sinks,
            query if isinstance(query, str) else None,
        )
        # A finished handle is its caller's alone: holding only unfinished
        # ones (close() cancels them) frees a finished task with its handle.
        self._handles = [h for h in self._handles if not h.done()]
        self._handles.append(handle)
        return handle

    def drain(self):
        """Run the shared cluster until every submitted query finished;
        returns the handles this finished."""
        self._check_open()
        unfinished = [h for h in self._handles if not h.done()]
        if self._scheduler is not None:
            self._scheduler.run()
        self._handles = []
        return unfinished

    @property
    def cluster_rounds(self):
        """Global rounds elapsed on the shared cluster clock (0 if unused)."""
        return 0 if self._scheduler is None else self._scheduler.makespan

    @property
    def cluster_blast_radius(self):
        """Per-permanent-crash rollback records from the shared cluster.

        One entry per crash: ``{"round", "dead", "rolled_back"}`` where
        ``rolled_back`` lists the query ids that actually rewound to a
        checkpoint — the bounded blast radius the concurrent recovery
        design guarantees (co-resident queries with no state on the dead
        machine do not appear).
        """
        chaos = None if self._scheduler is None else self._scheduler.chaos
        if chaos is None:
            return []  # no shared cluster, or one with no fault plan
        return [dict(entry) for entry in chaos.blast_radius]

    def _drive(self, task):
        while not task.finished:
            self._scheduler.step()

    def _cancel(self, task):
        if self._scheduler is None:
            return False
        return self._scheduler.cancel(task)
