"""The differential sweep: one workload under config variants, every
result set diffed against a solo baseline run.

An RPQ's answer set does not depend on the order in which runs are
explored (run-based semantics; the reachability index accounts each
``(source path, destination)`` pair once whatever arrives first), so one
comparison serves every axis the runtime can be perturbed along: scheduler
interleavings (``{"schedule_seed": s}``), fault plans (``{"faults":
plan}``), crash recovery, the execution backend, the reachability index,
and concurrency on a shared cluster.  ``repro analyze --races``, ``repro
chaos`` and ``repro workload --concurrency`` are this loop with different
variants; so is the oracle matrix in ``tests/test_sweep.py``::

    report = run_sweep(
        graph, queries,
        [Variant("conc4", concurrency=4),
         Variant("process", {"backend": "process"}),
         Variant("seed5", {"schedule_seed": 5})],
    )
    assert report.ok, report.mismatches

Callers derive their own summaries (faults injected, makespan inflation,
distinct interleavings, recoveries) from the ``stats`` of the results.
"""

from dataclasses import dataclass, field

from .config import EngineConfig
from .session import Session


@dataclass(frozen=True)
class Variant:
    """One perturbation of the workload: ``overrides`` on the sweep's
    :class:`~repro.config.EngineConfig`, and how the queries are run —
    ``concurrency`` 1 is one ``Session.execute`` per query, ``N > 1`` one
    shared cluster with ``max_concurrent_queries=N``, every query
    ``submit``-ted and the session drained."""

    label: object
    overrides: dict = field(default_factory=dict)
    concurrency: int = 1


@dataclass
class VariantRun:
    """One variant's results, in query order.  The cluster fields are set
    for shared-cluster variants (``concurrency > 1``) only."""

    label: object
    results: list
    cluster_rounds: int = None
    #: One ``{"round", "dead", "rolled_back"}`` entry per permanent crash.
    blast_radius: list = field(default_factory=list)
    #: The shared injector's ``{fault kind: n}`` when the batch finished.
    fault_counts: dict = field(default_factory=dict)


@dataclass
class SweepReport:
    """What :func:`run_sweep` ran and where it diverged."""

    queries: list
    baselines: list = field(default_factory=list)  # solo QueryResults
    runs: list = field(default_factory=list)  # [VariantRun], variant order
    #: ``(variant label, query index, what)`` with ``what`` one of
    #: ``"rows"``, ``"depth_table"``, ``"incomplete"``.
    mismatches: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches

    def query_results(self, index):
        """Query ``index``'s result under every variant, variant order."""
        return [run.results[index] for run in self.runs]

    def query_mismatches(self, index):
        """``[(variant label, what)]`` recorded against query ``index``."""
        return [(name, what) for name, i, what in self.mismatches if i == index]

    def variant_mismatches(self, label):
        """``[(query index, what)]`` recorded against variant ``label``."""
        return [(i, what) for name, i, what in self.mismatches if name == label]


def _canonical_rows(result):
    """Sorted, hashable view of a result set (order-insensitive compare)."""
    return tuple(sorted(tuple(row) for row in result.rows))


def run_sweep(graph, queries, variants, config=None, baseline_overrides=None,
              ordered=False, compare_depths=False):
    """Run ``queries`` solo under ``config.with_(**baseline_overrides)``,
    then under every variant, and diff each result against its baseline.

    A variant result must reproduce the baseline's rows (as a sorted
    multiset, or in emission order too with ``ordered``), come back
    ``complete``, and — with ``compare_depths``, which only holds on
    tree-shaped expansions — match ``stats.depth_table()`` exactly.  Every
    session is closed before this returns or raises, so a
    ``backend="process"`` variant leaves no worker or segment behind.
    """
    config = config or EngineConfig()
    rows_of = (lambda result: result.rows) if ordered else _canonical_rows
    report = SweepReport(queries=list(queries))
    with Session(graph, config.with_(**(baseline_overrides or {}))) as solo:
        report.baselines = [solo.execute(query) for query in report.queries]
    expected = [
        (rows_of(base), base.stats.depth_table() if compare_depths else None)
        for base in report.baselines
    ]
    for variant in variants:
        run = _run_variant(graph, report.queries, config, variant)
        report.runs.append(run)
        for index, (result, (rows, depths)) in enumerate(zip(run.results, expected)):
            if rows_of(result) != rows:
                report.mismatches.append((variant.label, index, "rows"))
            if compare_depths and result.stats.depth_table() != depths:
                report.mismatches.append((variant.label, index, "depth_table"))
            if not result.complete:
                report.mismatches.append((variant.label, index, "incomplete"))
    return report


def _run_variant(graph, queries, config, variant):
    config = config.with_(**variant.overrides)
    shared = variant.concurrency > 1
    if shared:
        config = config.with_(max_concurrent_queries=variant.concurrency)
    with Session(graph, config) as session:
        if not shared:
            return VariantRun(
                variant.label, [session.execute(query) for query in queries]
            )
        handles = [session.submit(query) for query in queries]
        session.drain()
        results = [handle.result() for handle in handles]
        # ``fault_events`` is the shared injector's count as of each
        # query's finish, so the cluster's final count is the largest.
        fault_counts = {}
        for result in results:
            for kind, n in (result.stats.fault_events or {}).items():
                fault_counts[kind] = max(n, fault_counts.get(kind, 0))
        return VariantRun(
            variant.label, results, session.cluster_rounds,
            session.cluster_blast_radius, fault_counts,
        )
