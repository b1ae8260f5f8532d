"""The bulk path over empty steps decides exactly what single steps decide.

A machine's bootstrap queue holds each run of roots that stage 0's first
label group rejects as one entry (:meth:`DistributedGraph.root_table`),
and the worker takes such a run with the charges of taking its roots one
by one.

Every case runs once with the path forced off — the root table
monkeypatched to the plain vertex list — and once with it on, and the two
must agree on every decision: rows, rounds, virtual time, the round
timeline, busy and idle rounds, STATUS messages, cost units and roots
taken.
"""

from contextlib import contextmanager

import pytest

import repro
from repro import EngineConfig
from repro.config import CostModel
from repro.datagen import BENCHMARK_QUERIES, mini_ldbc
from repro.engine.result import assemble_results
from repro.faults import FaultPlan, MachineCrash
from repro.graph.distributed import DistributedGraph
from repro.graph.partition import HashPartitioner
from repro.runtime.multi import ClusterScheduler
from repro.runtime.steptable import step_table
from repro.runtime.termination import TerminationProtocol

from . import dft_golden_cases as cases
from .onetask import make_execution

_COUNTERS = ("busy_rounds", "idle_rounds", "status_messages", "cost_units", "bootstrapped")


def decisions(stats):
    """What the cost model and the scheduler decided, per run."""
    return {
        "rounds": stats.rounds,
        "virtual_time": stats.virtual_time,
        "quiescent_round": stats.quiescent_round,
        "round_work": list(stats.round_work),
        "partial": stats.partial,
        "timed_out": stats.timed_out,
        **{name: [getattr(m, name) for m in stats.per_machine] for name in _COUNTERS},
    }


@contextmanager
def paths(on):
    """The path forced off (``on=False``), or left on and counted: the
    yielded dict holds the folded tables built."""
    taken = {"folded": 0}
    with pytest.MonkeyPatch.context() as monkeypatch:
        if not on:
            def plain_table(self, machine, mask):
                local = tuple(self.partitioner.local_vertices(machine))
                return local, len(local)

            monkeypatch.setattr(DistributedGraph, "root_table", plain_table)
        else:
            root_table = DistributedGraph.root_table

            def counted_table(self, machine, mask):
                table, count = root_table(self, machine, mask)
                taken["folded"] += any(entry < 0 for entry in table)
                return table, count

            monkeypatch.setattr(DistributedGraph, "root_table", counted_table)
        yield taken


def both(run):
    """``run()`` with the paths off, then on: ``(off, on, taken)``."""
    with paths(on=False):
        off = run()
    with paths(on=True) as taken:
        on = run()
    return off, on, taken


def test_every_golden_case_decides_the_same(monkeypatch):
    fingerprint = cases.fingerprint
    monkeypatch.setattr(
        cases, "fingerprint",
        lambda result: {**fingerprint(result), **decisions(result.stats)},
    )
    off, on, taken = both(cases.compute)
    assert sorted(off) == sorted(on)
    assert [key for key in off if off[key] != on[key]] == []
    assert taken["folded"] > 0


@pytest.fixture(scope="module")
def xs():
    return mini_ldbc("xs")


def _solo(graph, query, **overrides):
    def run():
        with repro.connect(graph, num_machines=4, **overrides) as session:
            result = session.execute(query)
        return sorted(map(repr, result.rows)), decisions(result.stats)
    return run


SMALL = cases.small_graph()


@pytest.mark.parametrize(
    ("query", "overrides"),
    [
        # Stage 0 needs P and Tagged: the table folds on P, Tagged is
        # tested per root.
        ("SELECT COUNT(*) FROM MATCH (a:P)-[:X]->(b), MATCH (a:Tagged)-[:Y]->(c)", {}),
        # No vertex carries the label: each machine's queue is one run.
        ("SELECT COUNT(*) FROM MATCH (a:Ghost)-[:X]->(b)", {}),
        # A zero charge ends the quantum on the root that costs it.
        ("SELECT COUNT(*) FROM MATCH (a:R)-/:Y{1,2}/->(b)", {"cost": CostModel(bootstrap=0.0)}),
    ],
    ids=["label_rest", "absent_label", "free_bootstrap"],
)
def test_label_edges_decide_the_same(query, overrides):
    off, on, taken = both(_solo(SMALL, query, **overrides))
    assert off == on
    assert taken["folded"] > 0


@pytest.mark.parametrize("delay", [0, 3])
def test_a_network_delay_decides_the_same(xs, delay):
    graph, info = xs
    queries = [BENCHMARK_QUERIES[name](info) for name in ("Q03", "Q09", "Q10")]
    small = [text for name, text in cases.SMALL_QUERIES.items()
             if name not in cases.SMALL_UNBOUNDED]

    def run():
        out = [_solo(SMALL, text, net_delay_rounds=delay)() for text in small]
        out += [_solo(graph, text, net_delay_rounds=delay)() for text in queries]
        with repro.connect(graph, num_machines=4, net_delay_rounds=delay,
                           max_concurrent_queries=4) as session:
            handles = [session.submit(text) for text in queries]
            out += [decisions(handle.result().stats) for handle in handles]
            session.drain()
            out.append(session.cluster_rounds)
        return out

    off, on, _taken = both(run)
    assert off == on


def split_runs(cluster, task, plan):
    """Machines whose queue starts inside a folded run: its head is a
    shorter run than the table entry it came from."""
    mask = step_table(plan)[0].label_mask
    split = []
    for s in task.slices:
        roots = s.bootstrap_roots
        table, _count = cluster.dgraph.root_table(s.id, mask)
        if roots and table[len(table) - len(roots)] < roots[0] < 0:
            split.append(s.id)
    return split


def first_split_round(graph, query, config):
    """The first round that ends with a folded run half taken, or None."""
    cluster, task, _sinks, plan = make_execution(graph, query, config)
    while any(s.bootstrap_roots for s in task.slices):
        cluster.step()
        if split_runs(cluster, task, plan):
            return cluster.round_no
    return None


@pytest.mark.parametrize("bootstrap", [0.5, 0.3])
def test_a_run_split_across_rounds_decides_the_same(xs, bootstrap):
    graph, info = xs
    query = BENCHMARK_QUERIES["Q09"](info)
    # 12 units per worker and round: a run of rejected roots outlasts a
    # round.  0.3 is not a binary fraction, so only additions made one at a
    # time give the sums a root-by-root scan gives.
    cost = CostModel(bootstrap=bootstrap)
    assert first_split_round(graph, query, EngineConfig(num_machines=4, quantum=48, cost=cost))
    off, on, _taken = both(_solo(graph, query, quantum=48, cost=cost))
    assert off == on


def _ends_inside_the_tail(graph, query, **limits):
    """Run under a stall limit on a one-query scheduler; returns the error
    parked on the task and the decisions."""
    def run():
        cluster, task, _sinks, _plan = make_execution(
            graph, query, EngineConfig(num_machines=4, **limits)
        )
        cluster.run()
        return str(task.error), decisions(task.stats)
    return run


@pytest.mark.parametrize("stall_limit", [8, 9, 10, 11])
def test_a_protocol_that_never_concludes_stalls_at_the_same_round(xs, monkeypatch, stall_limit):
    graph, info = xs
    monkeypatch.setattr(TerminationProtocol, "check", lambda self: False)
    off, on, _taken = both(
        _ends_inside_the_tail(graph, BENCHMARK_QUERIES["Q03"](info), stall_limit=stall_limit)
    )
    assert off == on
    error, _decisions = on
    assert "failed to conclude" in error and "despite quiescence" in error


def test_a_checkpoint_holding_a_half_taken_run_is_restored_the_same(xs):
    """A crash rolls back to a checkpoint cut while a run is half taken.

    Stage 0 terminates only when every root is taken, so no epoch
    checkpoint falls inside the bootstrap on its own: this one is cut by
    hand at the end of the first round that leaves a run half taken, and a
    crash two rounds later restores it.
    """
    graph, info = xs
    query = BENCHMARK_QUERIES["Q09"](info)
    config = EngineConfig(num_machines=4, quantum=48)
    cut = first_split_round(graph, query, config)
    config = config.with_(
        recovery=True, faults=FaultPlan(seed=3, crashes=(MachineCrash(machine=1, round=cut + 2),)),
    )

    def run():
        cluster, task, sinks, plan = make_execution(graph, query, config)
        while cluster.round_no < cut:
            cluster.step()
        split = split_runs(cluster, task, plan)
        snapshot = cluster.chaos.recovery[task].checkpoint(cut, "epoch")
        cluster.run()
        assert task.error is None and task.stats.recovery["recoveries"] == 1
        return split, snapshot, assemble_results(plan, sinks).rows, decisions(task.stats)

    (_, _, *off), (split, snapshot, *on), _taken = both(run)
    assert off == on
    assert on[0] == [(330,)]
    # The checkpoint holds the half-taken run the restore resumed from.
    assert split and all(snapshot.machines[m]["bootstrap"][0] < 0 for m in split)


def test_rows_on_the_process_backend(xs):
    graph, info = xs
    queries = [BENCHMARK_QUERIES[name](info) for name in ("Q03", "Q09", "Q09R", "Q10")]

    def run():
        with repro.connect(graph, num_machines=4, backend="process", workers=2) as session:
            results = [session.execute(query) for query in queries]
        # Costs and rounds follow the workers' real interleaving here; the
        # rows and the roots each machine took do not.
        return [
            (sorted(map(repr, r.rows)), [m.bootstrapped for m in r.stats.per_machine])
            for r in results
        ]

    # The forked workers inherit the patches (and build the tables).
    off, on, _taken = both(run)
    assert off == on


@pytest.mark.parametrize(
    "overrides",
    [
        {"faults": FaultPlan(seed=1)},
        {"schedule_seed": 2},
        {"reliable_transport": True},
        {"recovery": True},
        {"observe": True},
    ],
    ids=["faults", "schedule_seed", "reliable", "recovery", "observe"],
)
def test_every_round_runs_under_chaos_seeds_transport_and_recorders(xs, overrides, monkeypatch):
    graph, info = xs
    computed = []
    compute = ClusterScheduler._compute
    monkeypatch.setattr(
        ClusterScheduler, "_compute",
        lambda self, round_no: computed.append(round_no) or compute(self, round_no),
    )
    with paths(on=True) as taken:
        with repro.connect(graph, num_machines=4, **overrides) as session:
            result = session.execute(BENCHMARK_QUERIES["Q03"](info))
    assert computed == list(range(1, result.stats.rounds + 1))
    assert taken["folded"] == 4


def test_a_recorder_sees_the_same_steps_from_a_folded_queue(xs):
    """Under ``obs`` the worker takes a folded run one root per step, each
    with its clock advance: the trace is the plain vertex list's."""
    graph, info = xs
    queries = [BENCHMARK_QUERIES[name](info) for name in ("Q03", "Q09R")]

    def run():
        with repro.connect(graph, num_machines=4, observe=True, quantum=48) as session:
            results = [session.execute(query) for query in queries]
        return [(r.rows, decisions(r.stats), list(r.obs.events)) for r in results]

    off, on, taken = both(run)
    assert off == on
    assert taken["folded"] == 8


def test_the_table_is_built_once_per_machine_and_label(xs):
    graph, info = xs
    with repro.connect(graph, num_machines=4) as session:
        with paths(on=True) as taken:
            for _ in range(3):
                session.execute(BENCHMARK_QUERIES["Q03"](info))
                session.execute(BENCHMARK_QUERIES["Q03R"](info))
        tables = session.dgraph._root_tables
    assert len(tables) == 4  # both queries start from Country
    country = graph.vertex_labels.id_of("Country")
    for (machine, mask), cached in tables.items():
        assert mask == 1 << country
        assert session.dgraph.root_table(machine, mask) is cached
        table, count = cached
        local = list(session.dgraph.partitioner.local_vertices(machine))
        unfolded = [v for entry in table for v in ([entry] if entry >= 0 else [None] * -entry)]
        assert len(unfolded) == len(local) == count
        assert [v for v in unfolded if v is not None] == [
            v for v in local if graph.label_masks[v] & mask
        ]
    assert taken["folded"] == 4 * 6  # every execute reads the cached tables


class _YieldingPartitioner(HashPartitioner):
    """A partitioner whose ``local_vertices`` is a generator, with no length."""

    def local_vertices(self, machine):
        yield from super().local_vertices(machine)


@pytest.mark.parametrize(
    "query",
    ["SELECT COUNT(*) FROM MATCH (a:R)-/:Y{1,2}/->(b)", "SELECT COUNT(*) FROM MATCH (a)-[:X]->(b)"],
    ids=["label", "no_label"],
)
def test_a_partitioner_yielding_its_vertices_bootstraps_every_root(query):
    def run(partitioner):
        with repro.connect(SMALL, num_machines=4, partitioner=partitioner) as session:
            result = session.execute(query)
        return result.rows, decisions(result.stats)

    yielding = _YieldingPartitioner(SMALL.num_vertices, 4)
    assert run(yielding) == run("hash")
