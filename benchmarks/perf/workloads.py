"""The four benchmark workloads: what runs, on which backend, and why.

All four share one dataset, ``mini_ldbc(SCALE, GRAPH_SEED)``, on four
machines with the default ``EngineConfig``, driven closed-loop by one
client.  The dataset is pinned the way an LDBC scale factor is: the
``--seed`` argument draws the *query inputs* (the point-query person
sample, the order of the nine paper queries) and never reaches the
engine, which sees only the generated graph and the query texts.
"""

import os
import random
from dataclasses import dataclass

SCALE = "m"
GRAPH_SEED = 7
NUM_MACHINES = 4
POINT_QUERIES = 150

#: Point-query templates (``{p}`` is a person id), by span/metric name.
POINT_TEMPLATES = (
    ("Pknows",
     "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{{1,2}}/->(b:Person) "
     "WHERE id(a) = {p}"),
    ("Pfriends",
     "SELECT f.firstName, COUNT(*) FROM MATCH (a:Person)-[:KNOWS]-(f:Person)"
     "<-[:HAS_CREATOR]-(m:Message) WHERE id(a) = {p} "
     "GROUP BY f.firstName ORDER BY COUNT(*) DESC LIMIT 10"),
    ("Preplies",
     "SELECT COUNT(*) FROM MATCH (a:Person)<-[:HAS_CREATOR]-(p:Post)"
     "<-/:REPLY_OF{{1,2}}/-(c:Comment) WHERE id(a) = {p}"),
)


#: The nine Figure-2 queries, presentation order (``*`` spelled out: metric
#: names allow only letters, digits, ``_``, ``.`` and ``-``).
PAPER9_NAMES = ("Q03star", "Q03", "Q03R", "Q09star", "Q09", "Q09R",
                "Q10star", "Q10", "Q10R")


def paper9(info):
    """The nine Figure-2 queries as ``(name, text)``, presentation order."""
    from repro.datagen import BENCHMARK_QUERIES  # the only engine import here

    queries = [
        (name.replace("*", "star"), build(info))
        for name, build in BENCHMARK_QUERIES.items()
    ]
    if tuple(name for name, _ in queries) != PAPER9_NAMES:
        raise RuntimeError("repro.datagen.BENCHMARK_QUERIES no longer matches "
                           f"the benchmark's query names {PAPER9_NAMES}")
    return queries


def cyclic_rpqs(info):
    """Two bounded KNOWS closures over the dense start-person window: the
    only queries here whose reachability index eliminates and re-explores."""
    lo = info.start_person

    def knows(hops, sources):
        return (
            "SELECT COUNT(*) FROM MATCH "
            f"(a:Person)-/:KNOWS{{1,{hops}}}/->(b:Person) "
            f"WHERE id(a) >= {lo} AND id(a) < {lo + sources}"
        )

    return [("K15x16", knows(5, 16)), ("K16x8", knows(6, 8))]


def unbounded_cyclic_probe(info):
    """The known-limit query (reported, never in a timed workload)."""
    lo = info.start_person
    return (
        "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS+/->(b:Person) "
        f"WHERE id(a) >= {lo} AND id(a) < {lo + 4}"
    )


def _paper9_shuffled(graph, info, seed):
    queries = paper9(info)
    random.Random(seed).shuffle(queries)
    return queries


def _point_queries(graph, info, seed):
    persons = sorted(
        graph.vertices_with_label(graph.vertex_labels.id_of("Person"))
    )
    sample = random.Random(seed).sample(persons, min(POINT_QUERIES, len(persons)))
    return [
        (POINT_TEMPLATES[i % 3][0], POINT_TEMPLATES[i % 3][1].format(p=person))
        for i, person in enumerate(sample)
    ]


def _mixed(graph, info, seed):
    # Admission order decides which queries co-run, so it is part of the
    # workload's definition and does not move with the seed.
    return paper9(info) + cyclic_rpqs(info)


def process_workers():
    """No more worker processes than cores (recorded in the output)."""
    return min(NUM_MACHINES, os.cpu_count() or 1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build_queries: object  # (graph, info, seed) -> [(name, text)]
    backend: str = "sim"
    #: "execute": one Session.execute per query; "submit": all queries
    #: submitted to the shared cluster, then drained.
    mode: str = "execute"
    #: Clear the plan cache (untimed) before each pass.
    cold_plans: bool = False
    #: Queries between reference-kernel readings inside a pass.
    ref_every: int = 1

    def connect_kwargs(self):
        kwargs = {"num_machines": NUM_MACHINES}
        if self.backend == "process":
            kwargs.update(backend="process", workers=process_workers())
        if self.mode == "submit":
            kwargs["max_concurrent_queries"] = 4
        return kwargs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper9_sim",
            "the paper's Figure-2 queries on the simulator: worker.dft "
            "dominates, so a faster DFT step must win here",
            _paper9_shuffled,
        ),
        Workload(
            "paper9_process",
            "same nine queries on forked workers: spawn, pickled frames "
            "and shm attach dominate what the simulator never pays",
            _paper9_shuffled,
            backend="process",
        ),
        Workload(
            "point_cold_sim",
            "150 seeded point queries with the plan cache cleared each "
            "pass: parse/compile/per-query set-up, bypassing the DFT",
            _point_queries,
            cold_plans=True,
            ref_every=25,
        ),
        Workload(
            "mixed_conc4_sim",
            "paper9 plus two cyclic KNOWS RPQs submitted at concurrency 4: "
            "the other scheduler, index eliminations and flow-control blocks",
            _mixed,
            mode="submit",
        ),
    )
}

#: Every query name a span or ``session.q.<name>`` metric can carry.
QUERY_NAMES = (
    PAPER9_NAMES + ("K15x16", "K16x8") + tuple(name for name, _ in POINT_TEMPLATES)
)
