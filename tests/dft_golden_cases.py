"""Cases, fingerprint and generator for the DFT cost-model golden oracle.

``python tests/dft_golden_cases.py`` rewrites ``tests/dft_golden.json``
from whatever code is checked out.  The committed file was generated at
the commit *before* the plan-specialised DFT loop replaced the interpretive
``Worker._step`` ladder; ``tests/test_dft_equivalence.py`` asserts the
current loop reproduces it exactly (floats included), i.e. that every step
boundary and every per-step cost charge is where the old interpreter put
it.  The ``straddle`` and ``free_output`` variants were recorded at the
commit before the fused RPQ chain (several steps in one loop iteration)
existed, so they hold that chain to the one-step-per-iteration loop.
Four ``ldbc_s/tight`` entries (``K14x8``, ``Q09``, ``Q09*``, ``Q10*``) were
re-recorded when the 12-deep cap on nested jobs was deleted: a worker whose
send is blocked now always absorbs a received batch, so where the cap used
to stop it the nesting order changes which duplicate of a ``(source path,
destination)`` pair arrives first.  Their rows and stage matches are the
same; rounds, costs, message counts and the eliminated / duplicated columns
moved.  The nine ``ldbc_s/*/Q09R`` entries and the ``ldbc_s/conc4``
co-runners ``K14x8``, ``K15x4`` and ``Q09`` were re-recorded when the
planner started pricing labels from the graph's label histogram: Q09R now
starts from the posts and walks down the reply trees, so its rounds and
costs (and with them the co-runners' schedule) moved while every row stayed
the same.  The ``Uwalk`` and ``UwalkR`` entries (:func:`upwalk_queries`),
which keep the comment-to-post walk Q09R used to take covered, were added
then.  Every other entry is unchanged.  The point-query entries
(:func:`point_queries`: ``Pknows``, ``Pfriends`` and ``Preplies`` at two
person ids, solo variants only) were recorded before the termination
protocol's evaluation and the per-query machine set-up were made cheap, and
hold both to the decisions they made before.  The nine ``ldbc_s/*/Q09*``
entries were re-recorded when the planner began taking a *functional* hop
(one label with a maximum fan-out <= 1 in the walked direction) before a
pending RPQ: Q09* now hops from each post to its one creator and back before
it walks the reply trees, instead of from every matched message back to its
post and on to the creator, so its rounds, costs, stage indexes and message
counts moved while every row stayed the same.  The ``Ttag`` and ``TtagR``
entries (:func:`tag_exit_queries`), recorded at the commit before, keep the
old shape covered: an RPQ exit that inspects back to its post and hops on
over ``HAS_TAG``, a many-valued label.
Regenerate only for a deliberate cost-model or traversal-order change.
"""

import hashlib
import json
import os
import random

import repro
from repro import EngineConfig, GraphBuilder
from repro.config import CostModel
from repro.datagen import BENCHMARK_QUERIES, mini_ldbc
from repro.faults import FaultPlan, MachineCrash
from repro.graph.generators import random_graph

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "dft_golden.json")

#: Config variants every query runs under (solo ``Session.execute``).
VARIANTS = {
    "base": {},
    "workers3": {"workers_per_machine": 3},
    # Two contexts per batch and a handful of buffers: sends block, blocked
    # workers nest received batches on top of the blocked job (and a worker
    # with an empty inbox waits out the round: blocked_rounds > 0).
    "tight": {"batch_size": 2, "buffers_per_machine": 12, "workers_per_machine": 2},
    "noindex": {"use_reachability_index": False},
    "prealloc": {"index_preallocate": True},
    "observe": {"observe": True},
    "seed5": {"schedule_seed": 5, "workers_per_machine": 3},
    # 12 units per worker and round against a ~9-unit RPQ chain (receipt,
    # control entry, exit, output, path set-up): most chains straddle the
    # end of a quantum, so a slice ends inside one on every query.
    "straddle": {"quantum": 48},
}

#: Variants only the small graph runs under.
SMALL_VARIANTS = {
    # A zero charge ends the quantum on the step that costs it, here the
    # output step inside every RPQ chain whose exit stage emits a row.
    "free_output": {"cost": CostModel(output=0.0)},
}

_MACHINE_COUNTERS = (
    "cost_units", "edges_traversed", "filter_evals", "bootstrapped", "outputs",
    "batches_sent", "contexts_sent", "bytes_sent", "done_messages",
    "status_messages", "flow_control_blocks", "overflow_grants",
    "peak_inflight_buffers", "peak_absorbed_batches", "blocked_rounds",
    "busy_rounds", "idle_rounds", "dynamic_context_allocs",
    "index_inserts", "index_updates", "index_entries",
)


def small_graph():
    """40 vertices exercising every hop/stage kind the loop specialises."""
    rng = random.Random(3)
    b = GraphBuilder()
    for i in range(40):
        label = ("P", "Q", "R")[i % 3]
        extra = ("Tagged",) if i % 4 == 0 else ()
        b.add_vertex(label, extra_labels=extra, idx=i, age=rng.randrange(10, 60))
    for _ in range(110):
        s, d = rng.randrange(40), rng.randrange(40)
        b.add_edge(s, d, ("X", "Y", "Z")[rng.randrange(3)], w=rng.randrange(10))
    return b.build()


SMALL_QUERIES = {
    "edge_match": "SELECT COUNT(*) FROM MATCH (a)-[:X]->(b)-[:Y]->(c)-[]->(a)",
    "inspect": "SELECT COUNT(*) FROM MATCH (a)-[:X]->(b)-[:Y]->(c), MATCH (b)-[:Z]->(d:P)",
    "cross_acc": (
        "PATH p AS (pa)-[:X|Y]->(pb) "
        "SELECT COUNT(*) FROM MATCH (p1:P)-/:p{1,3}/->(p2) WHERE pb.age <= p2.age"
    ),
    "cross_inline": (
        "PATH p AS (pa)-[:X|Z]->(pb) "
        "SELECT p1.idx, COUNT(*) FROM MATCH (p1)-/:p+/->(p2) "
        "WHERE p1.age <= pa.age GROUP BY p1.idx"
    ),
    "edge_filter_macro": (
        "PATH heavy AS (x)-[t]->(y:P|Q) WHERE t.w >= 4 "
        "SELECT COUNT(*) FROM MATCH (a:Tagged)-/:heavy+/->(c)"
    ),
    "edge_capture": (
        "SELECT a.idx, e.w, b.idx FROM MATCH (a:Q)-[e:X|Z]->(b) WHERE e.w > 2"
    ),
    "both_any": "SELECT a.idx, COUNT(*) FROM MATCH (a:R)-[]-(b)-[:Y]-(c) GROUP BY a.idx",
    "multi_absent": (
        "SELECT COUNT(*) FROM MATCH (a:P|Ghost)-[:X|NOPE]->(b)-[:NOPE]->(c)"
    ),
    "label_of": "SELECT label(b), COUNT(*) FROM MATCH (a:Tagged)-[:X|Y|Z]->(b) GROUP BY label(b)",
    "star0": "SELECT COUNT(*) FROM MATCH (a:Q)-/:X*/->(b)",
    "range23": "SELECT a.idx, b.idx FROM MATCH (a)-/:Y{2,3}/->(b:R)",
    "both_rpq": "SELECT COUNT(*) FROM MATCH (a)-/:Z{1,2}/-(b) WHERE id(a) = 7",
    "two_rpqs": "SELECT COUNT(*) FROM MATCH (a:P)-/:X+/->(b)-/:Y{0,2}/->(c)",
}


#: ``+``/``*`` over the (cyclic) small graph: need the index to terminate.
SMALL_UNBOUNDED = {"cross_inline", "edge_filter_macro", "star0", "two_rpqs"}


def ldbc_queries(info):
    queries = {name: build(info) for name, build in BENCHMARK_QUERIES.items()}
    lo = info.start_person
    for hops, sources in ((4, 8), (5, 4)):
        queries[f"K1{hops}x{sources}"] = (
            "SELECT COUNT(*) FROM MATCH "
            f"(a:Person)-/:KNOWS{{1,{hops}}}/->(b:Person) "
            f"WHERE id(a) >= {lo} AND id(a) < {lo + sources}"
        )
    return queries


def deepest_comment(graph):
    """The comment with the longest ``REPLY_OF`` chain up to its post (the
    lowest id among equals)."""
    comment = graph.vertex_labels.id_of("Comment")
    reply_of = graph.edge_labels.id_of("REPLY_OF")

    def depth(v):
        hops = 0
        while (parent := next(graph.neighbors(v, edge_label_id=reply_of), None)) is not None:
            v = parent[0]
            hops += 1
        return hops

    return max(graph.vertices_with_label(comment), key=lambda v: (depth(v), -v))


def upwalk_queries(graph, info):
    """Comment-anchored ``REPLY_OF`` walks up to the posts, the fan-in
    direction: ``Uwalk`` from the deepest comment (heuristic i anchors it),
    its exit label failing at every comment on the way; ``UwalkR`` from every
    recent comment to all its ancestors — an unlabelled, unfiltered end
    prices at 1, so the comments are the start."""
    return {
        "Uwalk": (
            "SELECT COUNT(*) FROM MATCH (c:Comment)-/:REPLY_OF+/->(p:Post) "
            f"WHERE id(c) = {deepest_comment(graph)}"
        ),
        "UwalkR": (
            "SELECT COUNT(*) FROM MATCH (c:Comment)-/:REPLY_OF+/->(p) "
            f"WHERE c.creationDate >= {info.date_lo}"
        ),
    }


def tag_exit_queries(info):
    """Post-anchored reply trees whose RPQ exit inspects back to the post
    and hops on to its tags: ``HAS_TAG`` gives a post several tags, so the
    hop stays after the RPQ (an unlabelled ``tag`` prices at 1, so the posts
    are the start).  ``TtagR`` adds a selective filter at the exit."""
    return {
        "Ttag": (
            "SELECT tag.name, COUNT(*) FROM MATCH "
            "(tag)<-[:HAS_TAG]-(post:Post)<-/:REPLY_OF*/-(message:Message) "
            f"WHERE post.creationDate >= {info.date_lo} "
            f"AND post.creationDate <= {info.date_hi} "
            "GROUP BY tag.name ORDER BY COUNT(*) DESC LIMIT 20"
        ),
        "TtagR": (
            "SELECT COUNT(*) FROM MATCH "
            "(tag)<-[:HAS_TAG]-(post:Post)<-/:REPLY_OF+/-(reply:Comment) "
            f"WHERE reply.creationDate >= {info.date_hi}"
        ),
    }


#: The benchmark's point-query templates (``{p}`` is a person id).
POINT_TEMPLATES = {
    "Pknows": (
        "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{{1,2}}/->(b:Person) "
        "WHERE id(a) = {p}"
    ),
    "Pfriends": (
        "SELECT f.firstName, COUNT(*) FROM MATCH (a:Person)-[:KNOWS]-(f:Person)"
        "<-[:HAS_CREATOR]-(m:Message) WHERE id(a) = {p} "
        "GROUP BY f.firstName ORDER BY COUNT(*) DESC LIMIT 10"
    ),
    "Preplies": (
        "SELECT COUNT(*) FROM MATCH (a:Person)<-[:HAS_CREATOR]-(p:Post)"
        "<-/:REPLY_OF{{1,2}}/-(c:Comment) WHERE id(a) = {p}"
    ),
}


def point_queries(graph, info):
    """Each point template from the start person and from the median person
    id, keyed ``<template>@<person>``."""
    persons = sorted(graph.vertices_with_label(graph.vertex_labels.id_of("Person")))
    return {
        f"{name}@{person}": template.format(p=person)
        for person in (info.start_person, persons[len(persons) // 2])
        for name, template in POINT_TEMPLATES.items()
    }


def fingerprint(result):
    """Everything the cost model and the traversal order decide."""
    stats = result.stats
    rows = sorted(repr(row) for row in result.rows)
    if len(rows) > 12:
        digest = hashlib.sha1("\n".join(rows).encode()).hexdigest()
        rows = [f"{len(rows)} rows sha1 {digest}"]
    rpq_ids = sorted(
        set(stats.control_matches) | set(stats.eliminated) | set(stats.duplicated)
    )
    return {
        "virtual_time": stats.virtual_time,
        "rounds": stats.rounds,
        # One list per counter (a value per machine); all-zero ones left out.
        "machines": {
            name: values
            for name in _MACHINE_COUNTERS
            if any(values := [getattr(m, name) for m in stats.per_machine])
        },
        "stage_matches": [sorted(m.stage_matches.items()) for m in stats.per_machine],
        "depth_tables": {str(r): stats.depth_table(r) for r in rpq_ids},
        "rows": rows,
    }


def _solo(graph, queries, out, prefix, variants):
    for variant, overrides in variants.items():
        config = EngineConfig(num_machines=4, **overrides)
        with repro.connect(graph, config) as session:
            for name, text in queries.items():
                if variant == "noindex" and name in SMALL_UNBOUNDED:
                    continue  # no index, no cycle guard: would never end
                out[f"{prefix}/{variant}/{name}"] = fingerprint(session.execute(text))


def _concurrent(graph, queries, out, prefix):
    with repro.connect(graph, num_machines=4, max_concurrent_queries=4) as session:
        handles = [(name, session.submit(text)) for name, text in queries.items()]
        for name, handle in handles:
            out[f"{prefix}/conc4/{name}"] = fingerprint(handle.result())
        session.drain()
        out[f"{prefix}/conc4/cluster_rounds"] = session.cluster_rounds


def _recovered(out):
    """One permanent crash mid-DFT.

    A single-vertex start makes stage 0 terminate globally within a few
    rounds, so the epoch checkpoint of round 8 is cut while every worker
    holds half-explored jobs; the crash in round 14 rolls back to it and
    the run continues from cloned frames and jobs.
    """
    graph = random_graph(60, 180, seed=11, edge_label="E")
    config = EngineConfig(
        num_machines=4, buffers_per_machine=2048, workers_per_machine=2,
        quantum=10, sanitize=True, recovery=True,
        faults=FaultPlan(seed=7, crashes=(MachineCrash(machine=2, round=14),)),
    )
    with repro.connect(graph, config) as session:
        result = session.execute(
            "SELECT b, c FROM MATCH (a)-[:E]->(b)-/:E{1,4}/->(c) WHERE id(a) = 3"
        )
    assert result.complete and result.stats.summary()["recovery"]["recoveries"] == 1
    out["recovery/crash_m2_r14"] = fingerprint(result)


def compute():
    out = {}
    graph, info = mini_ldbc("s")
    for prefix, g, queries, variants in (
        ("ldbc_s", graph, ldbc_queries(info), VARIANTS),
        ("small", small_graph(), SMALL_QUERIES, {**VARIANTS, **SMALL_VARIANTS}),
    ):
        _solo(g, queries, out, prefix, variants)
        _concurrent(g, queries, out, prefix)
    # Solo only: a co-runner would move every conc4 entry's schedule.
    _solo(graph, upwalk_queries(graph, info), out, "ldbc_s", VARIANTS)
    _solo(graph, tag_exit_queries(info), out, "ldbc_s", VARIANTS)
    _solo(graph, point_queries(graph, info), out, "ldbc_s", VARIANTS)
    _recovered(out)
    # Through JSON so tuples and int dict keys compare as the file stores them.
    return json.loads(json.dumps(out))


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {GOLDEN}")
