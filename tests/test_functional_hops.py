"""Functional hops are taken before the RPQ (planner heuristic iii).

A neighbor hop whose one label has a maximum fan-out <= 1 in the walked
direction can never multiply the frontier, so the planner takes it from the
current vertex ahead of any pending RPQ.  The same reply forest is built
twice: once with exactly one ``HAS_CREATOR`` edge per message, where the
creator hop is functional and moves ahead of the reply walk, and once with
one comment given a second creator, where it is not and stays after the
RPQ's exit.  The extra edge leaves a comment, and every query matches its
creator through a ``Post``, so both graphs answer every query alike: the
plans differ, the rows may not, on any backend or schedule, nor against
the BFT baseline.
"""

import multiprocessing

import pytest

import repro
from repro import GraphBuilder
from repro.baselines import BftEngine, UnsupportedQueryError

PERSONS, POSTS, COMMENTS = 10, 6, 18


def reply_forest(second_creator):
    """Persons (some with no posts), posts and a reply forest under them;
    ``second_creator`` gives the last comment one more ``HAS_CREATOR``."""
    b = GraphBuilder()
    persons = [b.add_vertex("Person", name=f"p{i}", age=20 + 5 * i) for i in range(PERSONS)]
    messages = []
    for i in range(POSTS):
        post = b.add_vertex("Post", extra_labels=("Message",), idx=i, date=i)
        b.add_edge(post, persons[(3 * i) % 7], "HAS_CREATOR")
        messages.append(post)
    for i in range(COMMENTS):
        comment = b.add_vertex(
            "Comment", extra_labels=("Message",), idx=POSTS + i, date=(37 * i) % 101
        )
        b.add_edge(comment, messages[(7 * i) % len(messages)], "REPLY_OF")
        b.add_edge(comment, persons[(5 * i) % PERSONS], "HAS_CREATOR")
        messages.append(comment)
    if second_creator:
        b.add_edge(messages[-1], persons[-1], "HAS_CREATOR")
    return b.build()


HOP = "(person:Person)<-[:HAS_CREATOR]-(post:Post)"
QUERIES = {
    **{
        f"quant{quant}": (
            f"SELECT person.name, message.idx FROM MATCH {HOP}"
            f"<-/:REPLY_OF{quant}/-(message:Message) WHERE post.date >= 2"
        )
        for quant in ("*", "+", "{2,3}", "{2,}")
    },
    "hoisted_filter": (
        f"SELECT person.name, COUNT(*) FROM MATCH {HOP}<-/:REPLY_OF+/-(message) "
        "WHERE post.date >= 1 AND person.age >= 35 GROUP BY person.name"
    ),
    "cross_filter": (
        "PATH r AS (x)-[:REPLY_OF]->(y) "
        f"SELECT person.name, message.idx FROM MATCH {HOP}<-/:r+/-(message) "
        "WHERE post.date >= 1 AND x.date >= person.age"
    ),
    "selective_exit": (
        f"SELECT person.name, COUNT(*) FROM MATCH {HOP}<-/:REPLY_OF+/-(reply:Comment) "
        "WHERE post.date >= 1 AND reply.date >= 60 GROUP BY person.name"
    ),
}

GRAPHS = {"functional": False, "two_creators": True}


@pytest.fixture(scope="module")
def graphs():
    return {name: reply_forest(extra) for name, extra in GRAPHS.items()}


@pytest.fixture(scope="module")
def expected(graphs):
    """The BFT baseline's rows on the functional graph, per query."""
    bft = BftEngine(graphs["functional"])
    return {name: sorted(bft.execute(text).rows) for name, text in QUERIES.items()}


def test_the_second_creator_changes_no_answer(graphs, expected):
    bft = BftEngine(graphs["two_creators"])
    for name, text in QUERIES.items():
        if name == "cross_filter":
            # ``person`` is bound only after the RPQ there: a deferred cross
            # filter, which the baselines do not run.
            with pytest.raises(UnsupportedQueryError):
                bft.execute(text)
            continue
        assert sorted(bft.execute(text).rows) == expected[name], name
    assert all(expected.values())


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_explain_hoists_only_the_functional_hop(graphs, name):
    first = {}
    for graph_name, graph in graphs.items():
        with repro.connect(graph, num_machines=3) as session:
            first[graph_name] = session.explain(QUERIES[name]).splitlines()[1]
    # S0 is the post: the creator hop first, or the RPQ's init transition.
    assert "=> neighbor S1 dir=out" in first["functional"]
    assert first["functional"].endswith(" functional")
    assert "=> transition S1 control_entry=init" in first["two_creators"]


def test_functional_plan_sends_fewer_contexts(graphs):
    sent = {}
    for graph_name, graph in graphs.items():
        with repro.connect(graph, num_machines=3) as session:
            sent[graph_name] = session.execute(QUERIES["quant*"]).stats.contexts_sent
    assert sent["functional"] < sent["two_creators"]


def _runs(graph, backend="sim", **config):
    with repro.connect(graph, num_machines=3, backend=backend, **config) as session:
        if config.get("max_concurrent_queries"):
            handles = {name: session.submit(text) for name, text in QUERIES.items()}
            return {name: handle.result().rows for name, handle in handles.items()}
        return {name: session.execute(text).rows for name, text in QUERIES.items()}


VARIANTS = {
    "sim": {},
    "seed5": {"schedule_seed": 5, "workers_per_machine": 2},
    "conc4": {"max_concurrent_queries": 4},
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_rows_equal_the_baseline(graphs, expected, graph_name, variant):
    rows = _runs(graphs[graph_name], **VARIANTS[variant])
    assert {name: sorted(r) for name, r in rows.items()} == expected


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_process_rows_equal_the_baseline(graphs, expected, graph_name):
    rows = _runs(graphs[graph_name], backend="process")
    assert {name: sorted(r) for name, r in rows.items()} == expected
