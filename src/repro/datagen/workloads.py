"""The paper's benchmark workload (Section 4.1).

Nine LDBC-BI-derived RPQ queries: three "original" forms (closest
expressible versions of LDBC BI Q3, Q9, Q10 — marked with ``*`` as in the
paper's Figure 2) and six reachability-focused adaptations, plus the
artificial Reply-depth queries of Figure 3.

Every query is parameterized by the generated graph's :class:`LdbcInfo`
(narrow country name, predefined start person, tag, date bounds) and runs
unchanged on RPQd and on both baselines.
"""

from collections import OrderedDict


def q03_star(info):
    """BI Q3*: message trees in forums moderated from a narrow country."""
    return (
        "SELECT COUNT(*) "
        "FROM MATCH (country:Country)<-[:IS_PART_OF]-(city:City)"
        "<-[:LOCATED_IN]-(moderator:Person)<-[:HAS_MODERATOR]-(forum:Forum)"
        "-[:CONTAINER_OF]->(post:Post)<-/:REPLY_OF*/-(message:Message) "
        f"WHERE country.name = '{info.narrow_country}'"
    )


def q03(info):
    """Q3 adaptation: the reachability core — reply trees of posts created
    by persons of the narrow country (no forum indirection)."""
    return (
        "SELECT COUNT(*) "
        "FROM MATCH (country:Country)<-[:IS_PART_OF]-(city:City)"
        "<-[:LOCATED_IN]-(creator:Person)<-[:HAS_CREATOR]-(post:Post)"
        "<-/:REPLY_OF*/-(message:Message) "
        f"WHERE country.name = '{info.narrow_country}'"
    )


def q03_r(info):
    """Q3 adaptation with a bounded quantifier (shallow thread prefix)."""
    return (
        "SELECT COUNT(*) "
        "FROM MATCH (country:Country)<-[:IS_PART_OF]-(city:City)"
        "<-[:LOCATED_IN]-(moderator:Person)<-[:HAS_MODERATOR]-(forum:Forum)"
        "-[:CONTAINER_OF]->(post:Post)<-/:REPLY_OF{1,3}/-(comment:Comment) "
        f"WHERE country.name = '{info.narrow_country}'"
    )


def q09_star(info):
    """BI Q9*: thread initiators — per-person total thread sizes over a
    creation-date window."""
    return (
        "SELECT person.firstName, COUNT(*) "
        "FROM MATCH (person:Person)<-[:HAS_CREATOR]-(post:Post)"
        "<-/:REPLY_OF*/-(message:Message) "
        f"WHERE post.creationDate >= {info.date_lo} "
        f"AND post.creationDate <= {info.date_hi} "
        "GROUP BY person.firstName ORDER BY COUNT(*) DESC LIMIT 20"
    )


def q09(info):
    """Q9 adaptation: the pure reachability core — all (post, reply) pairs.

    Variable naming matters for the planner's deterministic tie-break:
    ``post`` sorts before ``reply``, so the traversal starts from posts and
    expands *down* the reply trees — the fan-out direction whose per-depth
    match counts explode and then decay (the paper's Table 2 shape).
    """
    return (
        "SELECT COUNT(*) "
        "FROM MATCH (post:Post)<-/:REPLY_OF+/-(reply:Comment)"
    )


def q09_r(info):
    """Q9 adaptation: reply pairs restricted to recent replies.

    The date filter thins the reply side, but the posts stay the rarer end
    (693 posts against 6,896 x 0.4 recent replies at scale ``m``), so the
    planner, pricing labels from the graph's label histogram, anchors at the
    posts as in Q09 and applies the filter at the RPQ's exit stage.
    """
    return (
        "SELECT COUNT(*) "
        "FROM MATCH (post:Post)<-/:REPLY_OF+/-(reply:Comment) "
        f"WHERE reply.creationDate >= {info.date_lo}"
    )


def q10_star(info):
    """BI Q10*: expert search — friends-of-friends of a predefined person
    who created a message with a given tag."""
    return (
        "SELECT expert.firstName, COUNT(*) "
        "FROM MATCH (person:Person)-/:KNOWS{2,3}/-(expert:Person)"
        "<-[:HAS_CREATOR]-(message:Message)-[:HAS_TAG]->(tag:Tag) "
        f"WHERE id(person) = {info.start_person} "
        f"AND tag.name = '{info.popular_tag}' "
        "GROUP BY expert.firstName ORDER BY COUNT(*) DESC LIMIT 20"
    )


def q10(info):
    """Q10 adaptation: the reachability core — persons within 2..3 KNOWS
    hops of the predefined start person."""
    return (
        "SELECT COUNT(*) "
        "FROM MATCH (person:Person)-/:KNOWS{2,3}/-(expert:Person) "
        f"WHERE id(person) = {info.start_person}"
    )


def q10_r(info):
    """Q10 adaptation: 1..2 hop variant (denser frontier, fewer depths)."""
    return (
        "SELECT COUNT(*) "
        "FROM MATCH (person:Person)-/:KNOWS{1,2}/-(expert:Person) "
        f"WHERE id(person) = {info.start_person}"
    )


#: The nine queries of Figure 2, in presentation order.  Names with ``*``
#: are the (closest expressible) original BI forms, as in the paper.
BENCHMARK_QUERIES = OrderedDict(
    [
        ("Q03*", q03_star),
        ("Q03", q03),
        ("Q03R", q03_r),
        ("Q09*", q09_star),
        ("Q09", q09),
        ("Q09R", q09_r),
        ("Q10*", q10_star),
        ("Q10", q10),
        ("Q10R", q10_r),
    ]
)


def reply_depth_query(min_hops, max_hops):
    """Figure 3's artificial Reply RPQs with controlled min/max depth."""
    if min_hops == max_hops:
        quant = f"{{{min_hops}}}"
    else:
        quant = f"{{{min_hops},{max_hops}}}"
    return (
        "SELECT COUNT(*) "
        f"FROM MATCH (a:Message)<-/:REPLY_OF{quant}/-(b:Message)"
    )


#: The (min, max) hop pairs on Figure 3's x-axis.
FIGURE3_HOPS = [
    (0, 0),
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 2),
    (2, 3),
    (3, 3),
]
