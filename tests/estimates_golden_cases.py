"""Cases and generator for the planner-estimate golden oracle.

``python tests/estimates_golden_cases.py`` rewrites
``tests/estimates_golden.json`` from whatever code is checked out.  The
committed file was generated at the commit *before*
:class:`~repro.graph.statistics.GraphStatistics` replaced the per-compile
graph scans in :func:`repro.plan.estimates.annotate_estimates`;
``tests/test_estimates.py`` asserts the cached statistics reproduce every
``Stage.estimated_matches`` float exactly and the EXPLAIN text byte for
byte.  The EXPLAIN text of ``Preplies``, ``Q03``, ``Q03*``, ``Q03R``,
``Q09``, ``Q09*`` and ``Q09R`` was re-recorded when the control stage of a
segment proven to walk a forest began to print ``index: none (forest)``;
no estimate moved.  Regenerate only for a deliberate change of the estimate
model.
"""

import json
import os

import repro
from repro.datagen import BENCHMARK_QUERIES, mini_ldbc

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "estimates_golden.json"
)


def queries(info):
    """``{name: (text, scouting)}`` over the benchmark's ``mini_ldbc("m", 7)``."""
    lo = info.start_person
    cases = {name: build(info) for name, build in BENCHMARK_QUERIES.items()}

    def knows(quantifier, sources):
        return (
            "SELECT COUNT(*) FROM MATCH "
            f"(a:Person)-/:KNOWS{quantifier}/->(b:Person) "
            f"WHERE id(a) >= {lo} AND id(a) < {lo + sources}"
        )

    cases.update({
        "K15x16": knows("{1,5}", 16),
        "K16x8": knows("{1,6}", 8),
        "Pknows": (
            "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b:Person) "
            f"WHERE id(a) = {lo}"
        ),
        "Pfriends": (
            "SELECT f.firstName, COUNT(*) FROM MATCH (a:Person)-[:KNOWS]-(f:Person)"
            f"<-[:HAS_CREATOR]-(m:Message) WHERE id(a) = {lo} "
            "GROUP BY f.firstName ORDER BY COUNT(*) DESC LIMIT 10"
        ),
        "Preplies": (
            "SELECT COUNT(*) FROM MATCH (a:Person)<-[:HAS_CREATOR]-(p:Post)"
            f"<-/:REPLY_OF{{1,2}}/-(c:Comment) WHERE id(a) = {lo}"
        ),
        "knows_plus": knows("+", 4),
        "undirected": "SELECT COUNT(*) FROM MATCH (a:Person)-[:KNOWS]-(b:Person)",
        "triangle": (
            "SELECT COUNT(*) FROM MATCH "
            "(a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(a)"
        ),
    })
    cases = {name: (text, False) for name, text in cases.items()}
    # Static heuristics start from ``a``; the scout measures ``z`` as rarer.
    cases["scouted"] = (
        "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/-(z:Person) "
        "WHERE z.creationDate > 900 AND a.creationDate >= 10",
        True,
    )
    return cases


def compute():
    graph, info = mini_ldbc("m", 7)
    out = {}
    for name, (text, scouting) in queries(info).items():
        # A fresh session per case: every compile is cold.
        with repro.connect(graph, scouting=scouting) as session:
            plan = session.compile(text)
            out[name] = {
                "estimated_matches": [s.estimated_matches for s in plan.stages],
                "explain": session.explain(text),
            }
    # Through JSON so the comparison sees what the file stores.
    return json.loads(json.dumps(out))


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
