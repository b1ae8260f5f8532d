"""Friend-of-friend recommendations and expert search on an LDBC-like
social network, comparing RPQd against both baseline engines.

Run:  python examples/social_recommendations.py
"""

import time

from repro import EngineConfig, Session
from repro.baselines import BftEngine, RecursiveEngine
from repro.datagen import mini_ldbc


def main():
    graph, info = mini_ldbc("s")
    print(f"LDBC-like graph: {info.counts}")
    start = info.start_person

    engine = Session(graph, EngineConfig(num_machines=4))

    # Friends-of-friends: candidates exactly two undirected KNOWS hops away.
    foaf = engine.execute(
        "SELECT cand.firstName, COUNT(*) "
        "FROM MATCH (me:Person)-/:KNOWS{2,2}/-(cand:Person) "
        f"WHERE id(me) = {start} "
        "GROUP BY cand.firstName ORDER BY COUNT(*) DESC LIMIT 5"
    )
    print(f"\ntop friend-of-friend name buckets for person {start}:")
    for name, count in foaf:
        print(f"   {name}: {count}")

    # Expert search (paper Q10 flavor): 2..3 hops, must have written a
    # message tagged with the topic of interest.
    experts = engine.execute(
        "SELECT expert.firstName, COUNT(*) "
        "FROM MATCH (me:Person)-/:KNOWS{2,3}/-(expert:Person)"
        "<-[:HAS_CREATOR]-(m:Message)-[:HAS_TAG]->(t:Tag) "
        f"WHERE id(me) = {start} AND t.name = '{info.popular_tag}' "
        "GROUP BY expert.firstName ORDER BY COUNT(*) DESC LIMIT 5"
    )
    print(f"\nexperts on '{info.popular_tag}' within 2-3 hops:")
    for name, count in experts:
        print(f"   {name}: {count}")

    # Cross-engine comparison on the expert query.
    query = (
        "SELECT COUNT(*) "
        "FROM MATCH (me:Person)-/:KNOWS{2,3}/-(expert:Person) "
        f"WHERE id(me) = {start}"
    )
    print("\nengine comparison (same query, same results):")
    for name, runner in [
        ("rpqd (4 simulated machines)", engine),
        ("bft baseline (Neo4j-like)", BftEngine(graph)),
        ("recursive baseline (PostgreSQL-like)", RecursiveEngine(graph)),
    ]:
        t0 = time.perf_counter()
        result = runner.execute(query)
        wall = time.perf_counter() - t0
        print(
            f"   {name:38} count={result.scalar():5}  "
            f"virtual={result.virtual_time:8.1f}  wall={wall * 1000:6.1f} ms"
        )


if __name__ == "__main__":
    main()
