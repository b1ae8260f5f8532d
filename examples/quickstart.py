"""Quickstart: build a property graph, run fixed-pattern and RPQ queries.

Run:  python examples/quickstart.py
"""

from repro import EngineConfig, GraphBuilder, Session


def build_graph():
    """A small social graph: people who know each other, and posts."""
    b = GraphBuilder()
    alice = b.add_vertex("Person", name="Alice", age=34)
    bob = b.add_vertex("Person", name="Bob", age=29)
    carol = b.add_vertex("Person", name="Carol", age=41)
    dave = b.add_vertex("Person", name="Dave", age=25)
    erin = b.add_vertex("Person", name="Erin", age=37)

    for src, dst, year in [
        (alice, bob, 2015),
        (bob, carol, 2018),
        (carol, dave, 2019),
        (dave, erin, 2020),
        (alice, carol, 2021),
    ]:
        b.add_edge(src, dst, "KNOWS", since=year)

    post = b.add_vertex("Post", extra_labels=("Message",), content="hello graphs")
    b.add_edge(post, alice, "HAS_CREATOR")
    reply = b.add_vertex("Comment", extra_labels=("Message",), content="nice!")
    b.add_edge(reply, post, "REPLY_OF")
    b.add_edge(reply, bob, "HAS_CREATOR")
    return b.build()


def main():
    graph = build_graph()
    print(f"graph: {graph}")

    # A simulated 4-machine cluster; results are identical for any count.
    engine = Session(graph, EngineConfig(num_machines=4))

    # Fixed pattern: who knows whom directly.
    result = engine.execute(
        "SELECT a.name, b.name FROM MATCH (a:Person)-[:KNOWS]->(b:Person)"
    )
    print("\ndirect KNOWS edges:")
    for row in result:
        print("  ", row)

    # Regular path query: everyone reachable over one or more KNOWS hops.
    result = engine.execute(
        "SELECT a.name, COUNT(*) "
        "FROM MATCH (a:Person)-/:KNOWS+/->(b:Person) "
        "GROUP BY a.name ORDER BY COUNT(*) DESC"
    )
    print("\nreachable persons per source (KNOWS+):")
    for name, count in result:
        print(f"   {name}: {count}")

    # Bounded, undirected RPQ with a PATH macro and a filter on each hop.
    result = engine.execute(
        "PATH older AS (x:Person)-[:KNOWS]-(y:Person) WHERE y.age >= 30 "
        "SELECT b.name FROM MATCH (a:Person)-/:older{1,2}/-(b:Person) "
        "WHERE a.name = 'Dave' ORDER BY b.name"
    )
    print("\nwithin 2 hops of Dave through 30+ year olds:", result.column(0))

    # The engine exposes the paper's runtime statistics.
    result = engine.execute("SELECT COUNT(*) FROM MATCH (m:Post)<-/:REPLY_OF*/-(r:Message)")
    print(
        f"\nreply-tree pairs: {result.scalar()}  "
        f"(virtual latency {result.virtual_time} rounds, "
        f"{result.stats.batches_sent} message batches, "
        f"{result.stats.index_entries} reachability-index entries)"
    )

    # And plans can be inspected.
    print("\nEXPLAIN (a)-/:KNOWS+/->(b):")
    print(engine.explain("SELECT COUNT(*) FROM MATCH (a)-/:KNOWS+/->(b)"))


if __name__ == "__main__":
    main()
