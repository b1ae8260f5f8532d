"""Reply-thread analytics: depth histograms, thread sizes, and the
reachability-index ablation on tree-shaped traversals (paper Section 4.4).

Run:  python examples/message_threads.py
"""

from repro import EngineConfig, Session
from repro.datagen import mini_ldbc


def main():
    graph, info = mini_ldbc("s")
    print(f"graph: {info.counts}")

    engine = Session(graph, EngineConfig(num_machines=4))

    # Total thread sizes per originating post (deep RPQ down reply trees).
    threads = engine.execute(
        "SELECT post.creationDate, COUNT(*) "
        "FROM MATCH (post:Post)<-/:REPLY_OF+/-(reply:Comment) "
        "GROUP BY post.creationDate ORDER BY COUNT(*) DESC LIMIT 5"
    )
    print("\nbiggest threads (by post creationDate bucket):")
    for date, size in threads:
        print(f"   day {date}: {size} replies")

    # The per-depth control-stage histogram: the paper's Table 2 shape —
    # matches explode at shallow depths, then decay exponentially.
    result = engine.execute(
        "SELECT COUNT(*) FROM MATCH (post:Post)<-/:REPLY_OF+/-(reply:Comment)"
    )
    print(f"\ntotal (post, reply) pairs: {result.scalar()}")
    print("depth histogram of the RPQ control stage (Table 2 shape):")
    for depth, matches, _elim, _dup in result.stats.depth_table(0):
        bar = "#" * max(1, matches * 50 // max(m for _, m, _, _ in result.stats.depth_table(0)))
        print(f"   depth {depth:2}: {matches:6}  {bar}")

    # Reply trees are trees: the reachability index never eliminates
    # anything, so running without it is safe and strictly faster (Section
    # 4.4).  The planner proves this (EXPLAIN: "index: none (forest)") and
    # the default run above built no index; the paper's RPQd pins it.
    query = "SELECT COUNT(*) FROM MATCH (post:Post)<-/:REPLY_OF+/-(reply:Comment)"
    with_index = Session(
        graph,
        EngineConfig(num_machines=4, use_reachability_index=True),
    ).execute(query)
    without_index = result
    assert with_index.scalar() == without_index.scalar()
    print(
        f"\nindex ablation: with={with_index.virtual_time} rounds "
        f"({with_index.stats.index_entries} entries, "
        f"{with_index.stats.index_bytes} modelled bytes), "
        f"without={without_index.virtual_time} rounds -> "
        f"{with_index.virtual_time / without_index.virtual_time:.2f}x faster without"
    )


if __name__ == "__main__":
    main()
