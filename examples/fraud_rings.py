"""Financial fraud detection with RPQs (the paper's motivating domain).

Builds a synthetic payment network of accounts and transfers, then uses
regular path queries to find:

1. *layering chains* — money moving through 2..4 intermediate accounts via
   large transfers (a classic money-laundering pattern);
2. *round trips* — funds that return to the originating account;
3. *escalating-risk corridors* — the paper's cross-filter showcase: chains
   where every intermediate account's risk score lies between the source's
   and the destination's (supported by RPQd only; Neo4j/PostgreSQL-style
   engines reject the deferred comparison).

Run:  python examples/fraud_rings.py
"""

import random

from repro import EngineConfig, GraphBuilder, Session
from repro.baselines import BftEngine, UnsupportedQueryError


def build_payment_network(num_accounts=400, num_transfers=1600, seed=11):
    rng = random.Random(seed)
    b = GraphBuilder()
    accounts = []
    for i in range(num_accounts):
        accounts.append(
            b.add_vertex(
                "Account",
                iban=f"ACC{i:05d}",
                risk=round(rng.random(), 3),
                country=rng.choice(["NO", "DE", "FR", "LT", "MT"]),
            )
        )
    # A few mule chains with deliberately large sequential transfers.
    for chain in range(8):
        members = rng.sample(accounts, 5)
        for src, dst in zip(members, members[1:]):
            b.add_edge(src, dst, "TRANSFER", amount=rng.randint(9_000, 50_000))
        b.add_edge(members[-1], members[0], "TRANSFER", amount=rng.randint(9_000, 50_000))
    # Background traffic: small everyday transfers.
    for _ in range(num_transfers):
        src, dst = rng.sample(accounts, 2)
        b.add_edge(src, dst, "TRANSFER", amount=rng.randint(5, 2_000))
    return b.build()


def main():
    graph = build_payment_network()
    print(f"payment network: {graph}")
    engine = Session(graph, EngineConfig(num_machines=4))

    # 1. Layering chains: 2..4 hops of transfers over 8k each.
    layering = engine.execute(
        "PATH big AS (x:Account)-[t:TRANSFER]->(y:Account) WHERE t.amount >= 8000 "
        "SELECT COUNT(*) "
        "FROM MATCH (src:Account)-/:big{2,4}/->(sink:Account)"
    )
    print(f"\nlayering corridors (2..4 large hops): {layering.scalar()}")

    # 2. Round trips: large-transfer chains that return to their source.
    round_trips = engine.execute(
        "PATH big AS (x:Account)-[t:TRANSFER]->(y:Account) WHERE t.amount >= 8000 "
        "SELECT src.iban FROM MATCH (src:Account)-/:big{2,6}/->(sink:Account) "
        "WHERE src = sink ORDER BY src.iban"
    )
    print(f"round-trip suspects: {round_trips.column(0)[:10]}")

    # 3. Escalating-risk corridors (deferred cross filter, RPQd-only).
    corridor_query = (
        "PATH hop AS (pa:Account)-[t:TRANSFER]->(pb:Account) "
        "WHERE t.amount >= 8000 "
        "SELECT COUNT(*) "
        "FROM MATCH (src:Account)-/:hop{2,4}/->(sink:Account) "
        "WHERE src.risk <= pa.risk AND pb.risk <= sink.risk"
    )
    corridors = engine.execute(corridor_query)
    print(f"escalating-risk corridors: {corridors.scalar()}")

    try:
        BftEngine(graph).execute(corridor_query)
    except UnsupportedQueryError as exc:
        print(f"BFT baseline rejects the cross filter (as Neo4j would): {exc}")

    print(
        f"\nruntime: {corridors.virtual_time} virtual rounds, "
        f"{corridors.stats.edges_traversed} edges traversed, "
        f"{corridors.stats.flow_control_blocks} flow-control blocks"
    )

    # 4. Evidence: exhibit the concrete transfer chain behind a round trip.
    from repro.engine import witness_path

    suspects = round_trips.column(0)
    if suspects:
        iban = suspects[0]
        src = next(
            v
            for v in range(graph.num_vertices)
            if graph.vprops.get("iban", v) == iban
        )
        chain = witness_path(
            graph,
            src,
            src,
            "(x:Account)-[t:TRANSFER]->(y:Account)",
            min_hops=2,
            max_hops=6,
            where="t.amount >= 8000",
        )
        pretty = " -> ".join(graph.vprops.get("iban", v) for v in chain)
        print(f"witness chain for {iban}: {pretty}")


if __name__ == "__main__":
    main()
