"""Bioinformatics reachability: metabolic pathway analysis.

Reachability queries are a classic bioinformatics workload (the paper cites
molecular/cellular function analysis as a motivating domain).  This example
builds a synthetic metabolic network — metabolites linked by reactions,
catalyzed by enzymes — and asks RPQ questions:

* which metabolites are derivable from glucose?
* what breaks when an enzyme is knocked out? (per-hop macro filter)
* which end products sit at least three reaction steps downstream?

Run:  python examples/metabolic_pathways.py
"""

import random

from repro import EngineConfig, GraphBuilder, Session


def build_metabolic_network(num_metabolites=300, num_reactions=420, seed=23):
    rng = random.Random(seed)
    b = GraphBuilder()
    metabolites = [
        b.add_vertex("Metabolite", name=f"M{i:04d}") for i in range(num_metabolites)
    ]
    enzymes = [b.add_vertex("Enzyme", name=f"E{i:03d}") for i in range(40)]
    for i in range(num_reactions):
        # Reactions mostly flow "forward" (substrates have smaller ids),
        # giving layered pathways with occasional feedback loops.  The
        # first few reactions consume the early metabolites so the demo's
        # glucose (M0000) always heads a cascade.
        substrate = i % 5 if i < 10 else rng.randrange(num_metabolites)
        if rng.random() < 0.9:
            product = min(num_metabolites - 1, substrate + 1 + rng.randrange(8))
        else:
            product = rng.randrange(num_metabolites)
        enzyme = rng.choice(enzymes)
        reaction = b.add_vertex(
            "Reaction", name=f"R{i:04d}", knocked_out=(i % 17 == 0)
        )
        b.add_edge(reaction, metabolites[substrate], "CONSUMES")
        b.add_edge(reaction, metabolites[product], "PRODUCES")
        b.add_edge(enzyme, reaction, "CATALYZES")
    return b.build(), metabolites


def main():
    graph, metabolites = build_metabolic_network()
    glucose = metabolites[0]
    print(f"metabolic network: {graph}")

    engine = Session(graph, EngineConfig(num_machines=4))

    # One pathway step: metabolite -> (reaction consuming it) -> product.
    step_macro = (
        "PATH step AS (m1:Metabolite)<-[:CONSUMES]-(r:Reaction)"
        "-[:PRODUCES]->(m2:Metabolite) "
    )

    derivable = engine.execute(
        step_macro
        + "SELECT COUNT(*) FROM MATCH (src:Metabolite)-/:step+/->(dst:Metabolite) "
        f"WHERE id(src) = {glucose}"
    )
    print(f"\nmetabolites derivable from M0000: {derivable.scalar()}")

    # Knockout analysis: the same reachability, but every hop must use a
    # reaction that survives the knockout (a per-repetition macro filter).
    surviving = engine.execute(
        "PATH alive AS (m1:Metabolite)<-[:CONSUMES]-(r:Reaction)"
        "-[:PRODUCES]->(m2:Metabolite) WHERE r.knocked_out = FALSE "
        "SELECT COUNT(*) FROM MATCH (src:Metabolite)-/:alive+/->(dst:Metabolite) "
        f"WHERE id(src) = {glucose}"
    )
    lost = derivable.scalar() - surviving.scalar()
    print(
        f"after knocking out every 17th reaction: {surviving.scalar()} "
        f"({lost} products lost)"
    )

    # Deep products: at least three pathway steps downstream.
    deep = engine.execute(
        step_macro
        + "SELECT dst.name FROM MATCH (src:Metabolite)-/:step{3,}/->(dst:Metabolite) "
        f"WHERE id(src) = {glucose} ORDER BY dst.name LIMIT 5"
    )
    print(f"first deep (3+ step) products: {deep.column(0)}")

    # Per-depth pathway profile (how far the cascade reaches).
    print("\npathway depth profile (control-stage matches per repetition):")
    for depth, matches, _e, _d in derivable.stats.depth_table(0):
        print(f"   {depth:2} steps: {matches}")


if __name__ == "__main__":
    main()
