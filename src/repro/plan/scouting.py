"""Scouting-based selectivity estimation (paper Section 3.1 future work).

The paper plans to "incorporate the scouting queries technique [28] with
RPQs to improve planning": instead of ranking start candidates by static
filter-shape heuristics alone, tiny sampled probe queries measure *actual*
selectivities before the plan is committed.

:class:`Scout` samples a deterministic subset of vertices per pattern
variable and evaluates the variable's label constraints and filters on
them, yielding an estimated match fraction.  The planner uses these
fractions (when scouting is enabled) to pick the start vertex and to order
neighbor expansions, replacing the static guesses where they tie or
mislead.
"""

import random

from ..pgql.expressions import DictBinder, EvalState, compile_expr


class Scout:
    """Sampled selectivity estimator over one graph."""

    def __init__(self, graph, samples=64, seed=17):
        self.graph = graph
        self.samples = max(1, samples)
        rng = random.Random(seed)
        n = graph.num_vertices
        if n <= self.samples:
            self._sample = list(range(n))
        else:
            self._sample = sorted(rng.sample(range(n), self.samples))
        self._binder = DictBinder(graph)
        self._cache = {}
        #: Number of probe evaluations performed (reported by EXPLAIN-ish
        #: tooling and tests; the paper's scouting cost is similarly tiny).
        self.probes = 0

    def selectivity(self, pv):
        """Estimated fraction of vertices matching ``pv``'s labels+filters.

        Returns a value in ``[1/(2*samples), 1]`` — never exactly zero, so
        an unlucky sample cannot make the planner treat a variable as
        impossible.
        """
        cached = self._cache.get(pv.var)
        if cached is not None:
            return cached
        graph = self.graph
        label_groups = []
        for group in pv.label_groups:
            ids = [
                graph.vertex_labels.id_of(name)
                for name in group
                if graph.vertex_labels.id_of(name) is not None
            ]
            label_groups.append(ids)
        filters = [compile_expr(c, self._binder) for c in pv.filters]

        matches = 0
        for v in self._sample:
            self.probes += 1
            ok = True
            for ids in label_groups:
                if not any(graph.vertex_has_label(v, lid) for lid in ids):
                    ok = False
                    break
            if ok and filters:
                state = EvalState(ctx={pv.var: v})
                for fn in filters:
                    if not fn(state):
                        ok = False
                        break
            if ok:
                matches += 1
        fraction = max(matches, 0.5) / len(self._sample)
        self._cache[pv.var] = fraction
        return fraction
