"""Witness-path reconstruction for reachability results.

Reachability queries account each (source, destination) pair once and do
not materialize paths (paper Section 2: PGQL's RPQ semantics).  After a
query tells you *that* ``dst`` is reachable, :func:`witness_path` exhibits
one concrete walk — e.g. the actual chain of transfers behind a flagged
money-laundering pair.

The pattern is one repetition of a PATH-macro-style pattern (text form,
e.g. ``"(x)-[:KNOWS]->(y)"``, or just an edge label); the witness walk
repeats it between ``min_hops`` and ``max_hops`` times.  Returns the full
vertex sequence including the macro's intermediate vertices, or ``None``
when the pair is not reachable within the bounds.
"""

from ..errors import PlanningError
from ..pgql.expressions import DictBinder, EvalState, compile_expr
from ..pgql.parser import _Parser


def _parse_pattern(text):
    parser = _Parser(text)
    pattern = parser.parse_pattern()
    parser.expect_eof()
    return pattern


def _compile_steps(graph, pattern_text, where=None):
    """Compile one macro repetition into a successor enumerator.

    Returns ``fn(vertex) -> iterable[(next_frontier, intermediates)]`` where
    ``intermediates`` is the tuple of vertices strictly between the
    repetition's endpoints.
    """
    if "(" not in pattern_text:
        pattern_text = f"(x)-[:{pattern_text}]->(y)"
    pattern = _parse_pattern(pattern_text)
    vertices = pattern.vertices
    connectors = pattern.connectors
    if len(vertices) < 2:
        raise PlanningError("witness pattern needs at least one edge")
    edge_vars = {e.var for e in connectors if e.var}
    binder = DictBinder(graph, edge_vars)
    where_fn = compile_expr(where, binder) if where is not None else None

    label_ids = []
    for edge in connectors:
        ids = [
            graph.edge_labels.id_of(name)
            for name in edge.labels
            if graph.edge_labels.id_of(name) is not None
        ]
        label_ids.append(ids if edge.labels else [None])

    def vertex_ok(vp, vertex):
        for name in vp.labels:
            lid = graph.vertex_labels.id_of(name)
            if lid is None or not graph.vertex_has_label(vertex, lid):
                return False
        return True

    def successors(frontier):
        results = []
        binding = {}
        state = EvalState(ctx=binding)

        def walk(i, vertex, trail):
            if not vertex_ok(vertices[i], vertex):
                return
            if vertices[i].var:
                binding[vertices[i].var] = vertex
            if i == len(vertices) - 1:
                if where_fn is None or where_fn(state):
                    results.append((vertex, tuple(trail)))
                return
            edge = connectors[i]
            for lid in label_ids[i]:
                for nbr, eid in graph.neighbors(vertex, edge.direction, lid):
                    if edge.var:
                        binding[edge.var] = eid
                    walk(i + 1, nbr, trail + [nbr] if i + 1 < len(vertices) - 1 else trail)

        walk(0, frontier, [])
        return results

    return successors


def witness_path(graph, src, dst, pattern, min_hops=1, max_hops=None, where=None):
    """One walk from ``src`` to ``dst`` matching ``pattern{min,max}``.

    Returns the vertex sequence (including intermediate macro vertices) or
    ``None``.  The walk has the *minimum* number of repetitions within the
    bounds (BFS order).  ``where`` is an optional per-repetition filter over
    the pattern's variables (text or parsed expression).
    """
    if isinstance(where, str):
        from ..pgql.parser import parse_expression

        where = parse_expression(where)
    successors = _compile_steps(graph, pattern, where=where)

    # parents[(vertex, level)] = (prev_vertex, intermediates)
    parents = {(src, 0): None}
    level = {src}
    found_level = None
    if min_hops == 0 and src == dst:
        return [src]

    def record(frontier, depth):
        nxt = set()
        # Sorted expansion: which predecessor claims a successor (and hence
        # the witness path returned) must not depend on set iteration order.
        for vertex in sorted(frontier):
            for successor, intermediates in successors(vertex):
                key = (successor, depth)
                if key not in parents:
                    parents[key] = (vertex, intermediates)
                    nxt.add(successor)
        return nxt

    # Bounded phase: exact levels up to max (or to min for unbounded).
    horizon = max_hops if max_hops is not None else min_hops
    depth = 0
    while depth < horizon:
        depth += 1
        level = record(level, depth)
        if not level:
            return None
        if depth >= min_hops and dst in level:
            found_level = depth
            break

    if found_level is None and max_hops is None:
        # Unbounded suffix: plain BFS with single-visit parents, levels
        # keep incrementing so reconstruction stays uniform.
        visited = set(level)
        frontier = level
        while frontier and found_level is None:
            depth += 1
            nxt = set()
            for vertex in sorted(frontier):
                for successor, intermediates in successors(vertex):
                    if successor in visited or (successor, depth) in parents:
                        continue
                    parents[(successor, depth)] = (vertex, intermediates)
                    if successor == dst:
                        found_level = depth
                        break
                    visited.add(successor)
                    nxt.add(successor)
                if found_level is not None:
                    break
            frontier = nxt

    if found_level is None:
        return None

    # Reconstruct back from (dst, found_level).
    path = [dst]
    vertex, depth = dst, found_level
    while depth > 0:
        prev, intermediates = parents[(vertex, depth)]
        for inter in reversed(intermediates):
            path.append(inter)
        path.append(prev)
        vertex, depth = prev, depth - 1
    path.reverse()
    return path
