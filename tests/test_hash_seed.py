"""Hash-seed differential: results must not depend on ``PYTHONHASHSEED``.

Two interpreters started with different hash seeds run a fixed query set
at ``xs`` on both backends; every *ordered* row list, every witness path
and the simulator's ``virtual_time`` must be identical, and the process
backend's rows must equal the simulator's.  The query set includes what
could leak set iteration order into the output: GROUP BY over string keys
without ORDER BY, DISTINCT aggregates, DISTINCT rows, plain multi-column
rows and witness paths, beside the nine paper queries (mostly single
``COUNT`` rows, which could not show it alone).

Run as a script (``python tests/test_hash_seed.py``) it prints the JSON
digest the test compares.
"""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

EXTRA_QUERIES = [
    "SELECT p.firstName, COUNT(*) FROM MATCH (p:Person)-[:KNOWS]->(q:Person) "
    "GROUP BY p.firstName",
    "SELECT t.name, COUNT(DISTINCT m.length), SUM(DISTINCT m.length), "
    "AVG(DISTINCT m.length) FROM MATCH (m:Message)-[:HAS_TAG]->(t:Tag) "
    "GROUP BY t.name",
    "SELECT DISTINCT p.firstName, c.name FROM MATCH "
    "(p:Person)-[:LOCATED_IN]->(c:City)",
    "SELECT id(a), b.firstName, id(b) FROM MATCH "
    "(a:Person)-/:KNOWS{1,2}/->(b:Person) WHERE id(a) = {start}",
]


def digest():
    """``{backend: [[columns, rows, virtual_time], ...], "witness": ...}``."""
    import repro
    from repro.datagen import BENCHMARK_QUERIES, mini_ldbc
    from repro.engine import witness_path

    graph, info = mini_ldbc("xs", 7)
    queries = [build(info) for build in BENCHMARK_QUERIES.values()]
    queries += [q.replace("{start}", str(info.start_person)) for q in EXTRA_QUERIES]
    backends = ["sim"]
    if "fork" in multiprocessing.get_all_start_methods():
        backends.append("process")
    out = {}
    for backend in backends:
        with repro.connect(graph, backend=backend) as session:
            runs = [session.execute(query) for query in queries]
        out[backend] = [
            [r.columns, [list(row) for row in r.rows],
             r.virtual_time if backend == "sim" else None]
            for r in runs
        ]
    reach = out["sim"][-1][1]
    out["witness"] = [
        witness_path(graph, row[0], row[2], "KNOWS", max_hops=2)
        for row in reach[:20]
    ]
    return out


def _run(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, __file__], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_results_do_not_depend_on_the_hash_seed():
    procs = {seed: _run(seed) for seed in (0, 12345)}
    digests = {}
    for seed, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        digests[seed] = json.loads(out)
    a, b = digests[0], digests[12345]
    sim = a["sim"]
    assert len(sim) == 13 and all(rows for _cols, rows, _vt in sim)
    assert any(len(rows) > 1 for _cols, rows, _vt in sim)
    assert all(a["witness"])
    for key in a:
        for i, (x, y) in enumerate(zip(a[key], b[key])):
            assert x == y, f"{key} query {i}: hash seed changed the output"
    if "process" in a:
        for i, (s, p) in enumerate(zip(a["sim"], a["process"])):
            assert s[:2] == p[:2], f"query {i}: process rows differ from sim"


if __name__ == "__main__":
    print(json.dumps(digest()))
