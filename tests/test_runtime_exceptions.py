"""No exception is swallowed in the runtime.

The runtime is a protocol machine: an unexpected exception in a worker,
the flow controller or the termination protocol means an invariant broke,
and the only correct reaction is to fail loudly.  A handler that swallows
it turns the violation into silent counter drift or a hung query, and no
result-comparing test sees that while the run still happens to conclude.
So every handler under ``src/repro/runtime/`` must be narrow (a named
exception type, with a body that does something) or re-raise.
"""

import ast
import pathlib

RUNTIME = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "runtime"
BROAD = {"Exception", "BaseException"}


def _body_is_empty(handler):
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        for stmt in handler.body
    )


def _problem(handler):
    if handler.type is None:
        return "bare except:"
    if _body_is_empty(handler):
        return "handler body is only pass/..."
    names = {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
    if names & BROAD and not any(isinstance(n, ast.Raise) for n in ast.walk(handler)):
        return f"except {'/'.join(sorted(names & BROAD))} without a raise"
    return None


def test_runtime_handlers_are_narrow_or_reraise():
    handlers, problems = 0, []
    for path in sorted(RUNTIME.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler):
                handlers += 1
                problem = _problem(node)
                if problem:
                    problems.append(f"{path.name}:{node.lineno}: {problem}")
    assert handlers, "no handler found: the runtime directory moved?"
    assert not problems, problems
