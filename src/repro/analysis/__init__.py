"""Static and dynamic correctness tooling for the RPQd runtime.

Three layers, all centred on the distributed-protocol invariants the paper
states in prose but the code cannot express in types:

* :mod:`repro.analysis.linter` — a small AST lint framework with
  repo-specific rules (RPQ001..RPQ006) run via ``python -m repro analyze``;
* :mod:`repro.analysis.sanitizer` — a config-gated runtime sanitizer whose
  assertion hooks are wired into flow control, termination detection, and
  the reachability index (zero work when disabled);
* the schedule race detector (``repro analyze --races N``),
  :func:`repro.sweep.run_sweep` with ``{"schedule_seed": s}`` variants.

Determinism across processes and hash seeds is held by dynamic tests
(``tests/test_sweep.py``, ``tests/test_hash_seed.py``).  See
``docs/analysis.md`` for the rule catalogue, the invariant list, and the
mutation table naming which test catches which defect.
"""

from .linter import LintViolation, Linter, ProjectSource, lint_package
from .rules import ALL_RULES
from .sanitizer import RuntimeSanitizer, sanitizer_from_config

__all__ = [
    "ALL_RULES",
    "LintViolation",
    "Linter",
    "ProjectSource",
    "RuntimeSanitizer",
    "lint_package",
    "sanitizer_from_config",
]
