"""Static and dynamic correctness tooling for the RPQd runtime.

Three layers, all centred on the distributed-protocol invariants the paper
states in prose but the code cannot express in types:

* :mod:`repro.analysis.linter` — a small AST lint framework with
  repo-specific rules (RPQ001..RPQ006) run via ``python -m repro analyze``;
* :mod:`repro.analysis.parallel` — the parallel-readiness pass
  (RPQ101..RPQ105) certifying the runtime/engine/graph/recovery layers
  for the process-parallel backend, run via ``repro analyze --static``
  with a committed baseline and inline ``# repro: allow[RPQnnn] reason``
  suppressions (shared with the RPQ001..006 family via
  :mod:`repro.analysis.suppress`);
* :mod:`repro.analysis.sanitizer` — a config-gated runtime sanitizer whose
  assertion hooks are wired into flow control, termination detection, and
  the reachability index (zero work when disabled).

The schedule race detector (``repro analyze --races N``) is
:func:`repro.sweep.run_sweep` with ``{"schedule_seed": s}`` variants.

See ``docs/analysis.md`` for the rule catalogue and invariant list.
"""

from .linter import LintViolation, Linter, ProjectSource, lint_package
from .parallel import (
    PARALLEL_RULES,
    StaticAnalysisReport,
    lint_package_with_suppressions,
    run_static_analysis,
)
from .rules import ALL_RULES
from .sanitizer import RuntimeSanitizer, sanitizer_from_config
from .suppress import Suppression, find_suppressions, split_suppressed

__all__ = [
    "ALL_RULES",
    "PARALLEL_RULES",
    "LintViolation",
    "Linter",
    "ProjectSource",
    "RuntimeSanitizer",
    "StaticAnalysisReport",
    "Suppression",
    "find_suppressions",
    "lint_package",
    "lint_package_with_suppressions",
    "run_static_analysis",
    "sanitizer_from_config",
    "split_suppressed",
]
