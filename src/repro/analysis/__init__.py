"""Dynamic correctness tooling for the RPQd runtime.

Two checks, both centred on the distributed-protocol invariants the paper
states in prose but the code cannot express in types:

* :mod:`repro.analysis.sanitizer` — a config-gated runtime sanitizer whose
  assertion hooks are wired into flow control, termination detection, and
  the reachability index (zero work when disabled);
* the schedule race detector (``repro analyze --races N``),
  :func:`repro.sweep.run_sweep` with ``{"schedule_seed": s}`` variants.

Everything a static rule once checked is held by tier-1 tests; see
``docs/analysis.md`` for the invariant list and the mutation table naming
which test catches which planted defect.
"""

from .sanitizer import RuntimeSanitizer, sanitizer_from_config

__all__ = ["RuntimeSanitizer", "sanitizer_from_config"]
