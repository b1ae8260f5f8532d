"""The paper's measurement methodology (Section 4.1) for the figure
scripts under ``benchmarks/``: round-robin median harness, executor
factories, table rendering.  The perf gate is ``benchmarks/perf/``."""

from .harness import (
    BenchHarness,
    BenchResult,
    baseline_executor,
    rpqd_executor,
    total_virtual_time,
)
from .reporting import format_table

__all__ = [
    "BenchHarness",
    "BenchResult",
    "baseline_executor",
    "format_table",
    "rpqd_executor",
    "total_virtual_time",
]
