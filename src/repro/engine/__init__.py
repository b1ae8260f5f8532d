"""Query results: per-machine sinks, result assembly, witness paths."""

from .paths import witness_path
from .result import MachineSink, QueryResult, ResultSet, assemble_results

__all__ = [
    "MachineSink",
    "QueryResult",
    "ResultSet",
    "assemble_results",
    "witness_path",
]
