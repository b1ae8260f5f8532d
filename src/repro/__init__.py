"""repro — a reproduction of "Distributed Asynchronous Regular Path Queries
(RPQs) on Graphs" (RPQd, Middleware 2023).

Public API highlights:

* :func:`repro.connect` — open a :class:`repro.Session` on a graph: blocking
  ``execute()`` plus concurrent ``submit()`` returning
  :class:`repro.QueryHandle` futures that interleave on one simulated
  cluster;
* :class:`repro.graph.GraphBuilder` / :class:`repro.graph.PropertyGraph` —
  build labelled property graphs;
* :class:`repro.EngineConfig` — cluster/flow-control configuration;
* :mod:`repro.baselines` — Neo4j-like BFT and PostgreSQL-like recursive
  baselines over the same PGQL front end;
* :mod:`repro.datagen` — LDBC-SNB-like synthetic graphs and the paper's
  benchmark queries.
"""

from .config import CostModel, EngineConfig
from .engine import QueryResult, ResultSet, witness_path
from .errors import (
    AdmissionError,
    ConfigError,
    ExecutionError,
    FlowControlDeadlock,
    GraphError,
    PgqlSyntaxError,
    PlanningError,
    QueryCancelledError,
    ReproError,
    SessionClosedError,
)
from .graph import Direction, GraphBuilder, PropertyGraph
from .session import QueryHandle, Session, connect

__version__ = "2.0.0"

__all__ = [
    "AdmissionError",
    "ConfigError",
    "CostModel",
    "Direction",
    "EngineConfig",
    "ExecutionError",
    "FlowControlDeadlock",
    "GraphBuilder",
    "GraphError",
    "PgqlSyntaxError",
    "PlanningError",
    "PropertyGraph",
    "QueryCancelledError",
    "QueryHandle",
    "QueryResult",
    "ReproError",
    "ResultSet",
    "Session",
    "SessionClosedError",
    "__version__",
    "connect",
    "witness_path",
]
