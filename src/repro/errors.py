"""Exception hierarchy for the repro (RPQd) library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base type.  Parsing, planning, and execution each have their
own subclass to make failures attributable to a pipeline phase.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for invalid graph construction or access (bad ids, labels)."""


class PgqlSyntaxError(ReproError):
    """Raised when a PGQL query cannot be tokenized or parsed.

    Attributes:
        position: character offset in the query text where the error was
            detected (``-1`` when unknown).
    """

    def __init__(self, message, position=-1):
        super().__init__(message)
        self.position = position


class PlanningError(ReproError):
    """Raised when a parsed query cannot be turned into an execution plan."""


class ExecutionError(ReproError):
    """Raised for failures during distributed query execution."""

    #: The failed run's :class:`~repro.obs.Recorder` if ``config.observe``.
    obs = None


class FlowControlDeadlock(ExecutionError):
    """Raised when the simulated cluster makes no progress for too long.

    A worker whose send is refused absorbs received batches instead, and
    absorbing returns the sender's credit, so a stall with credits in flight
    is a protocol bug, not a budget too small (Section 3.3).
    """


class ConfigError(ReproError):
    """Raised for invalid engine configuration values."""


class AdmissionError(ExecutionError):
    """Raised when the concurrent runtime's bounded pending queue is full.

    The multi-query scheduler (:mod:`repro.runtime.multi`) admits at most
    ``max_concurrent`` queries onto the cluster and holds at most
    ``max_pending`` more in its admission queue; a submit beyond that is
    rejected immediately instead of growing an unbounded backlog.
    """


class QueryCancelledError(ExecutionError):
    """Raised when :meth:`QueryHandle.result` is called on a cancelled query."""


class SessionClosedError(ExecutionError):
    """Raised when a closed :class:`repro.Session` is asked to run queries."""


class SanitizerViolation(ReproError):
    """Raised by the runtime sanitizer when a protocol invariant breaks.

    The sanitizer (``repro.analysis.sanitizer``, enabled via
    ``EngineConfig(sanitize=True)`` or ``REPRO_SANITIZE=1``) checks the
    paper's flow-control, termination, and reachability-index invariants
    at runtime; a violation always indicates a bug in protocol code, never
    a user error.
    """
