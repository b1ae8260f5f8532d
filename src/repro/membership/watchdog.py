"""Stall resolution for the scheduler's fault-plan seam.

A query that made no progress for ``stall_limit`` rounds needs a
judgement call: *is that a failure, and whose?*
:class:`~repro.faults.cluster.ClusterChaos` makes it here, consulting
only **detected** state, never the fault injector's ground truth:

* Progress (cost units consumed) resets the query's progress clock.
* An *unconfirmed* suspicion resets it too: the detector is still
  deliberating, and an outage under deliberation is not a stall — the
  peer may recover, or retransmissions may land.
* A *quorum-blocked* suspicion (confirm-level silence without the votes)
  does **not**: from inside a minority partition the rest of the cluster
  looks dead forever, and waiting forever is the wrong answer.  The query
  stalls and :func:`resolve_stall` turns it into an honest "quorum lost"
  error instead of a silent hang — and never into failover, which is
  exactly the no-split-brain guarantee.
"""

from ..errors import ExecutionError


def resolve_stall(membership, failed_over=()):
    """Classify a stalled query into one of three outcomes.

    Returns ``(verdict, hosts)`` where verdict is one of:

    ``("partial", hosts)``
        Confirmed-down hosts whose work nobody took over (recovery off,
        or failover exhausted).  The caller should give up on their share
        and return the survivors' results flagged incomplete.
    ``("quorum", hosts)``
        Hosts at confirm-level silence without the votes to confirm — the
        signature of this process sitting in a minority partition.  The
        caller should raise: proceeding could double-execute against the
        majority side.
    ``("diagnose", ())``
        No detected failure explains the stall: fall through to the
        flow-control-deadlock / protocol-bug diagnosis.
    """
    if membership is not None:
        confirmed = tuple(
            h for h in membership.confirmed_down() if h not in failed_over
        )
        if confirmed:
            return ("partial", confirmed)
        blocked = membership.quorum_blocked()
        if blocked:
            return ("quorum", blocked)
    return ("diagnose", ())


def quorum_lost_error(blocked, round_no, stall_limit):
    """The shared error for the ``("quorum", ...)`` verdict."""
    return ExecutionError(
        f"quorum lost: no progress for {stall_limit} rounds at round "
        f"{round_no} and hosts {list(blocked)} are silent past the "
        "confirmation window without quorum agreement — this process is "
        "likely in a minority network partition; refusing to fail over"
    )
