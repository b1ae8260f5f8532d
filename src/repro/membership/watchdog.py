"""Per-query progress tracking and stall resolution for the scheduler.

Every query task of the :class:`~repro.runtime.multi.ClusterScheduler`
(one task for a solo ``execute``, several under ``submit``) needs the
same judgement call: *no work happened for a while — is that a failure,
and whose?*  This module makes it, and it only consults **detected**
state, never the fault injector's ground truth:

* Progress (cost units consumed) resets the clock.
* An *unconfirmed* suspicion resets the clock too: the detector is still
  deliberating, and an outage under deliberation is not a stall — the
  peer may recover, or retransmissions may land.  This replaces the old
  ``injector.transient_down()`` oracle read.
* A *quorum-blocked* suspicion (confirm-level silence without the votes)
  does **not** reset the clock: from inside a minority partition the rest
  of the cluster looks dead forever, and waiting forever is the wrong
  answer.  The watchdog expires and :func:`resolve_stall` turns it into
  an honest "quorum lost" error instead of a silent hang — and never
  into failover, which is exactly the no-split-brain guarantee.
"""

from ..errors import ExecutionError


class ProgressWatchdog:
    """Progress clock for one query task."""

    def __init__(self, stall_limit, start_round=0):
        self.stall_limit = stall_limit
        self.last_progress = start_round

    def observe(self, round_no, made_progress, membership=None):
        """Advance the clock for this round.

        ``made_progress`` is the caller's own signal (cost units consumed,
        batches delivered).  When a membership service is attached, its
        unconfirmed suspicions also count as "not a stall" — but its
        quorum-blocked hosts deliberately do not (see module docstring).
        """
        if made_progress:
            self.last_progress = round_no
        elif membership is not None and membership.unconfirmed_suspects(
            round_no
        ):
            self.last_progress = round_no

    def reset(self, round_no):
        """Restart the clock (post-rollback replay, query re-admission)."""
        self.last_progress = round_no

    def expired(self, round_no):
        return round_no - self.last_progress > self.stall_limit


def resolve_stall(membership, failed_over=()):
    """Classify an expired watchdog into one of three outcomes.

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
