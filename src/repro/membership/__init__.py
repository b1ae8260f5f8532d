"""Oracle-free failure detection for the simulated cluster.

Real deployments have no oracle that announces "machine 2 is dead": a
worker learns about its peers only through messages — and through their
absence.  This package closes exactly that gap for the reliability arc
(docs/recovery.md): a per-machine heartbeat-based failure detector on the
virtual clock whose **detected, quorum-confirmed** verdicts — never the
fault injector's ground truth — drive retransmit abandonment, the
partial-results downgrade, and crash-recovery failover.

* :class:`MembershipService` — ALIVE → SUSPECT → CONFIRMED-DOWN
  transitions from heartbeat probes (plus liveness piggybacked on every
  delivered data/STATUS message), with quorum-gated confirmation so a
  partition-minority view can never evict the majority (no split-brain
  double execution).

* :func:`resolve_stall` — stall classification for a query with no
  progress: confirmed-down hosts resolve to failover or partial results,
  quorum-blocked suspicions to an honest "partition suspected" error after
  a bounded wait (unconfirmed suspicions reset the progress clock).

The fault injector's ``permanent_down()``-style methods remain available
to tests and sweep reports as the *oracle* the detector is judged
against; no production recovery decision reads them (CI greps for this).
"""

from .service import (
    ALIVE,
    CONFIRMED_DOWN,
    SUSPECT,
    WITNESS,
    MembershipService,
)
from .watchdog import quorum_lost_error, resolve_stall

__all__ = [
    "ALIVE",
    "CONFIRMED_DOWN",
    "MembershipService",
    "SUSPECT",
    "WITNESS",
    "quorum_lost_error",
    "resolve_stall",
]
