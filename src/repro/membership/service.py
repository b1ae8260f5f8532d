"""The heartbeat membership service (failure detector).

Every physical host periodically probes every peer *and* the witness —
an extra observer co-located with the checkpoint store's replicated
coordination service (the same consensus group the
:class:`~repro.recovery.RecoveryManager` models).  Liveness evidence also
rides for free on the data plane: every delivered Batch/DONE/STATUS
message refreshes the receiver's view of the sender
(:meth:`MembershipService.heard`).

Per-host verdicts on the virtual clock, all timeout-driven:

``ALIVE``
    Some observer heard the host within ``suspect_after`` rounds.
``SUSPECT``
    At least one connected observer's silence on the host exceeds
    ``suspect_after``.  Suspicion is cheap and revocable: any fresh
    contact clears it, and a false suspicion that heals before
    confirmation costs nothing (no failover, no rollback).
``CONFIRMED-DOWN``
    A *quorum* of the voting population — the live membership view plus
    the witness — independently reports silence exceeding
    ``suspect_after + confirm_after``.  Only confirmation may trigger
    failover or the partial-results downgrade.

Quorum safety (the no-split-brain rule): the voting population is
``V = |live view| + 1`` (the witness) and confirmation needs
``V // 2 + 1`` votes.  A machine-observer's vote only counts while the
witness has heard *that observer* recently — silence between two
machines is ambiguous (either end may be partitioned), but an observer
the coordination service can still reach is known to be alive and
connected, so its report of silence is evidence about the suspect, not
about itself.  On a symmetric 2|2 split neither side reaches quorum; on
a 1|3 split the majority can evict the isolated machine (epoch fencing
makes that safe) while the minority's lone vote evicts nobody.  Witness
links ride the coordination service's own interconnect: a data-plane
partition never severs them, but a crashed or stalled host sends nothing
at all, so the witness sees genuine silence.

Confirmation is revocable until **fenced**: a confirmed host that talks
again (a transient outage longer than the detection window) rejoins as
ALIVE.  Fencing happens exactly when failover executes — a fenced host's
logical machines have moved, so it never rejoins the view.

Everything is deterministic: probes draw fault verdicts from the
injector's dedicated probe stream, state iteration is in sorted order,
and no wall-clock or unseeded randomness is consulted.
"""

import heapq

from ..runtime.message import HeartbeatMessage

ALIVE = "alive"
SUSPECT = "suspect"
CONFIRMED_DOWN = "confirmed-down"

#: Rounds between heartbeat probe fan-outs.
HEARTBEAT_INTERVAL = 2

#: Observer key for the coordination-service witness (its probe-plane
#: endpoint id is ``num_machines``, one past the last machine).
WITNESS = "witness"


class MembershipService:
    """Cluster-level failure detector over per-observer hearing state."""

    def __init__(
        self,
        num_machines,
        suspect_after=6,
        confirm_after=24,
        net_delay_rounds=1,
        injector=None,
        obs=None,
        sanitizer=None,
    ):
        self.num_machines = num_machines
        self.suspect_after = suspect_after
        self.confirm_after = confirm_after
        self.net_delay = net_delay_rounds
        self.injector = injector
        self.obs = obs
        self.sanitizer = sanitizer
        # Hosts evicted by an executed failover: permanently out of the
        # view, never probed, never rejoin.
        self.fenced = set()
        # Hosts currently carrying a quorum-confirmed down verdict
        # (superset of the fenced hosts; revocable until fenced).
        self._confirmed = set()
        # last_heard[observer][peer] = latest virtual round at which the
        # observer had direct evidence the peer was alive (probe *send*
        # round, or data-plane delivery round).  The witness is one more
        # observer row.
        self._last_heard = {
            o: [0] * num_machines for o in range(num_machines)
        }
        self._last_heard[WITNESS] = [0] * num_machines
        self._state = [ALIVE] * num_machines
        self._suspect_since = [None] * num_machines
        self._quorum_blocked = frozenset()
        # In-flight probes: (deliver_round, counter, observer, peer, sent).
        self._inflight = []
        self._counter = 0
        # --- counters / report state ------------------------------------
        self.probes_sent = 0
        self.probes_lost = 0
        self.probes_delivered = 0
        self.suspicions = 0
        self.false_suspicions = 0  # suspicions cleared before confirmation
        self.confirmations = 0
        self.rejoins = 0
        self.detection_latencies = []  # rounds of silence at confirmation

    @classmethod
    def from_config(cls, config, injector=None, obs=None, sanitizer=None):
        """Build from an :class:`~repro.config.EngineConfig`."""
        return cls(
            config.num_machines,
            suspect_after=config.suspect_after,
            confirm_after=config.confirm_after,
            net_delay_rounds=config.net_delay_rounds,
            injector=injector,
            obs=obs,
            sanitizer=sanitizer,
        )

    # ------------------------------------------------------------------
    # View / verdict queries
    # ------------------------------------------------------------------
    def view(self):
        """Live membership view: hosts not evicted by a failover."""
        return tuple(
            h for h in range(self.num_machines) if h not in self.fenced
        )

    def state_of(self, host):
        return self._state[host]

    def is_confirmed_down(self, host):
        """Detected verdict consulted by the transport's retransmit
        abandonment and the schedulers' recovery/partial decisions."""
        return host in self._confirmed

    def confirmed_down(self):
        """All hosts currently confirmed down (sorted; includes fenced)."""
        return tuple(sorted(self._confirmed))

    def quorum_blocked(self):
        """Hosts some connected observer reports confirm-level silence on,
        without the votes to confirm — the signature of sitting on the
        wrong side of a partition.  These do *not* buy a stalled query
        more time: a bounded wait, then an honest error."""
        return tuple(sorted(self._quorum_blocked))

    def unconfirmed_suspects(self, round_no):
        """Suspected hosts still inside the confirmation window.

        These reset the schedulers' progress clocks: an outage the
        detector is still deliberating on is not a stall (the detected
        analogue of the old ``injector.transient_down()`` oracle read).
        """
        return tuple(
            h
            for h in range(self.num_machines)
            if self._state[h] == SUSPECT and h not in self._quorum_blocked
        )

    def quorum(self):
        """Votes needed to confirm: majority of live view + witness."""
        population = len(self.view()) + 1
        return population // 2 + 1

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------
    def heard(self, observer, peer, round_no):
        """Record direct liveness evidence: ``observer`` (a physical
        host) received traffic from ``peer`` at ``round_no``.  Called by
        the schedulers for every delivered data-plane message — the
        piggyback channel that makes detection fast on chatty links."""
        if peer in self.fenced or observer == peer:
            return
        row = self._last_heard[observer]
        if round_no > row[peer]:
            row[peer] = round_no

    def _machine_up(self, host, round_no):
        if self.injector is None:
            return True
        return self.injector.machine_up(host, round_no)

    def _send_probes(self, round_no):
        for src in range(self.num_machines):
            if src in self.fenced or not self._machine_up(src, round_no):
                continue  # a down host heartbeats nobody
            targets = [
                dst
                for dst in range(self.num_machines)
                if dst != src and dst not in self.fenced
            ]
            targets.append(self.num_machines)  # the witness endpoint
            for dst in targets:
                self.probes_sent += 1
                drop = dup = False
                extra = 0
                if self.injector is not None:
                    probe = HeartbeatMessage(src_machine=src, dst_machine=dst)
                    drop, extra, dup, corrupt = self.injector.on_transmit(
                        probe, round_no
                    )
                    # A corrupted probe fails its checksum at the
                    # receiver and is discarded: corruption degrades to
                    # loss (probes carry no payload worth retransmitting).
                    drop = drop or corrupt
                if drop:
                    self.probes_lost += 1
                    continue
                observer = WITNESS if dst == self.num_machines else dst
                self._push(round_no + self.net_delay + extra, observer, src,
                           round_no)
                if dup:
                    self._push(
                        round_no + self.net_delay + extra + 1, observer, src,
                        round_no,
                    )

    def _push(self, deliver_round, observer, peer, sent_round):
        self._counter += 1
        heapq.heappush(
            self._inflight,
            (deliver_round, self._counter, observer, peer, sent_round),
        )

    def _deliver_probes(self, round_no):
        while self._inflight and self._inflight[0][0] <= round_no:
            _, _, observer, peer, sent = heapq.heappop(self._inflight)
            if observer != WITNESS and not self._machine_up(observer, round_no):
                # A down host's RX path loses the probe, exactly like the
                # data plane loses its queued frames.
                self.probes_lost += 1
                continue
            if peer in self.fenced:
                continue
            self.probes_delivered += 1
            row = self._last_heard[observer]
            # Freshness is the *send* round: a probe that sat in flight
            # while its sender crashed must not vouch for the sender at
            # delivery time.
            if sent > row[peer]:
                row[peer] = sent

    # ------------------------------------------------------------------
    # The per-round verdict pass
    # ------------------------------------------------------------------
    def tick(self, round_no):
        """One detector round: probe, deliver, re-evaluate every verdict.

        Returns the hosts newly CONFIRMED-DOWN this round (sorted) — the
        schedulers' trigger for failover / partial-results handling.
        """
        if round_no % HEARTBEAT_INTERVAL == 0:
            self._send_probes(round_no)
        self._deliver_probes(round_no)

        confirm_threshold = self.suspect_after + self.confirm_after
        witness_row = self._last_heard[WITNESS]
        live = self.view()
        quorum = len(live) + 1
        quorum = quorum // 2 + 1
        newly_confirmed = []
        blocked = set()
        for peer in live:
            votes = 0
            suspected = False
            confirm_level = False
            # Freshest *data-plane* contact with the peer.  The witness
            # deliberately doesn't count here: membership is about who
            # the data plane can reach, and a partitioned host that only
            # the coordination service still hears must stay evicted
            # (witness contact revoking the verdict would oscillate
            # confirm/rejoin forever on a persistent 1|n-1 split).
            freshest = 0
            for observer in live:
                if observer == peer:
                    continue
                heard_at = self._last_heard[observer][peer]
                if heard_at > freshest:
                    freshest = heard_at
                silence = round_no - heard_at
                if silence <= self.suspect_after:
                    continue
                # The witness vouches for the observer: an observer the
                # coordination service cannot reach may itself be the
                # dead/partitioned party, so its silence report is void.
                vouched = round_no - witness_row[observer] <= self.suspect_after
                if not vouched:
                    continue
                suspected = True
                if silence > confirm_threshold:
                    confirm_level = True
                    votes += 1
            witness_silence = round_no - witness_row[peer]
            if witness_silence > self.suspect_after:
                suspected = True
                if witness_silence > confirm_threshold:
                    confirm_level = True
                    votes += 1

            if peer in self._confirmed:
                if round_no - freshest <= self.suspect_after:
                    self._rejoin(peer, round_no)
                continue
            if confirm_level and votes >= quorum:
                self._confirm(peer, votes, quorum, len(live) + 1, round_no,
                              round_no - freshest)
                newly_confirmed.append(peer)
            elif confirm_level:
                blocked.add(peer)
                self._mark_suspect(peer, round_no)
            elif suspected:
                self._mark_suspect(peer, round_no)
            else:
                self._clear_suspect(peer, round_no)
        self._quorum_blocked = frozenset(blocked)
        return newly_confirmed

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _mark_suspect(self, host, round_no):
        if self._state[host] != ALIVE:
            return
        self._state[host] = SUSPECT
        self._suspect_since[host] = round_no
        self.suspicions += 1
        self._event(
            "membership.suspect", round_no,
            {"host": host, "round": round_no},
        )

    def _clear_suspect(self, host, round_no):
        if self._state[host] != SUSPECT:
            return
        self._state[host] = ALIVE
        self._suspect_since[host] = None
        self.false_suspicions += 1
        self._event(
            "membership.clear", round_no,
            {"host": host, "round": round_no},
        )

    def _confirm(self, host, votes, quorum, population, round_no, latency):
        if self.sanitizer is not None:
            self.sanitizer.on_membership_confirm(
                host, votes, quorum, population
            )
        self._state[host] = CONFIRMED_DOWN
        self._confirmed.add(host)
        self.confirmations += 1
        self.detection_latencies.append(latency)
        self._event(
            "membership.confirm", round_no,
            {
                "host": host,
                "votes": votes,
                "quorum": quorum,
                "population": population,
                "latency_rounds": latency,
            },
        )

    def _rejoin(self, host, round_no):
        """A confirmed (but unfenced) host spoke again: revoke the
        verdict.  A false confirmation that heals before failover costs
        nothing but the rounds already spent waiting."""
        self._confirmed.discard(host)
        self._state[host] = ALIVE
        self._suspect_since[host] = None
        self.rejoins += 1
        self._event(
            "membership.rejoin", round_no,
            {"host": host, "round": round_no},
        )

    def fence(self, host, round_no=None):
        """Failover executed for ``host``: evict it from the view for
        good.  Its slot stops being probed, its verdict becomes
        irrevocable, and future quorums are computed over the smaller
        view (plus the witness)."""
        if host in self.fenced:
            return
        self.fenced.add(host)
        self._confirmed.add(host)
        self._state[host] = CONFIRMED_DOWN
        self._event(
            "membership.fence", round_no or 0,
            {"host": host, "view": list(self.view())},
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _event(self, name, round_no, args):
        if self.obs is not None:
            self.obs.cluster_instant(
                name, args=args, round_no=round_no, cat="membership"
            )

    def summary(self):
        """Detector counters for :class:`RunStats` and bench reports."""
        return {
            "view": list(self.view()),
            "fenced": sorted(self.fenced),
            "confirmed_down": list(self.confirmed_down()),
            "probes_sent": self.probes_sent,
            "probes_delivered": self.probes_delivered,
            "probes_lost": self.probes_lost,
            "suspicions": self.suspicions,
            "false_suspicions": self.false_suspicions,
            "confirmations": self.confirmations,
            "rejoins": self.rejoins,
            "detection_latencies": list(self.detection_latencies),
        }
