"""The simulated interconnect.

Messages sent in round ``r`` become deliverable in round
``r + net_delay_rounds``.  Delivery order within a round is deterministic
(by send sequence).  :class:`SimulatedNetwork` is the paper's messaging
layer, which "handles any faults": a plain store-and-forward channel with
no fault, transport or recovery state.  Everything a lossy or sequenced
link adds lives in one subclass, :class:`LossyNetwork`, which the
scheduler builds instead when the cluster has a fault injector or the
query asks for reliable transport:

* **Fault injection** (``faults=``): a :class:`~repro.faults.injector.
  FaultInjector` gets a verdict on every transmitted copy — drop it,
  delay it, duplicate it, corrupt it.  The test hooks ``extra_delay_fn``
  / ``duplicate_fn`` are thin deterministic front-ends to the same
  transmit path (a plain channel has no slot for them).

* **Reliable transport** (``reliable=True``): a classic ARQ layer that
  restores exactly-once delivery.  Every data message gets a per-``(src,
  dst)`` sequence number (``tseq``); the receiver acks each frame and
  suppresses duplicates; the sender retransmits unacked frames on a
  virtual-clock timeout with exponential backoff.  ACKs never reach
  :meth:`Machine.deliver` and are themselves sent unreliably.

* **Recovery**: epoch fencing, wire checksums, the ARQ state as the
  replay log, and abandonment gated on the membership detector.

Accounting counts every *transmitted copy* (first sends, duplicates,
retransmissions) in ``total_messages`` / ``total_bytes``; ACK traffic is
tallied apart (``acks_sent`` / ``transport_bytes``).
"""

import heapq
import zlib

from .message import ACK_BYTES, AckMessage, Batch, CONTROL_BYTES, DoneMessage, StatusMessage

#: Retransmit backoff cap, in rounds of virtual time.
MAX_RTO_ROUNDS = 64
#: Retransmit attempts before a link gives up on a peer the membership
#: detector has CONFIRMED down (and no failover rehosted it): the frame
#: is dropped from the retransmit queue and counted in ``retx_exhausted``
#: instead of backing off forever against a machine that will never ack.
MAX_RETX_ATTEMPTS = 8


def frame_checksum(message):
    """Modelled wire checksum of one frame (header fields only).

    The simulation never flips payload bytes — corruption is modelled at
    the verdict level — so the checksum only needs to be a deterministic
    function of the frame the two endpoints agree on.  A corrupted copy
    is stored with a flipped checksum and fails this check at the
    receiver.
    """
    return zlib.crc32(
        (
            f"{type(message).__name__}:{message.src_machine}:"
            f"{message.dst_machine}:{message.tseq}:"
            f"{message.epoch}"
        ).encode()
    )


class SimulatedNetwork:
    """Deterministic store-and-forward network between machines: one heap
    of ``(round, seq, message)`` entries per receiver."""

    __slots__ = (
        "num_machines", "delay", "num_slots", "prof", "_queues", "_counter",
        "total_messages", "total_bytes", "lost_in_crash",
    )

    def __init__(self, num_machines, net_delay_rounds=1, num_slots=0, prof=None):
        self.num_machines = num_machines
        self.delay = net_delay_rounds
        self.num_slots = num_slots
        self.prof = prof
        self._queues = [[] for _ in range(num_machines)]  # heaps per dst
        self._counter = 0
        self.total_messages = 0
        self.total_bytes = 0
        self.lost_in_crash = 0

    def send(self, message, now_round):
        """Enqueue ``message`` for delivery to ``message.dst_machine``."""
        self.total_messages += 1
        self.total_bytes += self._modelled_bytes(message)
        self._push(message.dst_machine, now_round + self.delay, message)

    def broadcast(self, snapshot, now_round):
        """Send STATUS ``snapshot`` to every other machine: the one object
        is queued for every receiver and the copies are charged in bulk,
        since a STATUS is only read."""
        n = self.num_machines
        due = now_round + self.delay
        for dst in range(n):
            if dst != snapshot.src_machine:
                self._push(dst, due, snapshot)
        self.total_messages += n - 1
        self.total_bytes += (n - 1) * CONTROL_BYTES

    def _push(self, dst, round_, message):
        self._counter += 1
        heapq.heappush(self._queues[dst], (round_, self._counter, message))

    def _modelled_bytes(self, message):
        if isinstance(message, Batch):
            return message.modelled_bytes(self.num_slots)
        return CONTROL_BYTES

    def drain(self, machine_id, now_round):
        """Pop all messages deliverable to ``machine_id`` by ``now_round``."""
        queue = self._queues[machine_id]
        out = []
        if not queue or queue[0][0] > now_round:
            return out  # nothing due: most rounds of a protocol tail
        prof = self.prof
        if prof is not None:
            prof.enter("net.deliver")
        self._pop_due(queue, out, machine_id, now_round)
        if prof is not None:
            prof.exit()
        return out

    def _pop_due(self, queue, out, machine_id, now_round):
        while queue and queue[0][0] <= now_round:
            out.append(heapq.heappop(queue)[2])

    def tick(self, now_round):
        """The per-round retransmit timer: a plain channel has none."""

    def settle(self, slices, round_no, limit):
        """Deliver in-flight traffic ahead of the global clock (the
        sanitizer's post-run audit) until no query work is left or
        ``limit`` is reached; returns the round reached."""
        while round_no < limit and self.has_protocol_work():
            round_no += 1
            self.tick(round_no)
            for s in slices:
                s.deliver(self.drain(s.id, round_no))
        return round_no

    def lose_queue(self, machine_id):
        """A crash at ``machine_id`` loses everything in its RX buffers
        (only a reliable :class:`LossyNetwork` sends a lost frame again)."""
        lost = len(self._queues[machine_id])
        self.lost_in_crash += lost
        self._queues[machine_id] = []
        return lost

    def pending(self):
        """Total undelivered messages (ground-truth check for tests)."""
        return sum(len(q) for q in self._queues)

    def pending_kinds(self):
        counts = {"batch": 0, "done": 0, "status": 0}
        for queue in self._queues:
            for entry in queue:
                message = entry[2]
                if isinstance(message, Batch):
                    counts["batch"] += 1
                elif isinstance(message, DoneMessage):
                    counts["done"] += 1
                elif isinstance(message, StatusMessage):
                    counts["status"] += 1
        return counts

    def has_protocol_work(self):
        """True while undelivered Batch/Done traffic exists on this channel
        (STATUS heartbeats carry no query work)."""
        return any(
            isinstance(entry[2], (Batch, DoneMessage))
            for queue in self._queues for entry in queue
        )

    def transport_summary(self):
        """Transport counters for :class:`RunStats`: a plain channel has none."""
        return None


class LossyNetwork(SimulatedNetwork):
    """The channel a fault plan or reliable transport needs; its heap
    entries also carry each copy's epoch and checksum."""

    def __init__(
        self, num_machines, net_delay_rounds=1, num_slots=0, reliable=False,
        faults=None, retransmit_timeout_rounds=None, obs=None, sanitizer=None,
        prof=None, membership=None,
    ):
        super().__init__(num_machines, net_delay_rounds, num_slots, prof)
        self.reliable = reliable
        self.faults = faults
        self.obs = obs
        self.sanitizer = sanitizer
        # Test hooks: fn(message) -> extra delay rounds; fn(message) -> bool
        # (duplicate delivery one round later).
        self.extra_delay_fn = None
        self.duplicate_fn = None
        # --- reliable-transport state -----------------------------------
        # Base retransmission timeout: generous vs. the round-trip of
        # delay-out + delay-back so a healthy link never spuriously
        # retransmits; overridable for fault runs with heavy extra delay.
        if retransmit_timeout_rounds is not None:
            self._base_rto = retransmit_timeout_rounds
        else:
            self._base_rto = max(2, 2 * (net_delay_rounds + 1))
        self._next_tseq = {}  # (src, dst) -> next sequence number
        # (src, dst, tseq) -> [message, attempts, rto, deadline]
        self._outstanding = {}
        self._delivered = set()  # (src, dst, tseq) accepted exactly once
        # When the scheduler has concluded and is settling in-flight
        # traffic, bypass fault verdicts and retransmit eagerly so the
        # post-run audit drains deterministically.
        self.settling = False
        # --- crash-recovery state (:mod:`repro.recovery`) ----------------
        # Current recovery epoch: every wire copy is stamped with the
        # epoch at push time, and the receive path discards copies from
        # older epochs (fencing stale in-flight traffic after a global
        # rollback).  ``hosts`` aliases the cluster's logical->physical
        # machine map once a RecoveryManager attaches (None = identity);
        # machine ids in messages and queues stay *logical* across
        # failover.
        self.epoch = 0
        self.hosts = None
        # Logical machines moved to a surviving host: frames addressed to
        # them are never abandoned (the new host will ack them).
        self.rehosted = set()
        # Membership detector (:mod:`repro.membership`): the transport's
        # only source of "that peer is gone" — retransmit abandonment is
        # gated on a *detected* confirmed-down verdict, never on the
        # fault injector's ground truth.  None = never abandon.
        self.membership = membership
        # Wire checksums are modelled only when the fault plan can
        # actually corrupt frames; otherwise every copy carries None and
        # the receive path skips verification entirely.
        self._checksums = (
            faults is not None and faults.plan.corrupt_prob > 0.0
        )
        # --- transport / fault counters ---------------------------------
        self.retransmits = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.transport_bytes = 0
        self.dup_suppressed = 0
        self.dropped = 0
        self.fenced = 0  # stale-epoch copies discarded at the receive path
        self.corrupt_dropped = 0  # copies failing the wire checksum
        self.retx_exhausted = 0  # frames abandoned to a confirmed-down peer
        self.frames_replayed = 0  # frames restored into the retransmit queue

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, message, now_round):
        """Enqueue ``message`` for delivery to ``message.dst_machine``."""
        message.epoch = self.epoch
        delay = self.delay
        if self.extra_delay_fn is not None:
            delay += int(self.extra_delay_fn(message))
        if self.reliable and not isinstance(message, AckMessage):
            self._register(message, now_round)
        self._transmit(message, now_round, delay)
        if self.duplicate_fn is not None and self.duplicate_fn(message):
            self._transmit(message, now_round, delay + 1)

    def broadcast(self, snapshot, now_round):
        """Each copy is its own :meth:`send`, seen by the injector, the ARQ
        layer and the hooks."""
        for message in snapshot.copies(self.num_machines):
            self.send(message, now_round)

    def _register(self, message, now_round):
        """Assign a link sequence number and arm the retransmit timer."""
        link = (message.src_machine, message.dst_machine)
        tseq = self._next_tseq.get(link, 0)
        self._next_tseq[link] = tseq + 1
        message.tseq = tseq
        self._outstanding[link + (tseq,)] = [
            message,
            1,
            self._base_rto,
            now_round + self._base_rto,
        ]

    def _count(self, message):
        if isinstance(message, AckMessage):
            self.acks_sent += 1
            self.transport_bytes += ACK_BYTES
        else:
            self.total_messages += 1
            self.total_bytes += self._modelled_bytes(message)

    def _transmit(self, message, now_round, delay):
        """Put one copy on the wire: count it, maybe fault it, enqueue it."""
        self._count(message)
        drop, extra, dup, corrupt = (False, 0, False, False)
        if self.faults is not None and not self.settling:
            drop, extra, dup, corrupt = self.faults.on_transmit(
                message, now_round
            )
        if not drop:
            self._push(
                message.dst_machine, now_round + delay + extra, message,
                corrupt=corrupt,
            )
        else:
            self.dropped += 1
        if dup:
            # The duplicated copy travels independently, one round later;
            # it is a transmitted copy too, but gets no second verdict
            # (and arrives uncorrupted even when the first copy did not).
            self._count(message)
            self._push(message.dst_machine, now_round + delay + extra + 1, message)

    def _push(self, dst, round_, message, corrupt=False):
        # The epoch is recorded per *copy* at push time (not on the shared
        # message object): a frame replayed after a rollback gets fresh
        # current-epoch copies while its stale pre-recovery copies, still
        # queued, keep the old stamp and are fenced at the receive path.
        # The checksum travels per copy too: a corrupted copy stores a
        # flipped checksum and is caught (and discarded) at the receiver,
        # while a retransmission of the same frame arrives clean.
        self._counter += 1
        checksum = None
        if self._checksums:
            checksum = frame_checksum(message)
            if corrupt:
                checksum ^= 1 << (self._counter % 32)
        heapq.heappush(
            self._queues[dst],
            (round_, self._counter, message, self.epoch, checksum),
        )

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _pop_due(self, queue, out, machine_id, now_round):
        """The receiving endpoint: corrupted and stale-epoch copies are
        discarded; under reliable transport ACK frames retire retransmit
        state and are consumed here, and sequenced data frames are acked
        (every copy — a re-ack refreshes a lost ACK) and handed up exactly
        once."""
        while queue and queue[0][0] <= now_round:
            _, _, message, copy_epoch, checksum = heapq.heappop(queue)
            if checksum is not None and checksum != frame_checksum(message):
                # Corrupted on the wire: the checksum catches it and the
                # endpoint discards the copy — corruption degrades to
                # loss.  Under reliable transport the frame is never
                # acked, so the sender's timer retransmits a clean copy;
                # without it the frame is simply gone.
                self.corrupt_dropped += 1
                if self.obs is not None:
                    self.obs.cluster_instant(
                        "net.corrupt_dropped",
                        args={"dst": machine_id},
                        round_no=now_round,
                        cat="net",
                    )
                continue
            if copy_epoch < self.epoch:
                # Stale in-flight copy from before a recovery rollback:
                # fence it.  ACKs are fenced too — an old-epoch ACK must
                # not retire a frame the rollback put back in flight.
                self.fenced += 1
                if self.obs is not None:
                    self.obs.cluster_instant(
                        "net.fenced",
                        args={
                            "dst": machine_id,
                            "epoch": copy_epoch,
                            "current": self.epoch,
                        },
                        round_no=now_round,
                        cat="net",
                    )
                continue
            if isinstance(message, AckMessage):
                self.acks_received += 1
                self._outstanding.pop(
                    (message.dst_machine, message.src_machine, message.acked_tseq),
                    None,
                )
                continue
            if self.reliable and message.tseq is not None:
                key = (message.src_machine, message.dst_machine, message.tseq)
                self._send_ack(message, now_round)
                if key in self._delivered:
                    self.dup_suppressed += 1
                    continue
                self._delivered.add(key)
                if self.sanitizer is not None:
                    self.sanitizer.on_transport_deliver(*key)
            out.append(message)

    def _send_ack(self, message, now_round):
        ack = AckMessage(
            src_machine=message.dst_machine,
            dst_machine=message.src_machine,
            acked_tseq=message.tseq,
        )
        self._transmit(ack, now_round, self.delay)

    def _host_of(self, logical):
        """Physical host currently running logical machine ``logical``."""
        if self.hosts is None:
            return logical
        return self.hosts[logical]

    # ------------------------------------------------------------------
    # Retransmit timer (driven once per scheduler round)
    # ------------------------------------------------------------------
    def tick(self, now_round):
        """Retransmit every outstanding frame whose timeout expired."""
        if not self._outstanding:
            return
        prof = self.prof
        if prof is not None:
            prof.enter("net.retransmit")
        self._tick_outstanding(now_round)
        if prof is not None:
            prof.exit()

    def _tick_outstanding(self, now_round):
        for key in sorted(self._outstanding):
            entry = self._outstanding[key]
            if self.settling and entry[3] > now_round:
                entry[3] = now_round  # fast-drain: no point waiting
            if entry[3] > now_round:
                continue
            src, dst = key[0], key[1]
            if (
                self.faults is not None
                and not self.settling
                and not self.faults.machine_up(self._host_of(src), now_round)
            ):
                # A down machine cannot retransmit; push the deadline so
                # it retries promptly after recovery.
                entry[3] = now_round + 1
                continue
            if (
                not self.settling
                and dst not in self.rehosted
                and self.membership is not None
                and self.membership.is_confirmed_down(self._host_of(dst))
                and entry[1] >= MAX_RETX_ATTEMPTS
            ):
                # The membership detector confirmed the peer down and no
                # failover rehosted it: give up on the link instead of
                # backing off forever.  This is a *detected* verdict —
                # the transport never consults the injector's ground
                # truth about who is permanently dead.
                del self._outstanding[key]
                self.retx_exhausted += 1
                if self.obs is not None:
                    self.obs.cluster_instant(
                        "net.retx_exhausted",
                        args={"src": src, "dst": dst, "tseq": key[2]},
                        round_no=now_round,
                        cat="net",
                    )
                if self.sanitizer is not None:
                    self.sanitizer.note(
                        "retx_exhausted",
                        f"link {src}->{dst} gave up on tseq {key[2]} after "
                        f"{entry[1]} attempts (peer confirmed down)",
                    )
                continue
            message, attempts, rto, _ = entry
            entry[1] = attempts + 1
            entry[2] = min(rto * 2, MAX_RTO_ROUNDS)
            entry[3] = now_round + entry[2]
            self.retransmits += 1
            self._transmit(message, now_round, self.delay)
            if self.obs is not None:
                self.obs.cluster_instant(
                    "net.retx",
                    args={
                        "src": src,
                        "dst": key[1],
                        "tseq": key[2],
                        "attempt": entry[1],
                    },
                    round_no=now_round,
                    cat="net",
                )

    def settle(self, slices, round_no, limit):
        """Under reliable transport a dropped frame may be nowhere in the
        queues yet: settling bypasses fault verdicts and fast-retransmits
        so the audit drains deterministically, then audits the transport."""
        if not self.reliable:
            return super().settle(slices, round_no, limit)
        self.settling = True
        round_no = super().settle(slices, round_no, limit + 4 * self.delay + 8)
        self.sanitizer.check_transport_settled(self)
        return round_no

    # ------------------------------------------------------------------
    # Crash recovery (:mod:`repro.recovery`)
    # ------------------------------------------------------------------
    def checkpoint_state(self):
        """Transport endpoint state: tseq counters, unacked frames, and
        the receiver dedup ledger.

        The in-flight queues are deliberately *not* checkpointed: every
        frame undelivered at checkpoint time is still in ``_outstanding``
        and will be replayed from there after a rollback, while frames
        already accepted are suppressed by the restored ``_delivered``
        set.  Queued copies from the doomed epoch are fenced on receive.
        """
        return {
            "next_tseq": dict(self._next_tseq),
            "outstanding": {
                key: entry[0].clone() for key, entry in self._outstanding.items()
            },
            "delivered": set(self._delivered),
        }

    def restore_state(self, state, now_round):
        """Roll the transport back to a checkpoint and arm the replay.

        Every restored unacked frame is re-stamped with the *current*
        (post-recovery) epoch and its retransmit timer reset to fire
        immediately — this is the exactly-once replay: the ARQ queue is
        the redo log.
        """
        self._next_tseq = dict(state["next_tseq"])
        self._outstanding = {}
        for key, message in state["outstanding"].items():
            replayed = message.clone()
            replayed.epoch = self.epoch
            self._outstanding[key] = [replayed, 0, self._base_rto, now_round]
        self._delivered = set(state["delivered"])
        self.frames_replayed += len(self._outstanding)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def undelivered_work(self):
        """Outstanding Batch/Done frames not yet accepted by a receiver.

        This — not raw ``_outstanding`` size — is what quiescence must
        wait on: a frame that was delivered but whose ACK is still in
        flight carries no undone protocol work.
        """
        count = 0
        for key, entry in self._outstanding.items():
            if key in self._delivered:
                continue
            if isinstance(entry[0], (Batch, DoneMessage)):
                count += 1
        return count

    def has_protocol_work(self):
        """Also a frame awaiting retransmission, nowhere in the queues; not
        a delivered but unacked one, which keeps the quiescent round equal
        to an unreliable run's when no fault fires."""
        if super().has_protocol_work():
            return True
        return bool(self.reliable and self.undelivered_work())

    def transport_summary(self):
        """Transport/fault counters (None without the ARQ layer)."""
        if not self.reliable:
            return None
        return {
            "reliable": self.reliable,
            "retransmits": self.retransmits,
            "acks_sent": self.acks_sent,
            "acks_received": self.acks_received,
            "transport_bytes": self.transport_bytes,
            "dup_suppressed": self.dup_suppressed,
            "dropped": self.dropped,
            "lost_in_crash": self.lost_in_crash,
            "unacked": len(self._outstanding),
            "fenced": self.fenced,
            "corrupt_dropped": self.corrupt_dropped,
            "retx_exhausted": self.retx_exhausted,
            "frames_replayed": self.frames_replayed,
        }
