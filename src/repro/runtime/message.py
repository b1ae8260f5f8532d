"""Messages exchanged between simulated machines.

Data traffic is batched: a :class:`Batch` carries many serialized execution
contexts addressed to one ``(machine, stage, depth)``.  Control traffic is
small fixed-size messages: ``DONE`` (flow-control credit return, paper
Section 3.3) and ``STATUS`` (termination-protocol snapshot broadcast, paper
Section 3.4).
"""

from dataclasses import dataclass, field

#: Modelled wire overhead per message, bytes.
HEADER_BYTES = 64
#: Modelled bytes per context slot (the paper's contexts are fixed-layout
#: records of 8-byte values).
SLOT_BYTES = 8
#: Modelled size of a control message (DONE / STATUS), bytes.
CONTROL_BYTES = 96
#: Modelled size of a transport-layer acknowledgement, bytes.  ACKs are
#: header-only frames (src, dst, acked sequence number) and never carry
#: protocol payload, so they are cheaper than control messages.
ACK_BYTES = 40


@dataclass
class Batch:
    """A buffer of execution contexts bound for one stage of one machine."""

    src_machine: int
    dst_machine: int
    target_stage: int
    depth: int  # 0 for non-RPQ stages
    # The id of the query this batch belongs to (:mod:`repro.runtime.
    # multi`).  Message channels, flow-control credits, and termination
    # counters are all namespaced by it.
    query_id: int = 0
    credit_key: object = None  # flow-control bucket that backed this send
    contexts: list = field(default_factory=list)  # [(vertex, ctx_list)]
    # The receive tie-break, stamped by the sender from the batch's
    # creation (:meth:`~repro.runtime.machine.Machine.run_slice`): it
    # orders an inbox the same way on every backend.
    seq: int = 0
    # Observability: the sender's flow id, carried with the serialized
    # payload so the receive span links causally to the send span across
    # machine tracks (:mod:`repro.obs`).  ``None`` when tracing is off.
    flow_id: object = None
    # Reliable-transport sequence number, per (src, dst) link; assigned by
    # the network when reliable delivery is on, ``None`` otherwise.
    tseq: object = None
    # Recovery epoch the frame was (last) sent in (:mod:`repro.recovery`).
    # Stale copies queued before a recovery epoch bump are fenced at the
    # receive path; frames replayed from a checkpoint are re-stamped.
    epoch: int = 0

    def add(self, vertex, ctx):
        """Serialize one context into the batch (defensive copy)."""
        self.contexts.append((vertex, list(ctx)))

    def clone(self):
        """Deep-enough copy for checkpointing: contexts are duplicated so
        the live run and the snapshot never share mutable state."""
        new = Batch(
            src_machine=self.src_machine,
            dst_machine=self.dst_machine,
            target_stage=self.target_stage,
            depth=self.depth,
            query_id=self.query_id,
            credit_key=self.credit_key,
            contexts=[(vertex, list(ctx)) for vertex, ctx in self.contexts],
        )
        new.seq = self.seq
        new.flow_id = self.flow_id
        new.tseq = self.tseq
        new.epoch = self.epoch
        return new

    def __len__(self):
        return len(self.contexts)

    def modelled_bytes(self, num_slots):
        return HEADER_BYTES + len(self.contexts) * (8 + num_slots * SLOT_BYTES)

    @property
    def priority(self):
        """Receive priority: larger depth first, later stage first."""
        return (-self.depth, -self.target_stage, self.seq)


@dataclass
class DoneMessage:
    """Credit return: the destination fully processed one batch."""

    src_machine: int  # machine that processed the batch
    dst_machine: int  # machine that sent the batch (credit owner)
    query_id: int = 0  # multi-query namespace (see Batch.query_id)
    credit_key: object = None
    seq: int = 0  # no tie-break: a credit return is never queued
    tseq: object = None  # reliable-transport sequence number
    epoch: int = 0  # recovery epoch (see Batch.epoch)

    def clone(self):
        new = DoneMessage(
            src_machine=self.src_machine,
            dst_machine=self.dst_machine,
            query_id=self.query_id,
            credit_key=self.credit_key,
        )
        new.seq = self.seq
        new.tseq = self.tseq
        new.epoch = self.epoch
        return new


@dataclass
class StatusMessage:
    """Termination-protocol snapshot broadcast from one machine."""

    src_machine: int
    dst_machine: int
    query_id: int = 0  # multi-query namespace (see Batch.query_id)
    generation: int = 0
    sent: dict = field(default_factory=dict)  # {(stage, depth): n}
    processed: dict = field(default_factory=dict)
    max_depths: dict = field(default_factory=dict)  # {rpq_id: max observed}
    seq: int = 0  # numbers a broadcast's copies (:meth:`copies`)
    tseq: object = None  # reliable-transport sequence number
    epoch: int = 0  # recovery epoch (see Batch.epoch)

    def clone(self):
        new = StatusMessage(
            src_machine=self.src_machine,
            dst_machine=self.dst_machine,
            query_id=self.query_id,
            generation=self.generation,
            sent=dict(self.sent),
            processed=dict(self.processed),
            max_depths=dict(self.max_depths),
        )
        new.seq = self.seq
        new.tseq = self.tseq
        new.epoch = self.epoch
        return new

    def copies(self, num_machines):
        """This broadcast's copy for every other machine: the snapshot
        itself first, then one per further destination with the next
        ``seq`` and the shared counter dicts (receivers only read them, and
        :meth:`clone` copies) — one broadcast copies the counters once."""
        message = None
        for dst in range(num_machines):
            if dst == self.src_machine:
                continue
            if message is None:
                message = self
            else:
                seq = message.seq + 1
                message = StatusMessage.__new__(StatusMessage)
                message.__dict__.update(self.__dict__)
                message.seq = seq
            message.dst_machine = dst
            yield message


# ----------------------------------------------------------------------
# Wire records (:class:`~repro.runtime.backend.ProcessBackend`)
# ----------------------------------------------------------------------
# Between worker processes a frame travels as a plain tuple
# ``(kind, query_id, ...)`` so that a whole list of them is one
# ``marshal`` blob (one per peer per round: ``runtime/backend.py``).
# Every payload value is a marshal primitive: contexts hold ints, ``None``
# and ``str``/``float`` property captures; credit keys are (nested)
# tuples of ints and strings.  A batch's ``seq`` travels, so a remote
# inbox breaks ties as the simulator's does.  ``flow_id`` / ``tseq`` /
# ``epoch`` (tracing, ARQ, recovery) are simulator-only and keep their
# defaults.
WIRE_BATCH, WIRE_DONE, WIRE_STATUS = 0, 1, 2


def to_wire(message):
    """The wire record of a ``Batch`` / ``DoneMessage`` / ``StatusMessage``."""
    if isinstance(message, Batch):
        return (
            WIRE_BATCH, message.query_id, message.seq, message.src_machine,
            message.dst_machine, message.target_stage, message.depth,
            message.credit_key, message.contexts,
        )
    if isinstance(message, DoneMessage):
        return (
            WIRE_DONE, message.query_id, message.src_machine,
            message.dst_machine, message.credit_key,
        )
    if isinstance(message, StatusMessage):
        return (
            WIRE_STATUS, message.query_id, message.src_machine,
            message.dst_machine, message.generation, message.sent,
            message.processed, message.max_depths,
        )
    raise TypeError(f"no wire record for {message!r}")


def from_wire(record):
    """Rebuild the message a wire record stands for."""
    kind = record[0]
    if kind == WIRE_BATCH:
        _, query_id, seq, src, dst, stage, depth, credit_key, contexts = record
        return Batch(
            src_machine=src, dst_machine=dst, target_stage=stage,
            depth=depth, query_id=query_id, credit_key=credit_key,
            contexts=list(contexts), seq=seq,
        )
    if kind == WIRE_DONE:
        _, query_id, src, dst, credit_key = record
        return DoneMessage(
            src_machine=src, dst_machine=dst, query_id=query_id,
            credit_key=credit_key,
        )
    if kind == WIRE_STATUS:
        _, query_id, src, dst, generation, sent, processed, max_depths = record
        return StatusMessage(
            src_machine=src, dst_machine=dst, query_id=query_id,
            generation=generation, sent=dict(sent),
            processed=dict(processed), max_depths=dict(max_depths),
        )
    raise ValueError(f"unknown wire record kind {kind!r}")


@dataclass
class HeartbeatMessage:
    """Membership-detector probe: "machine ``src`` was alive this round".

    Heartbeats ride the *probe plane* — the
    :class:`~repro.membership.MembershipService`'s own in-flight heap,
    drawing verdicts from the injector's probe stream — never a query
    channel or :meth:`Machine.deliver`.  ``dst_machine == num_machines`` addresses
    the witness endpoint (the coordination service's own observer vote).
    Probes carry no protocol payload: a lost probe just delays hearing.
    """

    src_machine: int
    dst_machine: int
    query_id: int = 0  # probes are cluster-level; kept for event shape
    tseq: object = None  # probes are never reliably delivered
    epoch: int = 0


@dataclass
class AckMessage:
    """Transport-layer acknowledgement: ``acked_tseq`` arrived at ``src``.

    ACKs exist only inside :class:`~repro.runtime.network.LossyNetwork`
    — the receiving network endpoint consumes them to retire retransmit
    state; they are never handed to :meth:`Machine.deliver`.
    """

    src_machine: int  # machine acknowledging receipt
    dst_machine: int  # original sender (owner of the retransmit timer)
    acked_tseq: int = 0
    tseq: object = None  # ACKs themselves are never reliably delivered
    epoch: int = 0  # recovery epoch (see Batch.epoch)
