"""Epoch checkpoints of recoverable cluster state.

A :class:`ClusterCheckpoint` is a consistent global snapshot of every
machine's recoverable query state (reachability-index shard, termination
counters including the RPQ control depth counters, worker job stacks,
flow-control credits, emitted-output watermark) plus the transport
endpoint state (tseq counters, unacked frames, receiver dedup ledger).

Consistency is free in this model: checkpoints are taken at round
boundaries, between rounds of the cooperative scheduler, when no machine
is mid-step — the simulated analogue of the coordinated checkpoint the
paper's termination protocol makes cheap (machines already exchange
global counter snapshots; a terminated epoch is a natural cut).

The :class:`CheckpointStore` models the durable store (a replicated KV
store or shared filesystem in a real deployment): it survives any
machine crash by construction and keeps the last few snapshots so a
crash racing a checkpoint write can always fall back to the previous
one.
"""


class ClusterCheckpoint:
    """One immutable global snapshot, tagged with its recovery epoch.

    ``query_id`` namespaces checkpoints in the multi-query runtime: every
    admitted query cuts its own epochs at its own termination-protocol
    boundaries, so snapshots from co-resident queries can never be
    confused even if they land in a shared durable store.
    """

    __slots__ = (
        "epoch", "round_no", "reason", "machines", "network", "terminated",
        "query_id",
    )

    def __init__(
        self, epoch, round_no, reason, machines, network, terminated,
        query_id=0,
    ):
        self.epoch = epoch
        self.round_no = round_no
        self.reason = reason  # "initial" | "epoch"
        self.machines = machines  # {logical machine id: machine state dict}
        self.network = network  # transport endpoint state dict
        # Globally-terminated (stage, depth) channels at checkpoint time —
        # the cadence marker: a new checkpoint is cut when this set grows.
        self.terminated = terminated
        self.query_id = query_id

    def __repr__(self):
        return (
            f"ClusterCheckpoint(query={self.query_id}, epoch={self.epoch}, "
            f"round={self.round_no}, reason={self.reason!r}, "
            f"machines={len(self.machines)}, "
            f"terminated_channels={len(self.terminated)})"
        )


class CheckpointStore:
    """In-memory stand-in for the durable checkpoint store.

    Keeps the most recent ``keep`` checkpoints; :meth:`latest` is what a
    recovery restores.  Snapshot payloads are value copies (see
    ``Machine.checkpoint_state``) and restores copy again, so one stored
    checkpoint can serve multiple sequential recoveries.
    """

    def __init__(self, keep=2):
        self.keep = keep
        self._checkpoints = []

    def put(self, checkpoint):
        self._checkpoints.append(checkpoint)
        if len(self._checkpoints) > self.keep:
            del self._checkpoints[: len(self._checkpoints) - self.keep]

    def latest(self):
        return self._checkpoints[-1] if self._checkpoints else None

    def clear(self):
        """Release every stored snapshot (query finished or withdrew)."""
        self._checkpoints = []

    def __len__(self):
        return len(self._checkpoints)
