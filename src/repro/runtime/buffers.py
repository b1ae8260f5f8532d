"""Credit-based flow control over a fixed pool of message buffers.

Mirrors paper Section 3.3: each machine owns a fixed buffer budget,
partitioned equally among (destination machine, stage); RPQ path stages are
further partitioned per depth up to a configured depth ``D``; depths beyond
``D`` share a per-stage allowance plus per-depth *overflow* buffers that
break flow-control livelocks.  A buffer's credit is returned when the
destination sends a ``DONE`` message after fully processing the batch.
"""

from ..plan.stages import HopKind, StageKind

#: Depth-class token for the shared bucket covering all depths >= D.
SHARED = "shared"


def remote_target_stages(plan):
    """Stage indexes that can receive batches from another machine."""
    targets = set()
    for stage in plan.stages:
        hop = stage.hop
        if hop is not None and hop.kind in (HopKind.NEIGHBOR, HopKind.INSPECT):
            targets.add(hop.target)
    return sorted(targets)


def flow_table(plan, config):
    """What the machines of a run read of ``plan`` under ``config``, resolved
    once and cached on the plan for that config: the RPQ path stages, and the
    send-credit capacity of every remote target's buckets towards one peer as
    ``{(stage, depth class): capacity}``."""
    table = plan.flow_table
    if table is None or table[0] is not config:
        targets = remote_target_stages(plan)
        peers = max(1, config.num_machines - 1)
        share = max(2, config.buffers_per_machine // max(1, len(targets) * peers))
        depth_d = config.rpq_flow_depth
        buckets = {}
        for stage_idx in targets:
            if plan.stages[stage_idx].kind is StageKind.PATH:
                per_depth = max(1, share // (depth_d + 1))
                for d in range(depth_d):
                    buckets[(stage_idx, d)] = per_depth
                buckets[(stage_idx, SHARED)] = config.rpq_shared_credits
            else:
                buckets[(stage_idx, 0)] = share
        path_stages = frozenset(i for spec in plan.rpq_specs() for i in spec.path_stages)
        table = plan.flow_table = (config, path_stages, buckets)
    return table


class FlowControl:
    """Sender-side credit accounting for one machine."""

    def __init__(self, machine_id, plan, config, stats, sanitizer=None, query_id=0):
        self.machine_id = machine_id
        # Multi-query runtime: the credit partition this accountant manages
        # belongs to exactly one query — each query running on a machine
        # owns its own FlowControl, so per-(dst, stage, depth) buckets are
        # namespaced by query id and queries can never starve each other's
        # send credits (per-query flow-control isolation).
        self.query_id = query_id
        self.config = config
        self.stats = stats
        self._san = sanitizer
        self._in_flight = {}
        self._overflow_capacity = config.rpq_overflow_per_depth
        self._total_in_flight = 0
        buckets = flow_table(plan, config)[2]
        self._capacity = {
            (dst, *bucket): capacity
            for dst in range(config.num_machines) if dst != machine_id
            for bucket, capacity in buckets.items()
        }

    def _key_candidates(self, dst, stage_idx, depth, is_path_stage):
        if not is_path_stage:
            return [((dst, stage_idx, 0), False)]
        if depth < self.config.rpq_flow_depth:
            return [((dst, stage_idx, depth), False)]
        return [
            ((dst, stage_idx, SHARED), False),
            ((dst, stage_idx, ("ovf", depth)), True),
        ]

    def try_acquire(self, dst, stage_idx, depth, is_path_stage):
        """Acquire a send credit; returns the bucket key or ``None``.

        Overflow buckets (depth >= D) are created lazily and only used when
        the shared bucket is exhausted (paper: one extra overflow message
        per depth to prevent livelocks).
        """
        for key, is_overflow in self._key_candidates(dst, stage_idx, depth, is_path_stage):
            capacity = (
                self._overflow_capacity if is_overflow else self._capacity.get(key, 0)
            )
            used = self._in_flight.get(key, 0)
            if used < capacity:
                self._in_flight[key] = used + 1
                self._total_in_flight += 1
                if is_overflow:
                    self.stats.overflow_grants += 1
                if self._total_in_flight > self.stats.peak_inflight_buffers:
                    self.stats.peak_inflight_buffers = self._total_in_flight
                if self._san is not None:
                    self._san.on_credit_acquired(self, key, capacity)
                return key
        return None

    def release(self, key):
        """Return a credit (on DONE receipt)."""
        used = self._in_flight.get(key, 0)
        if used <= 0:
            raise RuntimeError(f"credit underflow for bucket {key!r}")
        if used == 1 and key not in self._capacity:
            # Lazily created overflow buckets are dropped once idle: a long
            # unbounded-RPQ run visits ever-deeper depths, and keeping one
            # dict entry per depth forever grows the map without bound.
            del self._in_flight[key]
        else:
            self._in_flight[key] = used - 1
        self._total_in_flight -= 1
        if self._san is not None:
            self._san.on_credit_released(self, key)

    # -- crash recovery (:mod:`repro.recovery`) -------------------------
    def checkpoint_state(self):
        """Snapshot of the mutable credit accounting."""
        return (dict(self._in_flight), self._total_in_flight)

    def restore_state(self, state):
        in_flight, total = state
        self._in_flight = dict(in_flight)
        self._total_in_flight = total

    @property
    def in_flight(self):
        return self._total_in_flight

    def capacity_of(self, dst, stage_idx, depth, is_path_stage):
        """Configured capacity of the bucket(s) covering this destination."""
        total = 0
        for key, is_overflow in self._key_candidates(dst, stage_idx, depth, is_path_stage):
            total += self._overflow_capacity if is_overflow else self._capacity.get(key, 0)
        return total

    def in_flight_of(self, dst, stage_idx, depth, is_path_stage):
        """Credits in flight from the bucket(s) covering this destination."""
        return sum(
            self._in_flight.get(key, 0)
            for key, _overflow in self._key_candidates(dst, stage_idx, depth, is_path_stage)
        )
