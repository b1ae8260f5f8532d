"""Deterministic, seeded fault plans for the simulated cluster.

A :class:`FaultPlan` is a *description* of the chaos to inject into one
query execution: message-level faults (drop, duplication, reordering via
delay jitter, extra delay) drawn from a seeded RNG, plus scheduled
machine-level faults (stalls/pauses and transient or permanent crashes).
The plan is pure data — JSON-serializable, hashable-by-value, and
reusable across runs — while the :class:`~repro.faults.injector.
FaultInjector` holds the per-execution RNG state.  The same
``(plan, graph, query, config)`` tuple always produces the same faults at
the same virtual instants, so every chaos run is exactly reproducible.

Attach a plan with ``EngineConfig(faults=plan)``; with
``EngineConfig.reliable_transport`` left at ``None`` the reliable
transport layer (:mod:`repro.runtime.network`) switches on automatically
so the protocol survives the injected loss.
"""

import json
import random
from dataclasses import asdict, dataclass, fields

from ..errors import ConfigError

#: Message kinds fault probabilities apply to by default (``ack`` is the
#: transport layer's own acknowledgement traffic, ``probe`` the membership
#: failure detector's heartbeat traffic on the probe plane).
ALL_KINDS = ("batch", "done", "status", "ack", "probe")

#: Partition modes: ``symmetric`` severs every link between machines in
#: different groups; ``asymmetric`` severs only ``groups[0] -> groups[1]``
#: (one-way link failure); ``partial`` severs exactly the directed
#: ``links`` given (a "gray" network).
PARTITION_MODES = ("symmetric", "asymmetric", "partial")


@dataclass(frozen=True)
class MachineStall:
    """Machine ``machine`` does nothing for ``duration`` rounds.

    A stalled machine performs no work and receives no messages (they wait
    in the network); its state is intact — the fail-pause analogue of a GC
    pause, an OS scheduling hiccup, or a slow NUMA node.
    """

    machine: int
    start_round: int
    duration: int

    def validate(self):
        if self.machine < 0:
            raise ConfigError("MachineStall.machine must be >= 0")
        if self.start_round < 1:
            raise ConfigError("MachineStall.start_round must be >= 1")
        if self.duration < 1:
            raise ConfigError("MachineStall.duration must be >= 1")


@dataclass(frozen=True)
class MachineCrash:
    """Machine ``machine`` crashes at ``round``, losing in-flight state.

    All messages sitting in the crashed machine's network receive queue are
    lost at the crash instant (they were in its NIC/RX buffers); durable
    machine state (partition, index, counters, absorbed work) survives —
    the classic fail-recover model.  With ``recover_round=None`` the
    machine stays down forever and the scheduler returns partial results
    (``ResultSet.complete = False``); otherwise it resumes at
    ``recover_round`` and, under reliable transport, retransmissions
    recover every lost message.
    """

    machine: int
    round: int
    recover_round: object = None  # Optional[int]; None = stays down

    def validate(self):
        if self.machine < 0:
            raise ConfigError("MachineCrash.machine must be >= 0")
        if self.round < 1:
            raise ConfigError("MachineCrash.round must be >= 1")
        if self.recover_round is not None and self.recover_round <= self.round:
            raise ConfigError(
                "MachineCrash.recover_round must be > round (or None)"
            )


@dataclass(frozen=True)
class NetworkPartition:
    """A link-level network partition active from ``start_round`` until
    ``heal_round`` (exclusive; ``None`` = never heals).

    Machines stay up — only connectivity is lost, which is exactly what
    makes partitions harder than crashes: the membership detector sees
    silence, but quorum (a majority of the view plus the coordination
    service's witness vote) must distinguish "that machine is dead" from
    "I am on the minority side".  Witness links ride the coordination
    service's own consensus-group interconnect and are never severed by a
    data-plane partition.

    Modes (see :data:`PARTITION_MODES`):

    * ``symmetric`` — machines in different ``groups`` cannot exchange
      messages in either direction (the classic split-brain shape).
    * ``asymmetric`` — messages from ``groups[0]`` to ``groups[1]`` are
      lost, the reverse direction still works (one-way link failure).
    * ``partial`` — exactly the directed ``links`` ``(src, dst)`` are
      severed (a "gray" partial failure).
    """

    start_round: int
    heal_round: object = None  # Optional[int]; None = never heals
    mode: str = "symmetric"
    groups: tuple = ()  # tuple of tuples of machine ids
    links: tuple = ()  # partial mode: directed (src, dst) pairs

    def __post_init__(self):
        # Normalize JSON-shaped nested lists to tuples so the plan stays
        # hashable-by-value and round-trips through to_dict/from_dict.
        object.__setattr__(
            self, "groups", tuple(tuple(g) for g in self.groups)
        )
        object.__setattr__(
            self, "links", tuple(tuple(l) for l in self.links)
        )

    def validate(self):
        if self.start_round < 1:
            raise ConfigError("NetworkPartition.start_round must be >= 1")
        if self.heal_round is not None and self.heal_round <= self.start_round:
            raise ConfigError(
                "NetworkPartition.heal_round must be > start_round (or None)"
            )
        if self.mode not in PARTITION_MODES:
            raise ConfigError(
                f"NetworkPartition.mode must be one of {PARTITION_MODES} "
                f"(got {self.mode!r})"
            )
        if self.mode == "partial":
            if not self.links:
                raise ConfigError(
                    "NetworkPartition(mode='partial') needs at least one "
                    "(src, dst) link"
                )
            for link in self.links:
                if len(link) != 2 or any(
                    not isinstance(m, int) or m < 0 for m in link
                ):
                    raise ConfigError(
                        "NetworkPartition.links entries must be "
                        f"(src, dst) machine-id pairs (got {link!r})"
                    )
        else:
            need = 2 if self.mode == "asymmetric" else 2
            if len(self.groups) < need:
                raise ConfigError(
                    f"NetworkPartition(mode={self.mode!r}) needs at least "
                    f"{need} groups"
                )
            seen = set()
            for group in self.groups:
                if not group:
                    raise ConfigError(
                        "NetworkPartition.groups must be non-empty"
                    )
                for m in group:
                    if not isinstance(m, int) or m < 0:
                        raise ConfigError(
                            "NetworkPartition.groups entries must be "
                            f"machine ids >= 0 (got {m!r})"
                        )
                    if m in seen:
                        raise ConfigError(
                            f"NetworkPartition.groups overlap on machine {m}"
                        )
                    seen.add(m)

    def machines(self):
        """Every machine id the partition mentions (for validate_for)."""
        out = set()
        for group in self.groups:
            out.update(group)
        for src, dst in self.links:
            out.add(src)
            out.add(dst)
        return out

    def active(self, round_no):
        if round_no < self.start_round:
            return False
        return self.heal_round is None or round_no < self.heal_round

    def blocks(self, src, dst):
        """True when this partition (while active) severs ``src -> dst``."""
        if self.mode == "partial":
            return (src, dst) in self.links
        src_group = dst_group = None
        for i, group in enumerate(self.groups):
            if src in group:
                src_group = i
            if dst in group:
                dst_group = i
        if src_group is None or dst_group is None or src_group == dst_group:
            return False
        if self.mode == "asymmetric":
            return src_group == 0 and dst_group == 1
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic chaos schedule for one execution.

    Attributes:
        seed: RNG seed for all probabilistic decisions.
        drop_prob: probability a transmitted message copy is lost.
        dup_prob: probability a transmitted message is duplicated (the
            extra copy travels independently, one round later).
        delay_prob / max_delay_rounds: probability a message is held back,
            and the maximum extra rounds (uniform in ``[1, max]``).
        reorder_prob / reorder_window: probability a message gets delivery
            jitter of ``[0, window]`` rounds — enough for later messages to
            overtake it (reordering is delay by another name in a
            store-and-forward network).
        corrupt_prob: probability a transmitted copy's payload is bit-
            flipped in flight.  The transport checksum catches the flip at
            the receive path: under reliable transport the corrupted frame
            is discarded unacked and retransmitted (corruption degrades to
            loss); without ARQ the frame is simply lost at the NIC.
        kinds: message kinds the probabilistic faults apply to
            (subset of ``("batch", "done", "status", "ack", "probe")``).
            Faults on ``probe`` traffic draw from a *separate* seeded RNG
            stream so adding the membership detector never perturbs the
            data-plane fault sequence of an existing plan.
        stalls / crashes: scheduled machine-level faults.
        partitions: scheduled link-level :class:`NetworkPartition` windows.
    """

    seed: int = 0
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    max_delay_rounds: int = 4
    reorder_prob: float = 0.0
    reorder_window: int = 2
    corrupt_prob: float = 0.0
    kinds: tuple = ALL_KINDS
    stalls: tuple = ()
    crashes: tuple = ()
    partitions: tuple = ()

    def __post_init__(self):
        for name in (
            "drop_prob", "dup_prob", "delay_prob", "reorder_prob",
            "corrupt_prob",
        ):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                raise ConfigError(f"FaultPlan.{name} must be in [0, 1]")
        if self.max_delay_rounds < 1:
            raise ConfigError("FaultPlan.max_delay_rounds must be >= 1")
        if self.reorder_window < 0:
            raise ConfigError("FaultPlan.reorder_window must be >= 0")
        unknown = set(self.kinds) - set(ALL_KINDS)
        if unknown:
            raise ConfigError(
                f"FaultPlan.kinds has unknown kinds {sorted(unknown)!r} "
                f"(known: {list(ALL_KINDS)})"
            )
        # Normalize list inputs (e.g. straight from JSON) to tuples so the
        # plan stays hashable-by-value and safely shareable.
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        # Validate each scheduled event, naming the offending entry so a
        # bad JSON plan points straight at the line to fix.
        for label, events in (
            ("stalls", self.stalls),
            ("crashes", self.crashes),
            ("partitions", self.partitions),
        ):
            for i, event in enumerate(events):
                try:
                    event.validate()
                except ConfigError as exc:
                    raise ConfigError(
                        f"FaultPlan.{label}[{i}]: {exc}"
                    ) from exc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def permanent_crashes(self):
        """Crashes that never recover (trigger the partial-results path)."""
        return tuple(c for c in self.crashes if c.recover_round is None)

    def validate_for(self, num_machines):
        """Check machine ids against an actual cluster size."""
        for event in self.stalls + self.crashes:
            if event.machine >= num_machines:
                raise ConfigError(
                    f"fault targets machine {event.machine} but the cluster "
                    f"has {num_machines} machines"
                )
        for i, partition in enumerate(self.partitions):
            for m in partition.machines():
                if m >= num_machines:
                    raise ConfigError(
                        f"FaultPlan.partitions[{i}] targets machine {m} but "
                        f"the cluster has {num_machines} machines"
                    )
        alive = num_machines - len(
            {c.machine for c in self.permanent_crashes()}
        )
        if alive < 1:
            raise ConfigError("FaultPlan permanently crashes every machine")

    # ------------------------------------------------------------------
    # JSON (CLI: ``repro query --faults PLAN.json``)
    # ------------------------------------------------------------------
    def to_dict(self):
        data = asdict(self)
        data["kinds"] = list(self.kinds)
        data["stalls"] = [asdict(s) for s in self.stalls]
        data["crashes"] = [asdict(c) for c in self.crashes]
        data["partitions"] = [
            {
                "start_round": p.start_round,
                "heal_round": p.heal_round,
                "mode": p.mode,
                "groups": [list(g) for g in p.groups],
                "links": [list(l) for l in p.links],
            }
            for p in self.partitions
        ]
        return data

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    def to_file(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @staticmethod
    def _entries(data, name, cls_):
        """Deserialize one scheduled-event list, naming bad entries."""
        out = []
        for i, item in enumerate(data.get(name, ()) or ()):
            if not isinstance(item, dict):
                raise ConfigError(
                    f"fault plan {name}[{i}] must be a JSON object "
                    f"(got {item!r})"
                )
            known = {f.name for f in fields(cls_)}
            unknown = set(item) - known
            if unknown:
                raise ConfigError(
                    f"fault plan {name}[{i}] has unknown keys "
                    f"{sorted(unknown)!r} (known: {sorted(known)})"
                )
            try:
                out.append(cls_(**item))
            except ConfigError as exc:
                raise ConfigError(f"fault plan {name}[{i}]: {exc}") from exc
        return tuple(out)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("fault plan must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"fault plan has unknown keys {sorted(unknown)!r}")
        kwargs = dict(data)
        kwargs["stalls"] = cls._entries(data, "stalls", MachineStall)
        kwargs["crashes"] = cls._entries(data, "crashes", MachineCrash)
        kwargs["partitions"] = cls._entries(
            data, "partitions", NetworkPartition
        )
        if "kinds" in kwargs:
            kwargs["kinds"] = tuple(kwargs["kinds"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())


def seeded_sweep(
    num_plans,
    base_seed=1,
    num_machines=4,
    horizon=120,
    drop_prob=0.05,
    dup_prob=0.05,
    delay_prob=0.1,
    max_delay_rounds=4,
    reorder_prob=0.1,
    reorder_window=2,
    stalls=True,
    crashes=True,
    permanent=False,
    partitions=False,
    corrupt_prob=0.0,
):
    """``num_plans`` deterministic fault plans for a chaos sweep.

    Plan ``i`` uses seed ``base_seed + i`` for both the message-fault RNG
    and the derivation of its machine-fault schedule: when enabled, each
    plan stalls one machine for a random window and transiently crashes
    another within the first ``horizon`` rounds (never machine 0's crash
    and stall at once, so at least one fault-free machine remains).

    With ``permanent=True`` the crash never recovers — the sweep for the
    crash-recovery path (``EngineConfig(recovery=True)``), where the dead
    machine's partition must fail over to a survivor.

    With ``partitions=True`` each plan additionally schedules one healing
    :class:`NetworkPartition` — a random mode (symmetric split,
    asymmetric one-way severance, or a partial single-link cut) over a
    random subset of machines.  Short windows exercise the false-
    suspicion path of the membership detector (suspect, then refute on
    heal — no failover); windows longer than the detection threshold
    exercise quorum-gated eviction of a live-but-unreachable machine.
    Either way the sweep oracle (bit-identical to fault-free) holds.
    """
    plans = []
    for i in range(num_plans):
        seed = base_seed + i
        rng = random.Random(seed * 7919 + 13)
        plan_stalls = ()
        plan_crashes = ()
        plan_partitions = ()
        if stalls:
            plan_stalls = (
                MachineStall(
                    machine=rng.randrange(num_machines),
                    start_round=rng.randint(2, max(2, horizon // 2)),
                    duration=rng.randint(3, 20),
                ),
            )
        if crashes:
            crash_round = rng.randint(2, max(2, horizon // 2))
            recover_round = crash_round + rng.randint(5, 30)
            plan_crashes = (
                MachineCrash(
                    machine=rng.randrange(num_machines),
                    round=crash_round,
                    recover_round=None if permanent else recover_round,
                ),
            )
        if partitions and num_machines >= 2:
            start = rng.randint(2, max(2, horizon // 2))
            heal = start + rng.randint(6, 40)
            mode = rng.choice(PARTITION_MODES)
            isolated = rng.randrange(num_machines)
            rest = tuple(m for m in range(num_machines) if m != isolated)
            if mode == "partial":
                dst = rng.choice(rest)
                plan_partitions = (
                    NetworkPartition(
                        start_round=start,
                        heal_round=heal,
                        mode="partial",
                        links=((isolated, dst), (dst, isolated)),
                    ),
                )
            else:
                plan_partitions = (
                    NetworkPartition(
                        start_round=start,
                        heal_round=heal,
                        mode=mode,
                        groups=((isolated,), rest),
                    ),
                )
        plans.append(
            FaultPlan(
                seed=seed,
                drop_prob=drop_prob,
                dup_prob=dup_prob,
                delay_prob=delay_prob,
                max_delay_rounds=max_delay_rounds,
                reorder_prob=reorder_prob,
                reorder_window=reorder_window,
                corrupt_prob=corrupt_prob,
                stalls=plan_stalls,
                crashes=plan_crashes,
                partitions=plan_partitions,
            )
        )
    return plans
