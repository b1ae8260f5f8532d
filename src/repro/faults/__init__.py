"""Deterministic fault injection for the simulated cluster (``repro.faults``).

The paper assumes the messaging layer "handles any faults"; this package
removes that assumption so the protocol can be exercised — and proven
correct — under message loss, duplication, reordering, extra delay,
machine stalls, and transient crashes.  Faults come from a seeded
:class:`FaultPlan` (pure data, JSON round-trippable), applied by a
:class:`FaultInjector` during one execution, and survived by the reliable
transport layer in :mod:`repro.runtime.network`.  The chaos oracle —
seeded plans must reproduce the fault-free results — is
:func:`repro.sweep.run_sweep` with ``{"faults": plan}`` variants.  See
``docs/faults.md``.
"""

from .injector import FaultInjector, message_kind
from .plan import (
    ALL_KINDS,
    PARTITION_MODES,
    FaultPlan,
    MachineCrash,
    MachineStall,
    NetworkPartition,
    seeded_sweep,
)

__all__ = [
    "ALL_KINDS",
    "FaultInjector",
    "FaultPlan",
    "MachineCrash",
    "MachineStall",
    "NetworkPartition",
    "PARTITION_MODES",
    "message_kind",
    "seeded_sweep",
]
