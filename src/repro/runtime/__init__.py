"""Distributed runtime: simulated machines, messaging, flow control,
termination detection, and the cooperative scheduler."""

from ..pgql.expressions import EvalState
from .buffers import FlowControl, SHARED, remote_target_stages
from .machine import Machine
from .message import Batch, DoneMessage, StatusMessage
from .multi import ClusterScheduler, QueryTask
from .network import SimulatedNetwork
from .stats import MachineStats, RunStats
from .termination import TerminationEvaluator, TerminationProtocol, TerminationTracker
from .worker import Job, Worker

__all__ = [
    "Batch",
    "ClusterScheduler",
    "DoneMessage",
    "EvalState",
    "FlowControl",
    "Job",
    "Machine",
    "MachineStats",
    "QueryTask",
    "RunStats",
    "SHARED",
    "SimulatedNetwork",
    "StatusMessage",
    "TerminationEvaluator",
    "TerminationProtocol",
    "TerminationTracker",
    "Worker",
    "remote_target_stages",
]
