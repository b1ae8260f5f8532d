"""Single-machine baseline engines for the paper's comparisons."""

from .base import BaselineEngine, BaselineStats, UnsupportedQueryError
from .bft import BftEngine
from .distributed_bft import DistributedBftEngine
from .recursive import RecursiveEngine

__all__ = [
    "BaselineEngine",
    "BaselineStats",
    "BftEngine",
    "DistributedBftEngine",
    "RecursiveEngine",
    "UnsupportedQueryError",
]
