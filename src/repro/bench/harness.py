"""Benchmark harness implementing the paper's methodology (Section 4.1):
each query runs ``repetitions`` times in round-robin order across queries
(eliminating caching effects) and the *median* latency is reported.

Latency here is **virtual time** (scheduler rounds for RPQd, equivalent cost
units / quantum for the baselines); wall-clock medians are recorded too for
transparency.  Virtual time is deterministic, so shapes are stable across
runs and machines.  Wall-clock medians exclude ``warmup`` leading
round-robin passes (import caches, plan caches, and allocator warm-up
otherwise skew the first pass) and are only meaningful relative to the
host they were taken on.
"""

import statistics
import time
from dataclasses import dataclass, field


@dataclass
class BenchResult:
    """Median measurements for one (engine, query) cell."""

    engine: str
    query: str
    virtual_time: float = 0.0
    wall_seconds: float = 0.0
    value: object = None  # first row/scalar, for cross-engine validation
    stats: object = None  # last run's stats object
    samples: list = field(default_factory=list)  # (virtual_time, wall) pairs
    # Methodology provenance: how many measured round-robin passes produced
    # ``samples`` and how many warm-up passes were discarded before them.
    repetitions: int = 0
    warmup: int = 0
    # Message volume from the last measured run (RPQd only; 0 for baselines,
    # which never leave one address space).
    messages: int = 0
    bytes_sent: int = 0
    # Wall-clock phase breakdown from the last measured run, when the
    # executor profiled it (``rpqd_executor(profile=True)``); else None.
    profile: object = None
    # Completeness propagation (repro.faults / repro.recovery): False when
    # any repetition returned partial results; a partial cell's latency is
    # a lower bound, not a measurement.
    complete: bool = True
    timed_out: bool = False
    down_machines: tuple = ()


class BenchHarness:
    """Runs a set of named engines over a set of named queries.

    ``warmup`` leading round-robin passes execute every cell but record no
    samples — medians cover only the ``repetitions`` measured passes.
    """

    def __init__(self, repetitions=3, warmup=1):
        self.repetitions = repetitions
        self.warmup = warmup

    def run(self, engines, queries):
        """``engines``: {name: execute(query_text) -> result-like};
        ``queries``: {name: text}.  Returns {(engine, query): BenchResult}.
        """
        cells = {
            (e, q): BenchResult(
                engine=e, query=q,
                repetitions=self.repetitions, warmup=self.warmup,
            )
            for e in engines
            for q in queries
        }
        for rep in range(self.warmup + self.repetitions):
            measured = rep >= self.warmup
            # Round-robin across queries, inner loop over engines, per the
            # paper's methodology (avoids per-query cache warm effects).
            for qname, qtext in queries.items():
                for ename, execute in engines.items():
                    started = time.perf_counter()
                    result = execute(qtext)
                    wall = time.perf_counter() - started
                    if not measured:
                        continue
                    cell = cells[(ename, qname)]
                    cell.samples.append((result.virtual_time, wall))
                    cell.stats = result.stats
                    cell.messages = getattr(result.stats, "batches_sent", 0)
                    cell.bytes_sent = getattr(result.stats, "bytes_sent", 0)
                    cell.profile = getattr(result.stats, "profile", None)
                    if getattr(result, "complete", True) is False:
                        cell.complete = False
                    if getattr(result, "timed_out", False):
                        cell.timed_out = True
                    down = getattr(result.stats, "down_machines", ())
                    if down:
                        cell.down_machines = tuple(down)
                    rows = result.rows
                    cell.value = rows[0] if rows else None
        for cell in cells.values():
            cell.virtual_time = statistics.median(s[0] for s in cell.samples)
            cell.wall_seconds = statistics.median(s[1] for s in cell.samples)
        return cells


def rpqd_executor(graph, machines, quantum=400.0, profile=False, **overrides):
    """Executor factory for an RPQd configuration.

    With ``profile=True`` every run carries a
    :class:`repro.obs.PhaseProfiler` and the harness copies the phase
    breakdown onto ``BenchResult.profile``; virtual time is unaffected, it
    only adds wall-clock overhead.
    """
    from ..config import EngineConfig
    from ..session import Session

    config = EngineConfig(
        num_machines=machines, quantum=quantum, profile=profile, **overrides
    )
    return Session(graph, config).execute


def baseline_executor(engine_cls, graph, quantum=400.0):
    """Executor factory for a baseline engine (same quantum units)."""
    engine = engine_cls(graph, quantum=quantum)

    def execute(query_text):
        return engine.execute(query_text)

    return execute


def total_virtual_time(cells, engine):
    """Sum of median virtual times across all queries for one engine."""
    return sum(c.virtual_time for (e, _q), c in cells.items() if e == engine)
