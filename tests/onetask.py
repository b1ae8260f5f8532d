"""One query on a private :class:`ClusterScheduler`, held open for tests.

``Session.execute`` builds exactly this and runs it to completion; tests
that poke at the machines, the channel or the sanitizer *before* or
*after* the run need the scheduler and its task in hand.
"""

import pytest

import repro
from repro.engine.result import MachineSink
from repro.runtime import multi
from repro.runtime.multi import ClusterScheduler
from repro.runtime.network import LossyNetwork


def make_execution(graph, query, config, lossy=False):
    """Returns ``(cluster, task, sinks, plan)`` with ``task`` admitted.

    A fault-free, unreliable query runs on a plain channel, which has no
    ``extra_delay_fn`` / ``duplicate_fn`` hooks; ``lossy=True`` builds its
    channel as a :class:`LossyNetwork` (no injector, no ARQ) instead, so
    a test can set them.
    """
    session = repro.connect(graph, config)
    plan = session.compile(query)
    sinks = [MachineSink(plan) for _ in range(config.num_machines)]
    cluster = ClusterScheduler(session.dgraph, config)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if lossy:
            monkeypatch.setattr(multi, "SimulatedNetwork", LossyNetwork)
        task = cluster.submit(plan, lambda m: sinks[m])
    if lossy:
        assert type(task.channel) is LossyNetwork
    return cluster, task, sinks, plan


def run(cluster, task):
    """Step to completion; raises the query's own error like ``execute``."""
    cluster.run()
    if task.error is not None:
        raise task.error
    return task.stats
