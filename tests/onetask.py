"""One query on a private :class:`ClusterScheduler`, held open for tests.

``Session.execute`` builds exactly this and runs it to completion; tests
that poke at the machines, the channel or the sanitizer *before* or
*after* the run need the scheduler and its task in hand.
"""

import repro
from repro.engine.result import MachineSink
from repro.runtime.multi import ClusterScheduler


def make_execution(graph, query, config):
    """Returns ``(cluster, task, sinks, plan)`` with ``task`` admitted."""
    session = repro.connect(graph, config)
    plan = session.compile(query)
    sinks = [MachineSink(plan) for _ in range(config.num_machines)]
    cluster = ClusterScheduler(session.dgraph, config)
    task = cluster.submit(plan, lambda m: sinks[m])
    return cluster, task, sinks, plan


def run(cluster, task):
    """Step to completion; raises the query's own error like ``execute``."""
    cluster.run()
    if task.error is not None:
        raise task.error
    return task.stats
