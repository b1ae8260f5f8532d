"""Chaos attaches at one seam.

A fault-free cluster runs the paper's round over the plain channel: the
scheduler builds no :class:`~repro.faults.cluster.ClusterChaos`, every
query gets a :class:`SimulatedNetwork`, and neither the scheduler nor the
plain channel names any fault, ARQ, failover or recovery state.  All of
that lives in :class:`LossyNetwork` and ``ClusterChaos``, picked once
when the scheduler and each query's channel are built.
"""

import ast
import pathlib
import re

import pytest

import repro
from repro import EngineConfig
from repro.datagen import mini_ldbc
from repro.engine.result import MachineSink
from repro.faults import FaultPlan
from repro.faults.cluster import ClusterChaos
from repro.runtime.multi import ClusterScheduler
from repro.runtime.network import LossyNetwork, SimulatedNetwork

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
QUERY = "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,2}/->(b:Person)"


def identifiers(tree):
    """Every name the code uses: variables, attributes, definitions,
    parameters, keywords, imported names and the modules they come from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.value.lineno, node.arg
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or ""
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def offenders(tree, banned):
    """Names in which a banned word starts a ``_``-separated part: ``fault``
    is found in ``fault_plan`` and ``_faults`` but not in ``default``, and
    ``ack`` in ``acks`` but not in ``stack``.  A word with ``_`` in it, such
    as ``extra_delay_fn``, is matched on the whole name the same way."""
    found = re.compile("(?:^|_)(?:" + "|".join(map(re.escape, banned)) + ")")
    return sorted(
        f"{lineno}: {name}"
        for lineno, name in identifiers(tree)
        if found.search(name.lower())
    )


class TestNames:
    def test_a_banned_word_must_start_a_name_part(self):
        tree = ast.parse(
            "class Plain:\n"
            "    def due(self, stack):\n"
            "        self.fault_plan = min(stack, default=0)\n"
            "        self._extra_delay_fn = self.tracks\n"
        )
        assert offenders(tree, ("fault", "ack", "extra_delay_fn")) == [
            "3: fault_plan", "4: _extra_delay_fn",
        ]

    def test_the_scheduler_names_no_chaos(self):
        tree = ast.parse((SRC / "runtime" / "multi.py").read_text())
        banned = (
            "injector", "membership", "host_map", "hostmap", "recoverymanager",
            "resolve_stall", "quorum_lost_error", "blast_radius", "host_of",
            "hosted", "slice_up", "fail_over", "rollback", "checkpoint",
        )
        assert offenders(tree, banned) == []

    def test_the_plain_channel_names_no_fault_arq_epoch_checksum_or_hook(self):
        tree = ast.parse((SRC / "runtime" / "network.py").read_text())
        (plain,) = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "SimulatedNetwork"
        ]
        banned = (
            "fault", "reliable", "tseq", "ack", "outstanding", "delivered",
            "settling", "epoch", "checksum", "fenc", "extra_delay_fn",
            "duplicate_fn", "membership", "hosts", "rehosted", "retransmit",
            "rto", "sanitizer", "obs",
        )
        assert offenders(plain, banned) == []

    def test_the_lossy_channel_keeps_everything_it_adds(self):
        tree = ast.parse((SRC / "runtime" / "network.py").read_text())
        (lossy,) = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "LossyNetwork"
        ]
        names = {name for _lineno, name in identifiers(lossy)}
        assert {
            "faults", "reliable", "extra_delay_fn", "duplicate_fn", "epoch",
            "_checksums", "_outstanding", "membership", "checkpoint_state",
            "restore_state", "undelivered_work", "broadcast",
        } <= names


class TestConstruction:
    def _cluster(self, **overrides):
        graph, _info = mini_ldbc("xs")
        config = EngineConfig(num_machines=3, **overrides)
        session = repro.connect(graph, config)
        plan = session.compile(QUERY)
        cluster = ClusterScheduler(session.dgraph, config)
        return cluster, plan

    def test_a_fault_free_cluster_builds_no_chaos_and_only_plain_channels(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a fault-free run built a lossy channel")

        monkeypatch.setattr(LossyNetwork, "__init__", refuse)
        cluster, plan = self._cluster(max_concurrent_queries=2)
        assert cluster.chaos is None
        tasks = [cluster.submit(plan, lambda m: MachineSink(plan)) for _ in range(3)]
        assert [type(t.channel) for t in tasks] == [SimulatedNetwork] * 3
        cluster.run()
        assert all(t.finished and t.error is None for t in tasks)
        assert len({t.stats.outputs for t in tasks}) == 1
        assert all(t.stats.transport is None for t in tasks)
        assert all(t.stats.fault_events is None for t in tasks)

    def test_reliable_transport_alone_gets_a_lossy_channel_but_no_chaos(self):
        cluster, plan = self._cluster(reliable_transport=True)
        task = cluster.submit(plan, lambda m: MachineSink(plan))
        assert cluster.chaos is None
        assert type(task.channel) is LossyNetwork
        assert task.channel.reliable and task.channel.faults is None

    @pytest.mark.parametrize("reliable", [None, False])
    def test_a_fault_plan_builds_the_chaos_and_lossy_channels(self, reliable):
        cluster, plan = self._cluster(
            faults=FaultPlan(seed=1, drop_prob=0.1), reliable_transport=reliable
        )
        task = cluster.submit(plan, lambda m: MachineSink(plan))
        assert isinstance(cluster.chaos, ClusterChaos)
        assert type(task.channel) is LossyNetwork
        assert task.channel.faults is cluster.chaos.injector
        assert task.channel.reliable is (reliable is None)


class TestHooks:
    @pytest.mark.parametrize("hook", ["extra_delay_fn", "duplicate_fn"])
    def test_a_plain_channel_refuses_a_hook(self, hook):
        net = SimulatedNetwork(2)
        with pytest.raises(AttributeError):
            setattr(net, hook, lambda message: 1)
