"""Liveness of unbounded cyclic RPQs on default flow-control budgets.

A worker whose send is refused absorbs a received batch instead (paper
Section 3.2, case iii), and absorbing returns the sender's credit; as long
as absorption is never refused, every credit a blocked send waits on can
come back.  The all-sources ``KNOWS+`` query at ``xs`` — the chaos-smoke
query of CI — used to wedge on both backends when absorption was capped at
a fixed nesting depth.
"""

import multiprocessing

import pytest

import repro
from repro.datagen import mini_ldbc
from repro.faults import FaultPlan

QUERY = "SELECT COUNT(*) FROM MATCH (a)-/:KNOWS+/->(b)"
#: ``QUERY``'s answer on ``mini_ldbc("xs", 7)``.
EXPECTED = 12181

#: The seed-7 plan of CI's chaos smoke: loss, duplication, delay,
#: reordering, a stall and a crash with recovery of the machine.
CHAOS_SMOKE_PLAN = {
    "seed": 7, "drop_prob": 0.08, "dup_prob": 0.05,
    "delay_prob": 0.1, "max_delay_rounds": 3,
    "reorder_prob": 0.1, "reorder_window": 2,
    "kinds": ["batch", "done", "status", "ack"],
    "stalls": [{"machine": 2, "start_round": 6, "duration": 5}],
    "crashes": [{"machine": 1, "round": 12, "recover_round": 20}],
}


@pytest.fixture(scope="module")
def xs_graph():
    graph, _info = mini_ldbc("xs", 7)
    return graph


def test_faulted_cyclic_rpq_finishes_on_default_budgets(xs_graph):
    plan = FaultPlan.from_dict(CHAOS_SMOKE_PLAN)
    with repro.connect(xs_graph, faults=plan, sanitize=True) as session:
        result = session.execute(QUERY)
    assert result.complete
    assert result.scalar() == EXPECTED
    assert result.stats.flow_control_blocks > 0  # flow control did bite


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method",
)
# Defaults as CI runs the query, then two contexts per batch: more sends
# block, so a capped absorption wedged this run every time.
@pytest.mark.parametrize("overrides", [{}, {"batch_size": 2}])
def test_process_backend_cyclic_rpq_finishes_under_a_deadline(
    xs_graph, overrides, monkeypatch
):
    # A wedged run raises ExecutionError at the deadline instead of hanging.
    monkeypatch.setattr("repro.runtime.backend._RUN_TIMEOUT_S", 20.0)
    with repro.connect(xs_graph, backend="process", **overrides) as session:
        for _ in range(2):
            assert session.execute(QUERY).scalar() == EXPECTED
    assert multiprocessing.active_children() == []


def test_lost_credits_are_diagnosed_as_a_flow_control_bug():
    # Every DONE dropped on an unreliable transport: no credit returns, so
    # the stall is the protocol's fault and the message must not blame the
    # budgets.  The stall is declared on the virtual clock, at the same
    # round on every run.
    from repro.errors import FlowControlDeadlock
    from repro.graph.generators import chain_graph
    from repro.obs import Recorder

    plan = FaultPlan(seed=1, drop_prob=1.0, kinds=("done",))
    texts = []
    for observe in (None, None, Recorder()):
        with repro.connect(
            chain_graph(30), num_machines=2, faults=plan,
            reliable_transport=False, batch_size=1, buffers_per_machine=4,
            stall_limit=200,
        ) as session:
            with pytest.raises(FlowControlDeadlock) as exc:
                session.execute(
                    "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", observe=observe
                )
        text = str(exc.value)
        texts.append(text)
        assert "made no progress for 200 rounds at round 231:" in text
        assert "machine 0: inbox 0, absorbed 0, in-flight credits" in text
        assert "machine 1: inbox" in text
        assert "flow-control bug" in text
        assert "Increase" not in text
        # The wait-for graph: every worker names the bucket its refused send
        # waits on, whose one credit is the one that never came back.
        assert "machine 0 worker 0: 1 jobs, send refused to (dst 1, stage " in text
    assert texts[0] == texts[1] == texts[2]  # observing changes nothing
    (event,) = [e for e in observe.events if e["name"] == "flow.deadlock"]
    payload = event["args"]
    assert payload["round"] == 231 and f"{payload['blocks']} flow-control blocks" in text
    for m in payload["machines"]:
        assert (
            f"machine {m['machine']}: inbox {m['inbox']}, absorbed {m['absorbed']}, "
            f"in-flight credits {m['in_flight']}"
        ) in text
    assert len(payload["workers"]) == 8
    for w in payload["workers"]:
        wait = w["waits_on"]
        assert wait is not None and wait["in_flight"] == wait["capacity"]
        assert (
            f"machine {w['machine']} worker {w['worker']}: {w['jobs']} jobs, send "
            f"refused to (dst {wait['dst']}, stage {wait['stage']}, depth "
            f"{wait['depth']}): {wait['in_flight']} of {wait['capacity']} credits "
            "in flight"
        ) in text
