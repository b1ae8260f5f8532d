"""The traced run: per-layer metrics, measured from outside the engine.

Layers are the modules under ``src/repro/``.  The traced driver re-creates
``Session.execute``'s pipeline explicitly — plan-cache lookup, ``parse``,
``compile_query``, ``MachineSink``s, ``session.backend.run`` with a
``PhaseProfiler``, ``assemble_results`` — so every stage is a span
recorded by this file; what happens *inside* ``backend.run`` comes from
the engine's own public ``profile`` summary, read as-is, and counters come
from ``result.stats``.  Time metrics are raw seconds per traced pass
(mean over the traced passes); counts are per pass.

A metric that does not apply to a workload (shared-memory spawn on the
simulator, cluster rounds outside the concurrent workload, a query the
workload does not run) is reported as 0.
"""

import os
import pickle
import random
import resource
import statistics
import time

import repro
from repro.engine.result import MachineSink, assemble_results
from repro.graph.distributed import DistributedGraph
from repro.graph.shm import SharedGraphStore, attach_csrs
from repro.obs.prof import PhaseProfiler, merge_summaries
from repro.pgql.parser import parse
from repro.plan.compiler import compile_query
from repro.rpq.reachability import ReachabilityIndex
from repro.runtime.message import Batch

import bench
import spans as span_mod
from refkernel import ref_wall
import workloads as wl_mod

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

_S, _US, _NS, _MS, _N, _F = "s", "us", "ns", "ms", "count", "frac"
_LO, _HI = "lower", "higher"

PER_LAYER = {
    # session: bookkeeping (control passes of this run, tracing off)
    "session.pass_wall_s_p50": (_S, _LO),
    "session.pass_norm_s_p50": (_S, _LO),
    "session.queries_per_norm_s": ("1/s", _HI),
    **{f"session.q.{q}.norm_ms_p50": (_MS, _LO) for q in wl_mod.QUERY_NAMES},
    "session.query_norm_ms_p95": (_MS, _LO),
    "session.query_norm_ms_p99": (_MS, _LO),
    "session.unaccounted_frac": (_F, _LO),
    # pgql
    "pgql.parse.calls": (_N, _LO),
    "pgql.parse.self_s": (_S, _LO),
    "pgql.parse.us_per_call": (_US, _LO),
    # plan
    "plan.compile.calls": (_N, _LO),
    "plan.compile.self_s": (_S, _LO),
    "plan.compile.ms_per_call": (_MS, _LO),
    "plan.cache.hit_rate": (_F, _HI),
    # graph (stand-alone probes on the workload's graph)
    "graph.partition.build_s": (_S, _LO),
    "graph.partition.edge_cut_frac": (_F, _LO),
    "graph.shm.export_s": (_S, _LO),
    "graph.shm.attach_s": (_S, _LO),
    "graph.shm.bytes": ("B", _LO),
    # runtime.backend
    "runtime.backend.run.self_s": (_S, _LO),
    "runtime.backend.spawn.self_s": (_S, _LO),
    "runtime.backend.coordinate.self_s": (_S, _LO),
    "runtime.backend.merge.self_s": (_S, _LO),
    "runtime.backend.worker_rss_mb": ("MB", _LO),
    "runtime.backend.speedup_vs_sim": ("x", _HI),
    # runtime.scheduler / runtime.multi
    "runtime.sched.rounds": (_N, _LO),
    "runtime.sched.deliver.self_s": (_S, _LO),
    "runtime.sched.compute.self_s": (_S, _LO),
    "runtime.sched.protocol.self_s": (_S, _LO),
    "runtime.sched.busy_frac": (_F, _HI),
    "runtime.multi.cluster_rounds": (_N, _LO),
    "runtime.multi.rounds_speedup_vs_solo": ("x", _HI),
    # runtime.worker / runtime.machine
    "runtime.worker.dft.self_s": (_S, _LO),
    "runtime.worker.edges_traversed": (_N, _LO),
    "runtime.worker.filter_evals": (_N, _LO),
    "runtime.worker.edges_per_norm_s": ("1/s", _HI),
    "runtime.machine.flush.self_s": (_S, _LO),
    # runtime.network / runtime.message
    "runtime.net.deliver.self_s": (_S, _LO),
    "runtime.net.batches_sent": (_N, _LO),
    "runtime.net.contexts_sent": (_N, _LO),
    "runtime.net.bytes_sent": ("B", _LO),
    "runtime.net.contexts_per_batch": (_N, _HI),
    "runtime.frame.encode_us": (_US, _LO),
    "runtime.frame.decode_us": (_US, _LO),
    "runtime.frame.bytes_per_context": ("B", _LO),
    # runtime.buffers / runtime.termination
    "runtime.flow.blocks": (_N, _LO),
    "runtime.flow.overflow_grants": (_N, _LO),
    "runtime.flow.peak_inflight": (_N, _LO),
    "runtime.flow.unbounded_cyclic_ok": (_N, _HI),
    "runtime.flow.unbounded_cyclic_wall_s": (_S, _LO),
    "runtime.term.done_messages": (_N, _LO),
    "runtime.term.status_messages": (_N, _LO),
    "runtime.term.tail_rounds": (_N, _LO),
    # rpq
    "rpq.control.matches": (_N, _LO),
    "rpq.control.max_depth": (_N, _LO),
    "rpq.index.probe.self_s": (_S, _LO),
    "rpq.index.entries": (_N, _LO),
    "rpq.index.eliminated": (_N, _LO),
    "rpq.index.duplicated": (_N, _LO),
    "rpq.index.useful_frac": (_F, _HI),
    "rpq.index.insert_ns": (_NS, _LO),
    "rpq.index.eliminate_ns": (_NS, _LO),
    # engine
    "engine.assemble.self_s": (_S, _LO),
    "engine.assemble.outputs": (_N, _LO),
    # obs
    "obs.trace_overhead_frac": (_F, _LO),
}

#: The spans whose self time is the session's unaccounted time (reference
#: readings taken between them are roots too, and nobody's layer).
_ROOT_SPANS = ("session.execute", "session.batch")
#: Spans that wrap the engine's run; the profiler's phases nest in them.
_RUN_SPANS = ("runtime.backend.run", "runtime.multi.drain")
#: Profiler phases opened directly under a run span, per backend.
_TOP_PHASES = ("sched.deliver", "sched.compute", "sched.protocol",
               "backend.spawn", "backend.coordinate", "backend.merge")


class TracedDriver:
    """``bench.PlainDriver``'s interface with every stage in a span."""

    def __init__(self, session, recorder):
        self.session = session
        self.rec = recorder
        self.stats = []  # RunStats of every query run through this driver
        self.phases = {}  # query id -> the engine's profile summary
        self._count = 0
        self._query_ids = {}  # id(handle) -> query id

    def _query_id(self, name):
        self._count += 1
        return f"{name}#{self._count}"

    def _plan(self, text, query_id):
        session, span = self.session, self.rec.span
        scouting = session.config.scouting
        with span("plan.cache.lookup", query_id):
            plan = session.plan_cache.lookup(text, scouting)
        if plan is None:
            with span("pgql.parse", query_id):
                ast = parse(text)
            with span("plan.compile", query_id):
                plan = compile_query(ast, session.graph, scouting=scouting)
            session.plan_cache.store(text, scouting, plan)
        return plan

    def execute(self, name, text):
        session, span = self.session, self.rec.span
        query_id = self._query_id(name)
        config = session.config
        with span("session.execute", query_id):
            plan = self._plan(text, query_id)
            with span("engine.sinks", query_id):
                sinks = [MachineSink(plan) for _ in range(config.num_machines)]
            with span("runtime.backend.run", query_id):
                stats, partial, timed_out = session.backend.run(
                    session.dgraph, plan, config, sinks, prof=PhaseProfiler()
                )
            with span("engine.assemble", query_id):
                result_set = assemble_results(
                    plan, sinks, complete=not partial, timed_out=timed_out
                )
        self.stats.append(stats)
        self.phases[query_id] = stats.profile
        return result_set.rows, not partial and not timed_out, stats.virtual_time

    def batch(self):
        return self.rec.span("session.batch")

    def reading(self):
        # The benchmark's own time inside a batch, kept out of every layer.
        with self.rec.span("bench.ref_kernel"):
            return ref_wall()

    def submit(self, name, text):
        query_id = self._query_id(name)
        with self.rec.span("session.submit", query_id):
            plan = self._plan(text, query_id)
            with self.rec.span("runtime.multi.submit", query_id):
                handle = self.session.submit(plan)
        self._query_ids[id(handle)] = query_id
        return handle

    def drain(self):
        with self.rec.span("runtime.multi.drain"):
            self.session.drain()

    def result(self, name, handle):
        # Drain first, so the cluster's run and result assembly are
        # separate spans (the untraced driver lets result() drive).
        if not handle.done():
            self.drain()
        query_id = self._query_ids.pop(id(handle))
        with self.rec.span("engine.assemble", query_id):
            result = handle.result()
        self.stats.append(result.stats)
        # The shared cluster profiler is cumulative; keep every snapshot.
        self.phases[query_id] = result.stats.profile
        return result.rows, result.complete and not result.timed_out, 0


# ----------------------------------------------------------------------
# Stand-alone probes
# ----------------------------------------------------------------------
def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def graph_probe(graph):
    dgraph, build_s = _timed(lambda: DistributedGraph(graph, wl_mod.NUM_MACHINES))
    cut = sum(
        dgraph.owner(src) != dgraph.owner(dst)
        for src, dst in zip(graph.edge_src, graph.edge_dst)
    )
    store, export_s = _timed(lambda: SharedGraphStore.export(graph))
    try:
        spec = store.spec()
        _, attach_s = _timed(lambda: attach_csrs(spec))
    finally:
        store.close()
    return {
        "graph.partition.build_s": build_s,
        "graph.partition.edge_cut_frac": cut / max(1, graph.num_edges),
        "graph.shm.export_s": export_s,
        "graph.shm.attach_s": attach_s,
        "graph.shm.bytes": 8 * sum(length for _name, length in spec.values()),
    }


def frame_probe(repetitions=2000):
    """Pickle round trip of a representative 64-context batch: the process
    backend's wire format (``multiprocessing.Queue`` pickles each frame)."""
    batch = Batch(src_machine=0, dst_machine=1, target_stage=2, depth=3)
    for i in range(64):
        batch.add(1000 + i, [i, i + 1, i + 2, i + 3, None, None])
    blob = pickle.dumps(batch)
    _, encode_s = _timed(lambda: [pickle.dumps(batch) for _ in range(repetitions)])
    _, decode_s = _timed(lambda: [pickle.loads(blob) for _ in range(repetitions)])
    return {
        "runtime.frame.encode_us": encode_s / repetitions * 1e6,
        "runtime.frame.decode_us": decode_s / repetitions * 1e6,
        "runtime.frame.bytes_per_context": len(blob) / 64,
    }


def index_probe(triples=100_000):
    """Drive one index shard with a fixed stream: the first pass over it is
    (almost) all inserts, the replay all eliminations."""
    rng = random.Random(0)
    stream = [
        (rng.randrange(2000), rng.randrange(20000), rng.randrange(1, 8))
        for _ in range(triples)
    ]
    index = ReachabilityIndex(0, 0)
    probe = index.check_and_update

    def drive():
        for source, dst, depth in stream:
            probe(source, dst, depth)

    _, insert_s = _timed(drive)
    _, eliminate_s = _timed(drive)
    return {
        "rpq.index.insert_ns": insert_s / triples * 1e9,
        "rpq.index.eliminate_ns": eliminate_s / triples * 1e9,
    }


def unbounded_cyclic_probe(env):
    """ROADMAP aim 3's tracked number: does an unbounded KNOWS closure from
    four sources complete under the default flow-control budgets?"""
    text = wl_mod.unbounded_cyclic_probe(env.info)

    def attempt():
        try:
            with repro.connect(env.graph, num_machines=wl_mod.NUM_MACHINES) as s:
                result = s.execute(text)
            return result.complete and not result.timed_out
        except Exception:  # noqa: BLE001 - a known limit, reported as 0
            return False

    ok, wall = _timed(attempt)
    return {
        "runtime.flow.unbounded_cyclic_ok": int(ok),
        "runtime.flow.unbounded_cyclic_wall_s": wall,
    }


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _pass_phases(driver, mode):
    """Phase totals over everything ``driver`` ran.

    Solo runs each carry their own profile, so they add up; the shared
    cluster's profiler is cumulative, so its largest snapshot is the total.
    """
    summaries = [p for p in driver.phases.values() if p]
    if mode == "submit":
        summaries = sorted(
            summaries, key=lambda p: sum(v["total_s"] for v in p.values())
        )[-1:]
    return merge_summaries(summaries)


def _percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _machine_sum(stats_list, attr):
    return sum(getattr(m, attr) for s in stats_list for m in s.per_machine)


def _depth_total(stats_list, attr):
    return sum(
        sum(counter.values())
        for s in stats_list
        for counter in getattr(s, attr).values()
    )


def layer_metrics(env, control, traced, driver):
    """Everything the traced passes and the control passes support."""
    n = len(traced)
    stats = driver.stats
    spans = span_mod.by_name(driver.rec.spans)
    phases = _pass_phases(driver, env.workload.mode)

    def span_s(name, key="self_s"):
        return spans.get(name, {}).get(key, 0.0) / n

    def phase_s(name, key="self_s"):
        return phases.get(name, {}).get(key, 0.0) / n

    def per_call(name, scale):
        agg = spans.get(name)
        return agg["self_s"] / agg["calls"] * scale if agg else 0.0

    def count(attr):
        return _machine_sum(stats, attr) / n

    samples = [s for p in control for s in p.samples]
    per_query_ms = [norm * 1e3 for _, _, norm in samples]
    control_norm = bench.best_pass_s(control)
    out = {
        "session.pass_wall_s_p50": statistics.median(p.wall_s for p in control),
        "session.pass_norm_s_p50": statistics.median(p.norm_s for p in control),
        "session.queries_per_norm_s": len(samples) / sum(p.norm_s for p in control),
        "session.query_norm_ms_p95": _percentile(per_query_ms, 0.95),
        "session.query_norm_ms_p99": _percentile(per_query_ms, 0.99),
    }
    for query in wl_mod.QUERY_NAMES:
        mine = [norm * 1e3 for name, _, norm in samples if name == query]
        out[f"session.q.{query}.norm_ms_p50"] = (
            statistics.median(mine) if mine else 0.0
        )

    roots = [
        (span, own)
        for span, own in zip(driver.rec.spans, span_mod.self_times_ns(driver.rec.spans))
        if span["parent"] is None and span["name"] in _ROOT_SPANS
    ]
    out["session.unaccounted_frac"] = sum(own for _, own in roots) / sum(
        span["end_ns"] - span["start_ns"] for span, _ in roots
    )

    out["pgql.parse.calls"] = span_s("pgql.parse", "calls")
    out["pgql.parse.self_s"] = span_s("pgql.parse")
    out["pgql.parse.us_per_call"] = per_call("pgql.parse", 1e6)
    out["plan.compile.calls"] = span_s("plan.compile", "calls")
    out["plan.compile.self_s"] = span_s("plan.compile")
    out["plan.compile.ms_per_call"] = per_call("plan.compile", 1e3)
    lookups = spans["plan.cache.lookup"]["calls"]
    out["plan.cache.hit_rate"] = 1.0 - spans.get("plan.compile", {"calls": 0})["calls"] / lookups

    run_total = sum(span_s(name, "total_s") for name in _RUN_SPANS)
    out["runtime.backend.run.self_s"] = run_total - sum(
        phase_s(name, "total_s") for name in _TOP_PHASES
    )
    for phase in ("spawn", "coordinate", "merge"):
        out[f"runtime.backend.{phase}.self_s"] = phase_s(f"backend.{phase}")
    for phase in ("deliver", "compute", "protocol"):
        out[f"runtime.sched.{phase}.self_s"] = phase_s(f"sched.{phase}")
    out["runtime.worker.dft.self_s"] = phase_s("worker.dft")
    out["runtime.machine.flush.self_s"] = phase_s("machine.flush")
    out["runtime.net.deliver.self_s"] = phase_s("net.deliver")
    out["rpq.index.probe.self_s"] = phase_s("index.probe")
    out["engine.assemble.self_s"] = span_s("engine.assemble")
    out["engine.assemble.outputs"] = count("outputs")

    out["runtime.sched.rounds"] = sum(s.rounds for s in stats) / n
    busy = _machine_sum(stats, "busy_rounds")
    waiting = _machine_sum(stats, "idle_rounds") + _machine_sum(stats, "blocked_rounds")
    out["runtime.sched.busy_frac"] = busy / max(1, busy + waiting)
    cluster_rounds = traced[-1].rounds if env.workload.mode == "submit" else 0
    solo_rounds = sum(env.oracle[text].solo_rounds for _, text in env.queries)
    out["runtime.multi.cluster_rounds"] = cluster_rounds
    out["runtime.multi.rounds_speedup_vs_solo"] = (
        solo_rounds / cluster_rounds if cluster_rounds else 0.0
    )

    out["runtime.worker.edges_traversed"] = count("edges_traversed")
    out["runtime.worker.filter_evals"] = count("filter_evals")
    out["runtime.worker.edges_per_norm_s"] = count("edges_traversed") / control_norm
    out["runtime.net.batches_sent"] = count("batches_sent")
    out["runtime.net.contexts_sent"] = count("contexts_sent")
    out["runtime.net.bytes_sent"] = count("bytes_sent")
    out["runtime.net.contexts_per_batch"] = count("contexts_sent") / max(
        1, count("batches_sent")
    )
    out["runtime.flow.blocks"] = count("flow_control_blocks")
    out["runtime.flow.overflow_grants"] = count("overflow_grants")
    out["runtime.flow.peak_inflight"] = max(
        m.peak_inflight_buffers for s in stats for m in s.per_machine
    )
    out["runtime.term.done_messages"] = count("done_messages")
    out["runtime.term.status_messages"] = count("status_messages")
    out["runtime.term.tail_rounds"] = sum(
        s.rounds - s.quiescent_round for s in stats if s.quiescent_round is not None
    ) / n

    inserts = count("index_inserts")
    eliminated = _depth_total(stats, "eliminated") / n
    duplicated = _depth_total(stats, "duplicated") / n
    out["rpq.control.matches"] = _depth_total(stats, "control_matches") / n
    out["rpq.control.max_depth"] = max(
        (max(depths) for s in stats for depths in s.control_matches.values()),
        default=0,
    )
    out["rpq.index.entries"] = count("index_entries")
    out["rpq.index.eliminated"] = eliminated
    out["rpq.index.duplicated"] = duplicated
    out["rpq.index.useful_frac"] = inserts / max(1, inserts + eliminated + duplicated)

    out["obs.trace_overhead_frac"] = bench.best_pass_s(traced) / control_norm - 1.0
    out["runtime.backend.worker_rss_mb"] = (
        bench.peak_rss_mb(resource.RUSAGE_CHILDREN)
        if env.workload.backend == "process" else 0.0
    )
    return out


def sim_speedup(env, args, process_norm):
    """``paper9_sim`` / ``paper9_process`` pass time, same queries and order."""
    with repro.connect(env.graph, num_machines=wl_mod.NUM_MACHINES) as session:
        sim_env = bench.Env(
            wl_mod.WORKLOADS["paper9_sim"], env.graph, env.info, env.queries,
            env.oracle, session, env.tally,
        )
        driver = bench.PlainDriver(session)
        bench.run_pass(sim_env, driver)  # cold: compile plans, build CSR
        passes = bench.run_passes(sim_env, driver, 0.0, args.min_passes)
    return bench.best_pass_s(passes) / process_norm


def measure(env, args):
    """Control passes (tracing off), traced passes, probes; writes the span
    file and returns the per-layer metrics in the result-line shape."""
    workload = env.workload
    half = args.seconds / 2.0
    control = bench.run_passes(
        env, bench.PlainDriver(env.session), half, args.min_passes
    )

    kwargs = workload.connect_kwargs()
    with repro.connect(env.graph, profile=True, **kwargs) as session:
        traced_env = bench.Env(
            workload, env.graph, env.info, env.queries, env.oracle, session,
            env.tally,
        )
        # Untimed warm-up: compile every plan and let the backend do its
        # one-time work (shm export), without touching the cluster profiler.
        for _name, text in env.queries:
            session.compile(text)
        session.execute(env.queries[0][1])
        driver = TracedDriver(session, span_mod.SpanRecorder())
        traced = bench.run_passes(traced_env, driver, half, args.min_passes)

    values = layer_metrics(env, control, traced, driver)
    values.update(graph_probe(env.graph))
    values.update(frame_probe())
    values.update(index_probe())
    values.update(unbounded_cyclic_probe(env))
    values["runtime.backend.speedup_vs_sim"] = (
        sim_speedup(env, args, bench.best_pass_s(control))
        if workload.backend == "process" else 0.0
    )

    os.makedirs(OUT_DIR, exist_ok=True)
    span_mod.write(
        os.path.join(OUT_DIR, f"trace_{workload.name}.json"),
        workload.name, driver.rec.spans, driver.phases,
    )
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _better) in PER_LAYER.items()
    }
