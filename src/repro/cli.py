"""Command-line interface: ``python -m repro <subcommand>``; every flag is
described by ``<subcommand> --help``.

* ``generate`` — write an LDBC-SNB-like graph to a JSON-lines file;
* ``query`` — run a PGQL query over a JSON-lines graph with a chosen
  engine (``rpqd``, ``bft``, ``recursive``) and, for rpqd, a chosen
  backend (deterministic simulator or real OS processes,
  :mod:`repro.runtime.backend`); ``--faults PLAN.json`` attaches a
  :class:`repro.faults.FaultPlan`, ``--trace-out`` / ``--timeline``
  export what :mod:`repro.obs` recorded, ``--metrics-out`` the run's
  counters as Prometheus text (either backend), and
  ``--explain-analyze`` prints actual cardinalities beside the planner's
  estimates with the wall-clock phase breakdown (:mod:`repro.obs.prof`);
* ``explain`` — print the distributed plan for a query;
* ``workload`` — the paper's nine benchmark queries on a generated graph:
  a three-engine latency table, or with ``--concurrency N`` all nine
  interleaved on one shared cluster and checked against solo execution;
* ``trace`` — validate and pretty-print a trace file from ``query
  --trace-out``;
* ``analyze`` — the schedule race detector: the benchmark queries under
  ``--races N`` permuted scheduler interleavings;
* ``chaos`` — benchmark queries under seeded fault plans, every run
  checked against its fault-free solo baseline; ``--concurrency N`` runs
  each plan against the whole batch on one shared cluster.

``analyze --races``, ``chaos`` and ``workload --concurrency`` are one loop,
:func:`repro.sweep.run_sweep`, with different config variants.  Wall-clock
benchmarking is not a subcommand: ``benchmarks/perf/run.py`` is the perf
gate (``BENCHMARK.json``), ``pytest benchmarks/`` reproduces the paper's
figures.

Exit codes: 0 ok, 1 a check failed (result divergence, invalid trace), 2
usage, configuration or I/O error.
"""

import argparse
import json
import sys

from .baselines import BftEngine, RecursiveEngine
from .bench.reporting import format_table
from .config import EngineConfig
from .errors import ConfigError
from .graph.loader import load_graph, save_graph
from .session import Session, connect


def _add_engine_args(parser):
    parser.add_argument(
        "--engine",
        choices=["rpqd", "bft", "recursive"],
        default="rpqd",
        help="evaluation engine (default: rpqd)",
    )
    parser.add_argument(
        "--machines", type=int, default=4, help="simulated machines for rpqd"
    )
    parser.add_argument(
        "--no-index",
        action="store_true",
        help="disable the reachability index (safe on acyclic expansions only)",
    )
    _add_backend_arg(parser)


def _add_backend_arg(parser):
    parser.add_argument(
        "--backend",
        choices=["sim", "process"],
        default="sim",
        help="execution backend for rpqd: 'sim' is the deterministic "
        "simulator, 'process' runs each partition's machine loop in a "
        "real OS process (default: sim)",
    )


def _add_fault_args(parser):
    parser.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="inject faults from a repro.faults.FaultPlan JSON file "
        "(rpqd only; enables reliable transport automatically)",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="enable crash recovery: checkpoint/failover/replay survives "
        "permanent machine crashes in the fault plan (rpqd only)",
    )
    parser.add_argument(
        "--deadline",
        type=int,
        metavar="ROUNDS",
        help="abort each rpqd query cleanly after this many virtual rounds "
        "(partial results)",
    )


def _add_shared_cluster_args(parser):
    parser.add_argument(
        "--concurrency", type=int, default=1, metavar="N",
        help="submit the queries N at a time onto one shared cluster (the "
        "multi-query scheduler); every result set must match the query's "
        "fault-free solo run",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run every execution under the protocol sanitizer",
    )


def _add_graph_args(parser, scale):
    """The generated mini-LDBC graph and the cluster size it runs on."""
    parser.add_argument("--scale", choices=["xs", "s", "m", "l"], default=scale)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--machines", type=int, default=4)


def _engine_config(args, **extra):
    """The :class:`EngineConfig` behind the flags ``query`` and ``workload``
    share: ``--machines``, ``--backend`` and :func:`_add_fault_args`;
    ``extra`` carries what only one caller sets."""
    if args.faults:
        from .faults import FaultPlan

        extra["faults"] = FaultPlan.from_file(args.faults)
    if args.recover:
        extra["recovery"] = True
    if args.deadline is not None:
        extra["deadline"] = args.deadline
    return EngineConfig(
        num_machines=args.machines, backend=args.backend, **extra
    )


def _make_engine(args, graph):
    if args.engine == "bft":
        return BftEngine(graph)
    if args.engine == "recursive":
        return RecursiveEngine(graph)
    config = _engine_config(
        args,
        use_reachability_index=not args.no_index,
        reliable_transport=False if args.unreliable else None,
    )
    plan = config.faults
    if args.unreliable and plan is not None and plan.drop_prob > 0.0:
        print(
            "warning: --unreliable with a lossy fault plan gives no "
            "delivery guarantee; results may be wrong or hang",
            file=sys.stderr,
        )
    return Session(graph, config)


def cmd_generate(args):
    from .datagen import mini_ldbc

    graph, info = mini_ldbc(args.scale, seed=args.seed)
    save_graph(graph, args.output)
    meta = dict(info.counts)
    meta.update(
        start_person=info.start_person,
        narrow_country=info.narrow_country,
        popular_tag=info.popular_tag,
    )
    print(json.dumps(meta, indent=2))
    return 0


def cmd_query(args):
    graph = load_graph(args.graph)
    engine = _make_engine(args, graph)
    query = args.query
    if query == "-":
        query = sys.stdin.read()
    exports = bool(args.trace_out or args.metrics_out)
    explain_analyze = args.explain_analyze
    if (exports or args.timeline or explain_analyze) and args.engine != "rpqd":
        print(
            "error: --trace-out/--metrics-out/--timeline/--explain-analyze "
            "require --engine rpqd",
            file=sys.stderr,
        )
        return 2
    if args.backend == "process" and (args.trace_out or args.timeline):
        print(
            "error: --trace-out/--timeline require --backend sim (the "
            "process backend has no virtual-time trace recorder)",
            file=sys.stderr,
        )
        return 2
    # On the simulator the metrics file also carries the histograms of
    # sent batches, which are read from the recorder's events.
    observe = bool(args.trace_out or (args.metrics_out and args.backend == "sim"))
    try:
        if args.engine == "rpqd":
            result = engine.execute(
                query, trace=args.timeline, observe=observe or None,
                profile=True if explain_analyze else None,
            )
        else:
            result = engine.execute(query)
    finally:
        # Sessions may own process-backend resources (the worker pool);
        # baseline engines have no close().
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    if explain_analyze:
        # EXPLAIN ANALYZE replaces the row output: the annotated plan with
        # actual cardinalities, timing, volume, and the phase breakdown.
        print(result.explain_analyze())
        if exports:
            _export(result, engine, args.trace_out, args.metrics_out)
        return 0
    if args.format == "csv":
        sys.stdout.write(result.result_set.to_csv())
    elif args.format == "json":
        print(result.result_set.to_json())
    else:
        print("\t".join(result.columns))
        for row in result:
            print("\t".join("NULL" if v is None else str(v) for v in row))
    if getattr(result, "complete", True) is False:
        if getattr(result, "timed_out", False):
            print(
                "-- WARNING: PARTIAL RESULTS (virtual-clock deadline hit); "
                "rows are a lower bound",
                file=sys.stderr,
            )
        else:
            down = getattr(result.stats, "down_machines", ())
            print(
                f"-- WARNING: PARTIAL RESULTS (machine(s) {list(down)} stayed "
                "down); rows are a lower bound",
                file=sys.stderr,
            )
    if args.stats:
        print(
            f"-- virtual latency: {result.virtual_time} rounds", file=sys.stderr
        )
        if hasattr(result.stats, "summary"):
            print(f"-- {result.stats.summary()}", file=sys.stderr)
    if args.timeline and getattr(result, "trace", None) is not None:
        print(result.trace.render_timeline(), file=sys.stderr)
    if exports:
        _export(result, engine, args.trace_out, args.metrics_out)
    return 0


def _export(result, engine, trace_out, metrics_out):
    """Write the trace / metrics files a ``query`` run asked for."""
    from .obs import write_chrome_trace, write_jsonl, write_prometheus

    recorder = result.obs
    if trace_out:
        if trace_out.endswith(".jsonl"):
            write_jsonl(recorder, trace_out)
        else:
            write_chrome_trace(
                recorder, trace_out,
                workers_per_machine=engine.config.workers_per_machine,
            )
        print(f"-- trace written to {trace_out}", file=sys.stderr)
    if metrics_out:
        write_prometheus(result, metrics_out)
        print(f"-- metrics written to {metrics_out}", file=sys.stderr)


def cmd_explain(args):
    graph = load_graph(args.graph)
    session = connect(graph, num_machines=args.machines)
    print(session.explain(args.query))
    return 0


def cmd_analyze(args):
    """``repro analyze``: the schedule race detector — the benchmark queries
    under ``--races`` permuted scheduler interleavings, each diffed against
    the canonical schedule; exit 1 on any result-set divergence."""
    from .datagen import BENCHMARK_QUERIES, mini_ldbc
    from .sweep import Variant, run_sweep

    graph, info = mini_ldbc(args.scale, seed=args.seed)
    report = run_sweep(
        graph,
        [build(info) for build in BENCHMARK_QUERIES.values()],
        [Variant(s, {"schedule_seed": s}) for s in range(1, args.races + 1)],
        config=EngineConfig(num_machines=args.machines),
        baseline_overrides={"schedule_seed": None},
    )
    for index, query in enumerate(report.queries):
        fingerprints = {
            result.stats.schedule_fingerprint
            for result in report.query_results(index)
        }
        # + 1: the baseline ran the canonical (unseeded) schedule.
        print(
            f"-- races: {query!r}: {args.races} seeded schedules, "
            f"{len(fingerprints) + 1} distinct interleavings, "
            f"{_verdict(report.query_mismatches(index))}"
        )
    if not report.ok:
        print("-- race detector: RESULT-SET DIVERGENCE (order dependence)")
        return 1
    print(f"-- race detector: ok ({len(report.queries)} queries x "
          f"{args.races} schedules)")
    return 0


def _verdict(mismatches):
    return f"{len(mismatches)} MISMATCHES" if mismatches else "ok"


def _recoveries(result):
    return (result.stats.recovery or {}).get("recoveries", 0)


def _fate(result):
    """Completeness propagation: a run cut short by a permanent machine
    loss (recovery off) or a deadline is flagged in every report, so its
    latency is never mistaken for that of a full answer."""
    return {
        "complete": result.complete,
        "timed_out": result.timed_out,
        "recoveries": _recoveries(result),
        "down_machines": list(result.stats.down_machines),
    }


def cmd_workload(args):
    from .datagen import BENCHMARK_QUERIES, mini_ldbc

    backend = args.backend
    graph, info = mini_ldbc(args.scale, seed=args.seed)
    queries = {name: build(info) for name, build in BENCHMARK_QUERIES.items()}
    if args.concurrency > 1:
        if backend == "process" or args.timeline:
            print(
                "error: --concurrency requires --backend sim and excludes "
                "--timeline (the process backend has no multi-query "
                "scheduler yet; the shared cluster has no per-query "
                "ExecutionTrace)",
                file=sys.stderr,
            )
            return 2
        return _workload_concurrent(args, graph, queries)
    if backend == "process" and args.timeline:
        print(
            "error: --timeline requires --backend sim (the process backend "
            "has no virtual-time trace recorder)",
            file=sys.stderr,
        )
        return 2
    records = []
    timelines = []
    # The rpqd session may own process-backend resources (the worker
    # pool): released even when a query raises.
    with Session(graph, _engine_config(args)) as session:
        engines = {
            "rpqd": session,
            "bft": BftEngine(graph),
            "recursive": RecursiveEngine(graph),
        }
        for name, query in queries.items():
            record = {"query": name}
            for ename, engine in engines.items():
                if engine is session:
                    result = session.execute(query, trace=args.timeline)
                    record.update(_fate(result))
                    if result.trace is not None:
                        timelines.append((name, result.trace))
                else:
                    result = engine.execute(query)
                record[ename] = round(result.virtual_time, 1)
                # Wall-clock is reporting-only (host-relative,
                # nondeterministic): virtual rounds stay the latency metric.
                record[f"{ename}_wall_seconds"] = getattr(
                    result.stats, "wall_seconds", None
                )
            records.append(record)
    if args.json:
        print(json.dumps({
            "scale": args.scale,
            "seed": args.seed,
            "machines": args.machines,
            "backend": backend,
            "engines": list(engines),
            "latency_unit": "virtual rounds",
            "results": records,
        }, indent=2))
    else:
        print(
            format_table(
                ["query"] + list(engines),
                [
                    [r["query"]] + [
                        r[e] if e != "rpqd" or r["complete"] else f"{r[e]}*"
                        for e in engines
                    ]
                    for r in records
                ],
                title=f"paper workload at scale {args.scale!r} "
                f"(virtual latency, rpqd on {args.machines} machines, "
                f"{backend} backend)",
            )
        )
        if not all(r["complete"] for r in records):
            print("* PARTIAL results (incomplete run); latency is a lower bound")
    # With --json the timelines go to stderr so stdout stays parseable.
    out = sys.stderr if args.json else sys.stdout
    for name, trace in timelines:
        print(f"\n{name} timeline (rpqd, {args.machines} machines):", file=out)
        print(trace.render_timeline(), file=out)
    return 0


def _workload_concurrent(args, graph, queries):
    """``workload --concurrency N``: the nine queries on one shared
    cluster, checked row-for-row against solo execution — whose makespans
    *sum*, since sequential queries own the cluster back to back.  Under
    ``--faults`` / ``--recover`` the baselines stay fault-free with the
    transport held on, and the JSON adds each query's fate and the
    cross-query ``blast_radius``.  Exit 1 on divergence."""
    from .sweep import Variant, run_sweep

    config = _engine_config(args, sanitize=args.sanitize)
    chaos = config.faults is not None or config.recovery
    report = run_sweep(
        graph,
        list(queries.values()),
        [Variant("concurrent", concurrency=args.concurrency)],
        config=config,
        baseline_overrides=(
            {"faults": None, "reliable_transport": True} if chaos else None
        ),
        # Chaos legitimately perturbs emission order (delays, replay): the
        # invariant is then the *set* of rows, as in ``repro chaos``.
        ordered=not chaos,
    )
    (run,) = report.runs
    diverged = {i for _label, i, what in report.mismatches if what == "rows"}
    sequential = sum(base.stats.rounds for base in report.baselines)
    speedup = sequential / run.cluster_rounds if run.cluster_rounds else 0.0
    records = []
    for index, (name, base, result) in enumerate(
        zip(queries, report.baselines, run.results)
    ):
        records.append({
            "query": name,
            "solo_rounds": base.stats.rounds,
            "concurrent_rounds": result.stats.rounds,
            "rows": len(result.rows),
            "identical": index not in diverged,
            **(_fate(result) if chaos else {}),
        })
    if args.json:
        doc = {
            "scale": args.scale,
            "seed": args.seed,
            "machines": args.machines,
            "concurrency": args.concurrency,
            "latency_unit": "virtual rounds",
            "sequential_makespan": sequential,
            "concurrent_makespan": run.cluster_rounds,
            "speedup": round(speedup, 3),
            "identical": not diverged,
            "results": records,
        }
        if chaos:
            doc["blast_radius"] = run.blast_radius
        print(json.dumps(doc, indent=2))
    else:
        rows = [
            [r["query"], r["solo_rounds"], r["concurrent_rounds"],
             "yes" if r["identical"] else "NO"]
            for r in records
        ]
        print(
            format_table(
                ["query", "solo rounds", "concurrent rounds", "identical"],
                rows,
                title=f"paper workload, {args.concurrency}-way concurrent on "
                f"{args.machines} machines (scale {args.scale!r})",
            )
        )
        print(
            f"-- makespan: {run.cluster_rounds} rounds concurrent vs "
            f"{sequential} sequential ({speedup:.2f}x)"
        )
    if diverged:
        print(
            "-- CONCURRENCY DIVERGENCE: concurrent result sets differ from "
            "sequential execution (determinism bug)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_chaos(args):
    """``repro chaos``: benchmark queries under seeded fault plans, every
    run checked against its fault-free solo baseline; exit 1 on divergence.

    One sweep, two reports: per query what the plans cost (solo, where the
    per-depth work table is held to the baseline's too), or with
    ``--concurrency N`` per plan what happened on the shared cluster —
    makespan, fault mix, each query's fate, and the ``blast_radius``
    (queries rolled back per permanent crash).
    """
    from .datagen import BENCHMARK_QUERIES, mini_ldbc
    from .faults import seeded_sweep
    from .sweep import Variant, run_sweep

    graph, info = mini_ldbc(args.scale, seed=args.seed)
    names = [n.strip() for n in args.queries.split(",") if n.strip()]
    unknown = [n for n in names if n not in BENCHMARK_QUERIES]
    if unknown:
        print(
            f"error: unknown benchmark queries {unknown} "
            f"(available: {', '.join(BENCHMARK_QUERIES)})",
            file=sys.stderr,
        )
        return 2
    plans = seeded_sweep(
        args.plans, base_seed=args.base_seed, num_machines=args.machines,
        drop_prob=args.drop, dup_prob=args.dup, delay_prob=args.delay,
        reorder_prob=args.reorder, corrupt_prob=args.corrupt,
        permanent=args.recover, partitions=args.partition,
    )
    shared = args.concurrency > 1
    report = run_sweep(
        graph,
        [BENCHMARK_QUERIES[n](info) for n in names],
        [Variant(plan.seed, {"faults": plan}, args.concurrency) for plan in plans],
        config=EngineConfig(
            num_machines=args.machines, sanitize=args.sanitize,
            recovery=args.recover,
        ),
        baseline_overrides={"faults": None, "reliable_transport": True},
        compare_depths=not shared,
    )
    recoveries = sum(_recoveries(r) for run in report.runs for r in run.results)
    results = []
    lines = []
    if shared:
        faults = sum(sum(run.fault_counts.values()) for run in report.runs)
        lines.append(
            f"-- chaos --concurrency {args.concurrency}: {len(names)} queries "
            f"at concurrency {args.concurrency}: {len(plans)} fault plans, "
            f"{faults} faults injected, {recoveries} query rollbacks, "
            f"{_verdict(report.mismatches)}"
        )
        for run in report.runs:
            bad = report.variant_mismatches(run.label)
            fates = [
                {"query": n, "rows_match": (i, "rows") not in bad, **_fate(r)}
                for i, (n, r) in enumerate(zip(names, run.results))
            ]
            results.append({
                "seed": run.label,
                "identical": not bad,
                "makespan": run.cluster_rounds,
                "fault_counts": run.fault_counts,
                "blast_radius": run.blast_radius,
                "queries": fates,
            })
            lines.append(
                f"--   seed {run.label}: makespan {run.cluster_rounds}, "
                f"faults {sum(run.fault_counts.values())}, "
                f"{len(run.blast_radius)} permanent crash(es), "
                f"{sum(len(e['rolled_back']) for e in run.blast_radius)} "
                f"query rollback(s), {'DIVERGED' if bad else 'identical'}"
            )
    else:
        faults = 0
        for index, (name, base) in enumerate(zip(names, report.baselines)):
            runs = report.query_results(index)
            mismatches = report.query_mismatches(index)
            injected = sum(sum(r.stats.fault_events.values()) for r in runs)
            faults += injected
            baseline = base.stats.virtual_time
            ratios = [
                r.stats.virtual_time / baseline if baseline else 1.0 for r in runs
            ]
            results.append({
                "query": name,
                "plans": len(runs),
                "faults_injected": injected,
                "baseline_makespan": baseline,
                "makespan_inflation": [
                    {"seed": plan.seed, "ratio": round(ratio, 3)}
                    for plan, ratio in zip(plans, ratios)
                ],
                "retransmits": sum(r.stats.transport["retransmits"] for r in runs),
                "recoveries": sum(_recoveries(r) for r in runs),
                "ok": not mismatches,
                "mismatches": mismatches,
            })
            lines.append(
                f"-- chaos {name}: {report.queries[index]!r}: {len(runs)} "
                f"fault plans, {injected} faults injected, worst makespan "
                f"x{max(ratios, default=1.0):.2f}, {_verdict(mismatches)}"
            )
    if args.json:
        doc = {
            "scale": args.scale,
            "seed": args.seed,
            "machines": args.machines,
            "plans": args.plans,
            "base_seed": args.base_seed,
            "results": results,
        }
        if shared:
            doc.update(
                concurrency=args.concurrency, identical=report.ok,
                recoveries=recoveries,
            )
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    if not report.ok:
        print(
            "-- chaos sweep: RESULT DIVERGENCE under faults (exactly-once "
            "delivery, replay or per-query isolation failed)",
            file=sys.stderr,
        )
        return 1
    if not shared:  # with --concurrency, stdout is the JSON document alone
        print(
            f"-- chaos sweep: ok ({len(names)} queries x {args.plans} plans, "
            f"{faults} faults injected, results identical to fault-free"
            + (f", {recoveries} crash failovers recovered" if args.recover else "")
            + ")"
        )
    return 0


def cmd_trace(args):
    from .obs import load_trace_file, summarize_trace, validate_chrome_trace

    try:
        trace = load_trace_file(args.file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summarize_trace(trace))
    return 1 if validate_chrome_trace(trace) else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RPQd: distributed asynchronous regular path queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an LDBC-like graph")
    p.add_argument("output", help="output JSON-lines path")
    p.add_argument("--scale", choices=["xs", "s", "m", "l"], default="s")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("query", help="run a PGQL query on a graph file")
    p.add_argument("graph", help="JSON-lines graph path")
    p.add_argument("query", help="PGQL text ('-' reads stdin)")
    p.add_argument("--stats", action="store_true", help="print runtime stats")
    p.add_argument(
        "--format", choices=["tsv", "csv", "json"], default="tsv",
        help="output format (default: tsv)",
    )
    p.add_argument(
        "--timeline",
        action="store_true",
        help="print the per-round ASCII utilization timeline (rpqd only)",
    )
    p.add_argument(
        "--explain-analyze",
        action="store_true",
        help="instead of rows, print the plan annotated with actual "
        "cardinalities vs planner estimates, timing (virtual + wall), "
        "message volume, frontier tables, and the wall-clock phase "
        "breakdown (rpqd only)",
    )
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        help="record a span trace: .jsonl writes the JSONL event log, "
        "anything else the Perfetto-loadable Chrome trace JSON (rpqd only)",
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the run's counters in Prometheus text format (rpqd "
        "only; on --backend sim also the batch-size histograms)",
    )
    p.add_argument(
        "--unreliable",
        action="store_true",
        help="disable the reliable transport layer even with --faults "
        "(chaos without the safety net)",
    )
    _add_fault_args(p)
    _add_engine_args(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("explain", help="print the distributed plan")
    p.add_argument("graph", help="JSON-lines graph path")
    p.add_argument("query", help="PGQL text")
    p.add_argument("--machines", type=int, default=4)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("workload", help="run the paper's nine queries")
    _add_graph_args(p, "s")
    p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the text table",
    )
    p.add_argument(
        "--timeline",
        action="store_true",
        help="print the rpqd ASCII utilization timeline per query",
    )
    _add_fault_args(p)
    _add_shared_cluster_args(p)
    _add_backend_arg(p)
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser(
        "trace",
        help="validate + pretty-print a trace file from query --trace-out",
    )
    p.add_argument("file", help="Chrome trace JSON or JSONL event log")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "chaos",
        help="fault-injection sweep: seeded lossy plans must reproduce "
        "the fault-free results under reliable transport",
    )
    _add_graph_args(p, "xs")
    p.add_argument(
        "--plans", type=int, default=5, metavar="N",
        help="number of seeded fault plans to sweep (default: 5)",
    )
    p.add_argument(
        "--base-seed", type=int, default=1,
        help="seed of the first fault plan (plan i uses base+i)",
    )
    p.add_argument(
        "--queries", default="Q09,Q03",
        help="comma-separated benchmark query names (default: Q09,Q03)",
    )
    p.add_argument("--drop", type=float, default=0.05, help="drop probability")
    p.add_argument("--dup", type=float, default=0.05, help="duplication probability")
    p.add_argument("--delay", type=float, default=0.1, help="extra-delay probability")
    p.add_argument("--reorder", type=float, default=0.1, help="reorder probability")
    p.add_argument(
        "--recover",
        action="store_true",
        help="sweep *permanent* machine crashes with crash recovery on: "
        "checkpoint/failover/replay must still reproduce fault-free results",
    )
    p.add_argument(
        "--partition",
        action="store_true",
        help="add a scheduled network partition (symmetric, asymmetric, or "
        "partial, with a heal round) to every plan; the heartbeat "
        "membership detector must ride it out without a minority failover",
    )
    p.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        metavar="P",
        help="per-message corruption probability; the transport checksum "
        "must catch every corrupted frame and recover it as a loss "
        "(default: 0.0)",
    )
    _add_shared_cluster_args(p)
    p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the text summary (with "
        "--concurrency: per-query recoveries and the cross-query blast radius)",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "analyze",
        help="schedule race detector: the benchmark queries under permuted "
        "scheduler interleavings, diffed against the canonical schedule",
    )
    p.add_argument(
        "--races",
        type=int,
        default=5,
        metavar="N",
        help="number of seeded scheduler interleavings (default: 5)",
    )
    _add_graph_args(p, "xs")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
