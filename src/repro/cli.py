"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``generate`` — write an LDBC-SNB-like graph to a JSON-lines file;
* ``query`` — run a PGQL query over a JSON-lines graph with a chosen
  engine (``rpqd``, ``bft``, ``recursive``); ``--backend process`` runs
  the rpqd engine on the process-parallel execution backend
  (:mod:`repro.runtime.backend`) instead of the deterministic simulator;
* ``explain`` — print the distributed plan for a query;
* ``workload`` — run the paper's nine benchmark queries on a generated
  graph and print a latency table (``--json`` for machine-readable rows,
  ``--timeline`` for per-query ASCII utilization timelines;
  ``--concurrency N`` interleaves all nine on one shared cluster through
  the multi-query scheduler and verifies result sets match sequential
  execution, reporting the aggregate makespan of both);
* ``bench`` — run a named benchmark suite (``smoke``, ``standard``,
  ``depth``, ``index``) through :mod:`repro.bench` and write a
  schema-versioned ``BENCH_<suite>.json`` trajectory document;
  ``--compare BASELINE.json`` gates against a committed baseline with
  configurable thresholds (exit 0 ok / 1 regression / 2 usage-IO error);
  ``--backend process`` benchmarks the process-parallel backend and adds
  per-query sim-oracle columns (``sim_wall_seconds``,
  ``wall_speedup_vs_sim``, ``identical_to_sim``) to the document;
* ``trace`` — validate and pretty-print a trace file produced by
  ``query --trace-out`` (Chrome trace JSON or JSONL event log);
* ``analyze`` — static analysis: the repo-specific protocol lint rules
  (RPQ001..RPQ006) plus ruff/mypy when installed, and optionally the
  schedule race detector (``--races N``); ``--static`` instead runs the
  parallel-readiness pass (RPQ101..RPQ105) against the committed
  ``analysis-baseline.json`` with inline ``# repro: allow[RPQnnn] reason``
  suppressions honored by both families; ``--json`` (either mode) emits a
  machine-readable violation list and exits 1 iff unsuppressed violations
  exist;
* ``chaos`` — fault-injection sweep (:mod:`repro.faults`): run benchmark
  queries under seeded lossy fault plans with reliable transport and
  verify every run reproduces the fault-free result set and depth table;
  ``--concurrency N`` submits the batch through the multi-query scheduler
  instead, checking every query against its fault-free *solo* baseline
  and reporting the cross-query blast radius of permanent crashes.

Fault injection: ``query --faults PLAN.json`` attaches a
:class:`repro.faults.FaultPlan` (reliable transport switches on
automatically; ``--unreliable`` disables it for
chaos-without-the-safety-net experiments).

Observability (``repro.obs``): ``query --trace-out FILE`` records a
span-level execution trace (``.jsonl`` extension selects the JSONL event
log, anything else the Perfetto-loadable Chrome trace JSON) and
``--metrics-out FILE`` writes the metrics registry in Prometheus text
format.  ``--timeline`` prints the per-round ASCII utilization timeline.
``query --explain-analyze`` prints the EXPLAIN ANALYZE report (actual
cardinalities beside planner estimates, wall-clock phase breakdown from
:mod:`repro.obs.prof`) instead of result rows.
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


def _engine_config(args, **extra):
    """The :class:`EngineConfig` behind the flags ``query`` and ``workload``
    share: ``--machines``, ``--backend``, ``--faults``, ``--recover`` and
    ``--deadline``; ``extra`` carries what only one caller sets."""
    if args.faults:
        from .faults import FaultPlan

        extra["faults"] = FaultPlan.from_file(args.faults)
    if args.recover:
        extra["recovery"] = True
    if args.deadline:
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
    observe = bool(args.trace_out or args.metrics_out)
    explain_analyze = args.explain_analyze
    if (observe or args.timeline or explain_analyze) and args.engine != "rpqd":
        print(
            "error: --trace-out/--metrics-out/--timeline/--explain-analyze "
            "require --engine rpqd",
            file=sys.stderr,
        )
        return 2
    if args.backend == "process" and (observe or args.timeline):
        print(
            "error: --trace-out/--metrics-out/--timeline require "
            "--backend sim (the process backend has no virtual-time "
            "trace recorder)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.engine == "rpqd":
            result = engine.execute(
                query, trace=args.timeline, observe=observe or None,
                profile=True if explain_analyze else None,
            )
        else:
            result = engine.execute(query)
    finally:
        # Sessions may own process-backend resources (shared-memory CSR
        # segments); baseline engines have no close().
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    if explain_analyze:
        # EXPLAIN ANALYZE replaces the row output: the annotated plan with
        # actual cardinalities, timing, volume, and the phase breakdown.
        print(result.explain_analyze())
        if observe:
            _export_observed(result, engine, args.trace_out, args.metrics_out)
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
    if observe:
        _export_observed(result, engine, args.trace_out, args.metrics_out)
    return 0


def _export_observed(result, engine, trace_out, metrics_out):
    """Write the recorder's trace/metrics files for a ``query`` run."""
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
        write_prometheus(recorder, metrics_out)
        print(f"-- metrics written to {metrics_out}", file=sys.stderr)


def cmd_explain(args):
    graph = load_graph(args.graph)
    session = connect(graph, num_machines=args.machines)
    print(session.explain(args.query))
    return 0


def _violation_rows(violations):
    return [
        {"rule": v.rule_id, "path": v.path, "line": v.line, "message": v.message}
        for v in violations
    ]


def _cmd_analyze_static(args):
    """``repro analyze --static``: the parallel-readiness (RPQ100) gate.

    Exit codes are stable for CI: 0 clean (suppressed/baselined findings
    allowed), 1 when unbaselined violations exist, 2 on usage/IO errors.
    """
    from .analysis import run_static_analysis

    try:
        report = run_static_analysis(
            package_root=args.path,
            baseline_path=args.baseline,
            update_baseline=args.update_baseline,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
        return 0 if report.ok else 1
    for violation in report.new:
        print(violation.format())
    summary = (
        f"-- parallel-readiness: {len(report.new)} violation(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{len(report.baselined)} baselined"
    )
    print(summary)
    for entry in report.stale_baseline:
        print(
            f"-- stale baseline entry (prune it): {entry['rule']} "
            f"{entry['path']}: {entry['message']}"
        )
    if report.ok:
        print("-- parallel-readiness: ok (RPQ101..RPQ105 + RPQ100 waivers)")
    return 0 if report.ok else 1


def cmd_analyze(args):
    from .analysis import ALL_RULES, PARALLEL_RULES, run_schedule_sweep
    from .analysis.external import run_external_linters
    from .analysis.parallel import lint_package_with_suppressions

    if args.list_rules:
        for rule_cls in ALL_RULES + PARALLEL_RULES:
            print(f"{rule_cls.rule_id}  {rule_cls.title}")
            print(f"        {rule_cls.rationale}")
        return 0

    if args.static:
        return _cmd_analyze_static(args)

    rc = 0
    try:
        violations, suppressed = lint_package_with_suppressions(args.path)
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    if args.json:
        # Machine-readable contract shared with --static --json: a
        # violation list plus exit 1 iff unsuppressed violations exist.
        print(
            json.dumps(
                {
                    "ok": not violations,
                    "rules": [r.rule_id for r in ALL_RULES],
                    "violations": _violation_rows(violations),
                    "suppressed": _violation_rows(suppressed),
                },
                indent=2,
            )
        )
        return 0 if not violations else 1
    for violation in violations:
        print(violation.format())
    if violations:
        print(
            f"-- protocol lint: {len(violations)} violation(s), "
            f"{len(suppressed)} suppressed"
        )
        rc = 1
    else:
        print("-- protocol lint: ok "
              f"({len(ALL_RULES)} rules: RPQ001..RPQ00{len(ALL_RULES)}, "
              f"{len(suppressed)} suppressed)")

    if not args.no_external:
        rc = max(rc, run_external_linters())

    if args.races:
        from .datagen import BENCHMARK_QUERIES, mini_ldbc

        graph, info = mini_ldbc(args.scale, seed=args.seed)
        config = EngineConfig(num_machines=args.machines)
        queries = [build(info) for build in BENCHMARK_QUERIES.values()]
        reports = run_schedule_sweep(
            graph, queries, num_schedules=args.races, config=config
        )
        for report in reports:
            print(f"-- races: {report.summary()}")
        if any(not r.ok for r in reports):
            print("-- race detector: RESULT-SET DIVERGENCE (order dependence)")
            rc = 1
        else:
            print(f"-- race detector: ok ({len(reports)} queries x "
                  f"{args.races} schedules)")
    return rc


def cmd_workload(args):
    from .datagen import BENCHMARK_QUERIES, mini_ldbc

    backend = args.backend
    graph, info = mini_ldbc(args.scale, seed=args.seed)
    if args.concurrency > 1:
        if backend == "process":
            print(
                "error: --concurrency requires --backend sim (the process "
                "backend has no concurrent multi-query scheduler yet)",
                file=sys.stderr,
            )
            return 2
        return _workload_concurrent(args, graph, info, BENCHMARK_QUERIES)
    if backend == "process" and args.timeline:
        print(
            "error: --timeline requires --backend sim (the process backend "
            "has no virtual-time trace recorder)",
            file=sys.stderr,
        )
        return 2
    engines = {
        "rpqd": Session(graph, _engine_config(args)),
        "bft": BftEngine(graph),
        "recursive": RecursiveEngine(graph),
    }
    rows = []
    records = []
    timelines = []
    any_partial = False
    try:
        for name, build in BENCHMARK_QUERIES.items():
            query = build(info)
            row = [name]
            record = {"query": name}
            for ename, engine in engines.items():
                if ename == "rpqd" and args.timeline:
                    result = engine.execute(query, trace=True)
                    timelines.append((name, result.trace))
                else:
                    result = engine.execute(query)
                latency = round(result.virtual_time, 1)
                if ename == "rpqd":
                    # Completeness propagation: a run cut short by a permanent
                    # machine loss (recovery off) or a deadline is flagged so
                    # its latency is never mistaken for a full answer.
                    complete = getattr(result, "complete", True)
                    record["complete"] = complete
                    record["timed_out"] = getattr(result, "timed_out", False)
                    record["down_machines"] = list(
                        getattr(result.stats, "down_machines", ())
                    )
                    recovery = getattr(result.stats, "recovery", None)
                    if recovery is not None:
                        record["recoveries"] = recovery.get("recoveries", 0)
                    if not complete:
                        any_partial = True
                        row.append(f"{latency}*")
                    else:
                        row.append(latency)
                else:
                    row.append(latency)
                record[ename] = latency
                # Wall-clock is reporting-only (host-relative,
                # nondeterministic) but rides along for bench trajectories:
                # virtual rounds stay the primary latency metric.
                record[f"{ename}_wall_seconds"] = getattr(
                    result.stats, "wall_seconds", None
                )
            rows.append(row)
            records.append(record)
    finally:
        # The rpqd session may own process-backend resources (worker pool
        # bookkeeping, shared-memory CSR segments): release them even when
        # a query raises.
        engines["rpqd"].close()
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
                rows,
                title=f"paper workload at scale {args.scale!r} "
                f"(virtual latency, rpqd on {args.machines} machines, "
                f"{backend} backend)",
            )
        )
        if any_partial:
            print("* PARTIAL results (incomplete run); latency is a lower bound")
    # With --json the timelines go to stderr so stdout stays parseable.
    out = sys.stderr if args.json else sys.stdout
    for name, trace in timelines:
        print(f"\n{name} timeline (rpqd, {args.machines} machines):", file=out)
        print(trace.render_timeline(), file=out)
    return 0


def _workload_concurrent(args, graph, info, benchmark_queries):
    """``workload --concurrency N``: the nine queries through the shared
    cluster scheduler, checked row-for-row against sequential execution.

    Runs every query solo first (the baseline: their makespans *sum*,
    since sequential queries own the cluster back to back), then submits
    them all onto one :class:`~repro.runtime.multi.ClusterScheduler` with
    ``max_concurrent_queries=N`` and compares result sets.  Any divergence
    is a determinism bug and exits 1.

    With ``--faults`` (and optionally ``--recover``) the concurrent batch
    runs under the cluster-level fault plan while the baselines stay
    fault-free solo runs with reliable transport held on — the
    chaos-hardened invariant: every query's rows must still match, and
    the JSON report carries per-query ``complete``/``recoveries``/
    ``down_machines`` plus the cross-query ``blast_radius``.
    """
    config = _engine_config(
        args, max_concurrent_queries=args.concurrency, sanitize=args.sanitize
    )
    chaos = config.faults is not None or config.recovery
    session = Session(graph, config)
    if chaos:
        # Baselines must be fault-free (solo, transport held on) or the
        # oracle would compare chaos against chaos.
        baseline_session = connect(
            graph,
            num_machines=args.machines,
            sanitize=args.sanitize,
            reliable_transport=True,
        )
    else:
        baseline_session = session
    queries = [
        (name, build(info)) for name, build in benchmark_queries.items()
    ]
    sequential = {}
    sequential_makespan = 0
    for name, query in queries:
        result = baseline_session.execute(query)
        sequential[name] = result
        sequential_makespan += result.stats.rounds
    handles = [(name, session.submit(query)) for name, query in queries]
    session.drain()
    concurrent_makespan = session.cluster_rounds
    speedup = (
        sequential_makespan / concurrent_makespan if concurrent_makespan else 0.0
    )
    rows = []
    records = []
    identical = True
    for name, handle in handles:
        result = handle.result()
        if chaos:
            # Chaos legitimately perturbs emission order (delays, replay):
            # the invariant is the *set* of rows, like the chaos sweeps.
            match = sorted(result.rows) == sorted(sequential[name].rows)
        else:
            match = result.rows == sequential[name].rows
        identical = identical and match
        rows.append(
            [
                name,
                round(sequential[name].stats.rounds, 1),
                round(result.stats.rounds, 1),
                "yes" if match else "NO",
            ]
        )
        record = {
            "query": name,
            "solo_rounds": sequential[name].stats.rounds,
            "concurrent_rounds": result.stats.rounds,
            "rows": len(result.rows),
            "identical": match,
        }
        if chaos:
            recovery = getattr(result.stats, "recovery", None) or {}
            record["complete"] = result.complete
            record["timed_out"] = getattr(result, "timed_out", False)
            record["recoveries"] = recovery.get("recoveries", 0)
            record["down_machines"] = list(
                getattr(result.stats, "down_machines", ())
            )
        records.append(record)
    doc = None
    if args.json:
        doc = {
            "scale": args.scale,
            "seed": args.seed,
            "machines": args.machines,
            "concurrency": args.concurrency,
            "latency_unit": "virtual rounds",
            "sequential_makespan": sequential_makespan,
            "concurrent_makespan": concurrent_makespan,
            "speedup": round(speedup, 3),
            "identical": identical,
            "plan_cache": {
                "hits": session.plan_cache.hits,
                "misses": session.plan_cache.misses,
            },
            "results": records,
        }
        if chaos:
            doc["blast_radius"] = session.cluster_blast_radius
        print(json.dumps(doc, indent=2))
    else:
        print(
            format_table(
                ["query", "solo rounds", "concurrent rounds", "identical"],
                rows,
                title=f"paper workload, {args.concurrency}-way concurrent on "
                f"{args.machines} machines (scale {args.scale!r})",
            )
        )
        print(
            f"-- makespan: {concurrent_makespan} rounds concurrent vs "
            f"{sequential_makespan} sequential ({speedup:.2f}x)"
        )
    if not identical:
        print(
            "-- CONCURRENCY DIVERGENCE: concurrent result sets differ from "
            "sequential execution (determinism bug)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_chaos(args):
    from .datagen import BENCHMARK_QUERIES, mini_ldbc
    from .faults import run_chaos_sweep, seeded_sweep

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
    queries = [BENCHMARK_QUERIES[n](info) for n in names]
    recover = args.recover
    plans = seeded_sweep(
        args.plans,
        base_seed=args.base_seed,
        num_machines=args.machines,
        drop_prob=args.drop,
        dup_prob=args.dup,
        delay_prob=args.delay,
        reorder_prob=args.reorder,
        permanent=recover,
        partitions=args.partition,
        corrupt_prob=args.corrupt,
    )
    config = EngineConfig(
        num_machines=args.machines, sanitize=args.sanitize, recovery=recover
    )
    if args.concurrency > 1:
        return _cmd_chaos_concurrent(args, graph, names, queries, plans, config)
    reports = run_chaos_sweep(graph, queries, plans, config=config)
    records = []
    for name, report in zip(names, reports):
        records.append(
            {
                "query": name,
                "plans": len(report.runs),
                "faults_injected": report.total_faults,
                "baseline_makespan": report.baseline_makespan,
                "makespan_inflation": [
                    {"seed": seed, "ratio": round(ratio, 3)}
                    for seed, ratio in report.makespan_inflation()
                ],
                "retransmits": sum(r.retransmits for r in report.runs),
                "recoveries": sum(r.recoveries for r in report.runs),
                "ok": report.ok,
                "mismatches": report.mismatches,
            }
        )
    if args.json:
        print(
            json.dumps(
                {
                    "scale": args.scale,
                    "seed": args.seed,
                    "machines": args.machines,
                    "plans": args.plans,
                    "base_seed": args.base_seed,
                    "results": records,
                },
                indent=2,
            )
        )
    else:
        for name, report in zip(names, reports):
            print(f"-- chaos {name}: {report.summary()}")
    if any(not r.ok for r in reports):
        print(
            "-- chaos sweep: RESULT DIVERGENCE under faults "
            "(reliable transport failed its exactly-once contract)",
            file=sys.stderr,
        )
        return 1
    total = sum(r.total_faults for r in reports)
    extra = ""
    if recover:
        failovers = sum(
            run.recoveries for report in reports for run in report.runs
        )
        extra = f", {failovers} crash failovers recovered"
    print(
        f"-- chaos sweep: ok ({len(reports)} queries x {args.plans} plans, "
        f"{total} faults injected, results identical to fault-free{extra})"
    )
    return 0


def _cmd_chaos_concurrent(args, graph, names, queries, plans, config):
    """``repro chaos --concurrency N``: the seeded sweep through the
    multi-query Session submit path.

    Every query in the batch must reproduce its fault-free *solo* result
    set while co-resident queries share the faulted cluster; ``--json``
    reports per-query ``complete``/``recoveries``/``down_machines`` plus
    the cross-query ``blast_radius`` (queries rolled back per permanent
    crash).  Exit 1 on any divergence.
    """
    from .faults import run_concurrent_chaos_sweep

    report = run_concurrent_chaos_sweep(
        graph, queries, plans, config=config, concurrency=args.concurrency
    )
    if args.json:
        runs = []
        for run in report.runs:
            runs.append(
                {
                    "seed": run.seed,
                    "identical": run.identical,
                    "makespan": run.makespan,
                    "fault_counts": run.fault_counts,
                    "blast_radius": run.blast_radius,
                    "queries": [
                        {"query": names[q["index"]], **{
                            k: v for k, v in q.items() if k != "index"
                        }}
                        for q in run.queries
                    ],
                }
            )
        print(
            json.dumps(
                {
                    "scale": args.scale,
                    "seed": args.seed,
                    "machines": args.machines,
                    "concurrency": args.concurrency,
                    "plans": args.plans,
                    "base_seed": args.base_seed,
                    "identical": report.ok,
                    "recoveries": report.total_recoveries,
                    "results": runs,
                },
                indent=2,
            )
        )
    else:
        print(f"-- chaos --concurrency {args.concurrency}: {report.summary()}")
        for run in report.runs:
            crashes = sum(len(e["rolled_back"]) for e in run.blast_radius)
            print(
                f"--   seed {run.seed}: makespan {run.makespan}, "
                f"faults {sum(run.fault_counts.values())}, "
                f"{len(run.blast_radius)} permanent crash(es), "
                f"{crashes} query rollback(s), "
                f"{'identical' if run.identical else 'DIVERGED'}"
            )
    if not report.ok:
        print(
            "-- chaos sweep: RESULT DIVERGENCE under concurrent faults "
            "(per-query isolation or exactly-once replay failed)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bench(args):
    """``repro bench``: run a named suite, write ``BENCH_<suite>.json``,
    optionally compare against a baseline document.

    Exit codes are stable for CI: 0 no regressions (or no compare), 1
    regressions found, 2 usage/IO/schema errors.
    """
    from .bench.compare import (
        CompareError,
        compare_bench,
        format_compare,
        load_bench,
    )
    from .bench.suites import SUITES, run_suite

    thresholds = {
        "max_wall_ratio": args.max_wall_ratio,
        "max_rounds_ratio": args.max_rounds_ratio,
        "max_messages_ratio": args.max_messages_ratio,
        "min_wall_seconds": args.min_wall_seconds,
    }
    try:
        if args.current:
            # File-vs-file mode: no run, just the comparison gate.
            if not args.compare:
                print("error: --current requires --compare", file=sys.stderr)
                return 2
            current = load_bench(args.current)
        else:
            only = None
            if args.queries:
                only = [q.strip() for q in args.queries.split(",") if q.strip()]
            try:
                current = run_suite(
                    args.suite,
                    scale=args.scale,
                    machines=args.machines,
                    repetitions=args.repetitions,
                    profile=not args.no_profile,
                    seed=args.seed,
                    only=only,
                    backend=args.backend,
                )
            except KeyError:
                print(
                    f"error: unknown suite {args.suite!r} "
                    f"(available: {', '.join(sorted(SUITES))})",
                    file=sys.stderr,
                )
                return 2
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            out = args.out or f"BENCH_{args.suite}.json"
            try:
                with open(out, "w") as fh:
                    json.dump(current, fh, indent=2)
                    fh.write("\n")
            except OSError as exc:
                print(f"error: {out}: {exc}", file=sys.stderr)
                return 2
            if args.json:
                print(json.dumps(current, indent=2))
            else:
                _print_bench_table(current)
                print(f"-- bench written to {out}")
        if args.compare:
            baseline = load_bench(args.compare)
            report = compare_bench(current, baseline, **thresholds)
            if args.json:
                print(json.dumps(report, indent=2))
            else:
                print(format_compare(report))
            return 0 if report["ok"] else 1
    except CompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _print_bench_table(doc):
    """The human-readable ``repro bench`` summary table.

    Process-backend documents grow three columns: the simulator oracle's
    wall time, the wall-clock speedup over it, and whether the result
    sets were bit-identical.
    """
    process = doc.get("backend") == "process"
    rows = []
    for qname, q in doc["queries"].items():
        row = [
            qname + ("" if q.get("complete", True) else "*"),
            round(q["virtual_rounds"], 1),
            f"{q['median_wall_seconds'] * 1000:.2f}",
            q["messages"],
            q["bytes"],
        ]
        if process:
            speedup = q.get("wall_speedup_vs_sim")
            row.extend([
                f"{q.get('sim_wall_seconds', 0.0) * 1000:.2f}",
                f"{speedup:.2f}x" if speedup is not None else "-",
                "yes" if q.get("identical_to_sim") else "NO",
            ])
        rows.append(row)
    headers = ["query", "rounds", "wall ms", "messages", "bytes"]
    if process:
        headers += ["sim ms", "speedup", "identical"]
    cache = doc["plan_cache"]
    rate = cache["hit_rate"]
    backend = doc.get("backend", "sim")
    print(
        format_table(
            headers,
            rows,
            title=f"suite {doc['suite']!r} scale {doc['scale']!r} "
            f"({doc['machines']} machines, {doc['repetitions']} reps + "
            f"{doc['warmup']} warmup, {backend} backend)",
        )
    )
    total = doc["total"]
    rss = doc.get("peak_rss_bytes")
    print(
        f"-- total: {total['virtual_rounds']:.0f} virtual rounds, "
        f"{total['wall_seconds']:.3f}s wall; plan cache "
        f"{cache['hits']}/{cache['hits'] + cache['misses']} hits"
        + (f" ({rate:.0%})" if rate is not None else "")
        + (f"; peak RSS {rss / 1e6:.0f} MB" if rss else "")
    )


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
        help="write runtime metrics in Prometheus text format (rpqd only)",
    )
    p.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="inject faults from a repro.faults.FaultPlan JSON file "
        "(rpqd only; enables reliable transport automatically)",
    )
    p.add_argument(
        "--unreliable",
        action="store_true",
        help="disable the reliable transport layer even with --faults "
        "(chaos without the safety net)",
    )
    p.add_argument(
        "--recover",
        action="store_true",
        help="enable crash recovery: checkpoint/failover/replay survives "
        "permanent machine crashes in the fault plan (rpqd only)",
    )
    p.add_argument(
        "--deadline",
        type=int,
        metavar="ROUNDS",
        help="abort cleanly after this many virtual rounds (partial results)",
    )
    _add_engine_args(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("explain", help="print the distributed plan")
    p.add_argument("graph", help="JSON-lines graph path")
    p.add_argument("query", help="PGQL text")
    p.add_argument("--machines", type=int, default=4)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("workload", help="run the paper's nine queries")
    p.add_argument("--scale", choices=["xs", "s", "m", "l"], default="s")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--machines", type=int, default=4)
    p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the text table",
    )
    p.add_argument(
        "--timeline",
        action="store_true",
        help="print the rpqd ASCII utilization timeline per query",
    )
    p.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="run the rpqd engine under a repro.faults.FaultPlan JSON file",
    )
    p.add_argument(
        "--recover",
        action="store_true",
        help="enable crash recovery for the rpqd engine (with --faults)",
    )
    p.add_argument(
        "--deadline",
        type=int,
        metavar="ROUNDS",
        help="abort each rpqd query after this many virtual rounds",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=1,
        metavar="N",
        help="run all nine queries concurrently (N at a time) on one "
        "shared cluster and verify result sets match sequential execution",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="run under the protocol sanitizer (with --concurrency, every "
        "interleaved query gets its own sanitizer)",
    )
    _add_backend_arg(p)
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser(
        "bench",
        help="run a named benchmark suite, write schema-versioned "
        "BENCH_<suite>.json, optionally gate against a baseline "
        "(exit 0 ok / 1 regression / 2 usage-IO error)",
    )
    p.add_argument(
        "--suite",
        default="smoke",
        help="suite name: smoke, standard, depth, index (default: smoke)",
    )
    p.add_argument("--scale", choices=["xs", "s", "m", "l"], default=None,
                   help="override the suite's graph scale")
    p.add_argument("--machines", type=int, default=None,
                   help="override the suite's machine count")
    p.add_argument("--repetitions", type=int, default=None,
                   help="override the suite's measured repetitions")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--queries", metavar="Q1,Q2",
        help="restrict to a comma-separated subset of the suite's queries",
    )
    p.add_argument(
        "--no-profile", action="store_true",
        help="skip the wall-clock phase profiler (drops the per-phase "
        "breakdown from the document)",
    )
    p.add_argument(
        "--out", metavar="FILE",
        help="output path (default: BENCH_<suite>.json)",
    )
    p.add_argument(
        "--compare", metavar="BASELINE.json",
        help="diff the produced (or --current) document against this "
        "baseline; exit 1 on regressions",
    )
    p.add_argument(
        "--current", metavar="FILE",
        help="with --compare: diff this existing document instead of "
        "running the suite",
    )
    p.add_argument(
        "--max-wall-ratio", type=float, default=None, metavar="R",
        help="wall-clock regression threshold (default: 2.0)",
    )
    p.add_argument(
        "--max-rounds-ratio", type=float, default=None, metavar="R",
        help="virtual-rounds regression threshold (default: 1.05)",
    )
    p.add_argument(
        "--max-messages-ratio", type=float, default=None, metavar="R",
        help="message-count regression threshold (default: 1.10)",
    )
    p.add_argument(
        "--min-wall-seconds", type=float, default=None, metavar="S",
        help="ignore wall regressions when both sides are under this "
        "floor (default: 0.005)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the document (and compare report) as JSON on stdout",
    )
    _add_backend_arg(p)
    p.set_defaults(func=cmd_bench)

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
    p.add_argument("--scale", choices=["xs", "s", "m", "l"], default="xs")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--machines", type=int, default=4)
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
        "--sanitize", action="store_true",
        help="run every execution under the protocol sanitizer",
    )
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
    p.add_argument(
        "--concurrency",
        type=int,
        default=1,
        metavar="N",
        help="submit the queries concurrently (N at a time) through the "
        "multi-query scheduler under the cluster-level fault plan; every "
        "query must still match its fault-free solo result set, and the "
        "JSON report carries per-query recoveries plus the cross-query "
        "blast radius",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the text summary",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "analyze",
        help="protocol lint rules + ruff/mypy + optional race detector; "
        "--static runs the parallel-readiness (RPQ100-series) gate",
    )
    p.add_argument(
        "path",
        nargs="?",
        default=None,
        help="package directory to lint (default: the installed repro package)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    p.add_argument(
        "--static",
        action="store_true",
        help="run the parallel-readiness pass (RPQ101..RPQ105) against the "
        "committed baseline; exit 1 iff unbaselined violations exist",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable violation list (exit 1 iff "
        "unsuppressed violations exist)",
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file for --static (default: analysis-baseline.json "
        "at the repo root)",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --static: rewrite the baseline from current findings "
        "(keeps documented reasons for unchanged entries)",
    )
    p.add_argument(
        "--no-external",
        action="store_true",
        help="skip ruff/mypy even when installed",
    )
    p.add_argument(
        "--races",
        type=int,
        default=0,
        metavar="N",
        help="also run the workload under N permuted scheduler interleavings",
    )
    p.add_argument("--scale", choices=["xs", "s", "m", "l"], default="xs")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--machines", type=int, default=4)
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
