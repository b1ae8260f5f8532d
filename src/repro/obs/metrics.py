"""Prometheus text rendered from a finished run.

A count has one home: :class:`~repro.runtime.stats.RunStats` (the
per-machine counters, the per-depth control tables, and the transport,
fault, recovery and membership epilogues).  Metrics are a view of it:
:func:`metric_families` reads a finished
:class:`~repro.engine.result.QueryResult` — its ``stats``, its ``plan``
and, when the run was observed, its recorder's events — and
:func:`render_prometheus` turns the families into text exposition format.
Nothing in the runtime records into this module, so both backends export
the same counter families; only the histograms of sent batches and the
termination-candidate counter need the event stream of an observed
(simulator) run.
"""

from collections import namedtuple

#: Histogram bucket upper bounds: powers of two, wide enough for batch
#: sizes, modelled bytes, and round counts at the simulated scales.
DEFAULT_BUCKETS = tuple(2 ** i for i in range(17))  # 1 .. 65536

#: Detection-latency histogram buckets, in rounds of virtual time.
LATENCY_BUCKETS = (4, 8, 16, 24, 32, 48, 64, 96, 128, 256)

#: Per-machine counters exported as ``repro_machine_stat{machine,stat}``.
MACHINE_STATS = (
    "batches_sent", "contexts_sent", "bytes_sent",
    "flow_control_blocks", "overflow_grants",
    "peak_inflight_buffers", "peak_absorbed_batches",
    "edges_traversed", "outputs", "bootstrapped",
    "done_messages", "status_messages", "index_entries",
    "busy_rounds", "idle_rounds", "blocked_rounds",
    "stalled_rounds",
)

#: One metric family.  ``samples`` maps a tuple of label values (strings,
#: in ``labelnames`` order) to a number, or for a histogram to the list of
#: observed values.
Family = namedtuple(
    "Family", "name kind help labelnames samples buckets",
    defaults=(DEFAULT_BUCKETS,),
)


def metric_families(result):
    """``{name: Family}`` for a finished run; families without samples
    (a feature that was off, an unobserved run) are left out."""
    stats, plan = result.stats, result.plan
    machines = list(enumerate(stats.per_machine))
    families = {}

    def add(name, kind, help_text, labelnames, samples, buckets=DEFAULT_BUCKETS):
        if samples:
            families[name] = Family(
                name, kind, help_text, labelnames,
                {tuple(str(v) for v in k): v for k, v in samples.items()},
                buckets,
            )

    def per_machine(name, help_text, value):
        add(name, "counter", help_text, ("machine",),
            {(m,): value(s) for m, s in machines})

    add("repro_machine_stat", "gauge",
        "final per-machine counter snapshot (one series per stat)",
        ("machine", "stat"),
        {(m, stat): getattr(s, stat) for m, s in machines for stat in MACHINE_STATS})
    per_machine("repro_batches_sent_total", "batches shipped to other machines",
                lambda s: s.batches_sent)
    per_machine("repro_flow_blocks_total",
                "flow-control block episodes (send found its bucket empty)",
                lambda s: s.flow_control_blocks)
    per_machine("repro_flow_overflow_grants_total",
                "sends that needed a per-depth overflow buffer",
                lambda s: s.overflow_grants)
    if stats.num_machines > 1:
        per_machine("repro_status_broadcasts_total",
                    "termination-protocol STATUS broadcast rounds",
                    lambda s: s.status_messages // (stats.num_machines - 1))

    specs = plan.rpq_specs()
    if specs:
        add("repro_index_probes_total", "counter",
            "reachability-index check-and-update outcomes "
            "(insert / hit-eliminated / overwrite-duplicated)",
            ("machine", "outcome"),
            {(m, outcome): n for m, s in machines for outcome, n in (
                ("insert", s.index_inserts),
                ("overwrite", s.index_updates),
                ("eliminated", sum(sum(c.values()) for c in s.eliminated.values())),
            )})
    entries = {}
    for spec in specs:
        for depth, matches, eliminated, duplicated in stats.depth_table(spec.rpq_id):
            if depth < spec.min_hops:
                outcomes = (("below_min", matches),)
            else:
                outcomes = (("match", matches - eliminated - duplicated),
                            ("eliminated", eliminated), ("duplicated", duplicated))
            for outcome, n in outcomes:
                if n:
                    entries[(spec.rpq_id, depth, outcome)] = n
    add("repro_control_entries_total", "counter",
        "RPQ control-stage entries per (segment, depth, outcome)",
        ("rpq", "depth", "outcome"), entries)

    if stats.transport is not None:
        for key, help_text in (
            ("retransmits", "reliable-transport retransmissions"),
            ("fenced", "stale-epoch message copies fenced after recovery"),
            ("corrupt_dropped", "message copies discarded for checksum mismatch"),
            ("retx_exhausted", "frames abandoned to confirmed-down peers"),
        ):
            add(f"repro_net_{key}_total", "counter", help_text, (),
                {(): stats.transport[key]})
    add("repro_fault_injected_total", "counter",
        "faults injected into the simulated interconnect/cluster", ("kind",),
        {(kind,): n for kind, n in (stats.fault_events or {}).items()})
    if stats.recovery is not None:
        add("repro_recovery_checkpoints_total", "counter",
            "global recovery checkpoints taken", (),
            {(): stats.recovery["checkpoints"]})
        add("repro_recovery_failovers_total", "counter",
            "permanent-crash failovers (epoch bumps)", (),
            {(): stats.recovery["recoveries"]})
    membership = stats.membership
    if membership is not None:
        add("repro_membership_suspicions_total", "counter",
            "suspicion episodes by outcome", ("outcome",),
            {("confirmed",): membership["confirmations"],
             ("cleared",): membership["false_suspicions"]})
        latencies = membership["detection_latencies"]
        add("repro_membership_detection_latency_rounds", "histogram",
            "rounds from last contact to the confirmed-down verdict", (),
            {(): latencies} if latencies else {}, LATENCY_BUCKETS)

    if result.obs is not None:
        _event_families(result.obs.events, add)
    return families


def _event_families(events, add):
    """The families only an observed run's events carry: the size, byte
    and credit-wait distributions of sent batches (``batch.send`` args)
    and termination candidates (``term.candidate`` instants)."""
    contexts, size, wait, candidates = {}, {}, {}, {}
    for event in events:
        name = event.get("name")
        if name == "batch.send":
            machine = (event["pid"],)
            args = event["args"]
            contexts.setdefault(machine, []).append(args["contexts"])
            size.setdefault(machine, []).append(args["bytes"])
            if "wait_rounds" in args:
                wait.setdefault(machine, []).append(args["wait_rounds"])
        elif name == "term.candidate":
            machine = (event["pid"],)
            candidates[machine] = candidates.get(machine, 0) + 1
    add("repro_batch_contexts", "histogram", "contexts per sent batch",
        ("machine",), contexts)
    add("repro_batch_bytes", "histogram", "modelled bytes per sent batch",
        ("machine",), size)
    add("repro_flow_wait_rounds", "histogram",
        "rounds a blocked batch waited for a flow-control credit",
        ("machine",), wait)
    add("repro_term_candidates_total", "counter",
        "termination-confirmation candidates formed", ("machine",), candidates)


def prometheus_text(families):
    """Render families (sorted by name) in Prometheus text format."""
    lines = []
    for family in sorted(families, key=lambda f: f.name):
        name = family.name
        lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for labelvalues, value in sorted(family.samples.items()):
            pairs = list(zip(family.labelnames, labelvalues))
            if family.kind != "histogram":
                lines.append(f"{name}{_format_labels(pairs)} {_fmt_value(value)}")
                continue
            for bound in family.buckets:
                n = sum(1 for v in value if v <= bound)
                labels = _format_labels(pairs + [("le", _fmt_value(bound))])
                lines.append(f"{name}_bucket{labels} {n}")
            labels = _format_labels(pairs + [("le", "+Inf")])
            lines.append(f"{name}_bucket{labels} {len(value)}")
            lines.append(f"{name}_sum{_format_labels(pairs)} {_fmt_value(sum(value))}")
            lines.append(f"{name}_count{_format_labels(pairs)} {len(value)}")
    return "".join(line + "\n" for line in lines)


def render_prometheus(result):
    """The Prometheus text of a finished run, plus the process's peak RSS."""
    from .prof import peak_rss_bytes

    text = prometheus_text(metric_families(result).values())
    rss = peak_rss_bytes()
    if rss is not None:
        text += (
            "# HELP repro_peak_rss_bytes Peak resident set size of the "
            "exporting process (wall-side, not virtual).\n"
            "# TYPE repro_peak_rss_bytes gauge\n"
            f"repro_peak_rss_bytes {rss}\n"
        )
    return text


def _fmt_value(value):
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(pairs):
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _escape(value):
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
