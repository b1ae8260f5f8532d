"""Human-readable rendering of distributed plans (EXPLAIN output)."""

from statistics import median

from .stages import HopKind


def _fmt_est(value):
    """Compact estimate rendering: integers below 10k, else ~1.2e+06."""
    if value is None:
        return "?"
    if value < 10_000:
        return f"{value:,.0f}"
    return f"{value:.1e}"


def q_error(estimated, actual):
    """How far off an estimate is, as a factor >= 1 in either direction:
    ``max(est, act) / min(est, act)`` with both sides floored at 1, so an
    estimate of 0.3 against 0 actual matches is exact, not infinitely off."""
    return max(estimated, actual, 1) / max(min(estimated, actual), 1)


def _fmt_q(q):
    if q is None:
        return "?"
    return f"{q:.1f}" if q < 1000 else f"{q:.1e}"


def explain(plan, stats=None, profile=None, use_index=None):
    """Return a multi-line string describing a :class:`DistributedPlan`;
    an RPQ segment run without an index under ``use_index`` (the run's
    ``EngineConfig.use_reachability_index``) says why.

    With ``stats`` (a :class:`~repro.runtime.stats.RunStats` from an
    execution of this plan) this becomes an EXPLAIN ANALYZE: each stage
    line carries the planner's cardinality estimate beside the actual
    match count and their q-error (:func:`q_error`), and a footer reports
    timing (virtual rounds *and* wall seconds), message volume, the worst
    and the median q-error, per-RPQ depth/frontier tables, and — when
    the run was profiled (``EngineConfig.profile`` or an explicit
    ``profile`` summary dict) — the wall-clock phase breakdown.
    """
    matches = stats.stage_matches if stats is not None else None
    q_errors = []  # (q-error, stage) of every stage that carries an estimate
    lines = [
        f"DistributedPlan: {plan.num_stages} stages, {plan.num_slots} context slots, "
        f"{plan.rpq_count} RPQ segment(s)"
    ]
    if plan.bootstrap_single_vertex is not None:
        lines.append(f"bootstrap: single vertex id={plan.bootstrap_single_vertex}")
    for stage in plan.stages:
        parts = [f"S{stage.index} {stage.kind.value}"]
        if stage.var:
            parts.append(f"var={stage.var}")
        if stage.label_ids:
            parts.append(f"labels={stage.label_ids}")
        if stage.filter is not None:
            parts.append("filtered")
        if stage.captures:
            parts.append(f"captures={len(stage.captures)}")
        if stage.acc_updates:
            parts.append(f"acc_updates={len(stage.acc_updates)}")
        if stage.rpq is not None:
            spec = stage.rpq
            bound = "inf" if spec.max_hops is None else spec.max_hops
            parts.append(
                f"rpq#{spec.rpq_id}[{spec.min_hops},{bound}] "
                f"path={list(spec.path_stages)} exit=S{spec.exit_stage}"
            )
            if use_index is False:
                parts.append("index: none (disabled)")
            elif use_index is None and spec.forest:
                parts.append("index: none (forest)")
        hop = stage.hop
        if hop is not None:
            if hop.kind is HopKind.OUTPUT:
                parts.append("=> OUTPUT")
            else:
                extra = ""
                if hop.kind is HopKind.NEIGHBOR:
                    extra = f" dir={hop.direction.value} labels={hop.edge_label_ids}"
                    if hop.functional:
                        extra += " functional"
                elif hop.kind is HopKind.EDGE:
                    extra = f" dir={hop.direction.value} anchor_slot={hop.anchor_slot}"
                elif hop.kind is HopKind.INSPECT:
                    extra = f" anchor_slot={hop.anchor_slot}"
                elif hop.kind is HopKind.TRANSITION and hop.control_entry:
                    extra = f" control_entry={hop.control_entry}"
                parts.append(f"=> {hop.kind.value} S{hop.target}{extra}")
        if matches is not None:
            est, act = stage.estimated_matches, matches.get(stage.index, 0)
            q = None if est is None else q_error(est, act)
            if q is not None:
                q_errors.append((q, stage))
            parts.append(f"[est~{_fmt_est(est)} act={act:,} q={_fmt_q(q)}]")
        lines.append("  " + " ".join(parts))
    lines.append("slots: " + ", ".join(f"{i}:{n}" for i, n in enumerate(plan.slot_names)))
    if stats is not None:
        lines.extend(_analyze_footer(plan, stats, profile, q_errors))
    return "\n".join(lines)


def _analyze_footer(plan, stats, profile, q_errors):
    """The EXPLAIN ANALYZE epilogue: timing, volume, estimate quality,
    depths, profile."""
    lines = ["analyze:"]
    quiescent = (
        f" (quiescent at {stats.quiescent_round})"
        if stats.quiescent_round is not None
        else ""
    )
    lines.append(
        f"  time: {stats.virtual_time} virtual rounds{quiescent}, "
        f"{stats.wall_seconds:.4f}s wall"
    )
    lines.append(
        f"  messages: {stats.batches_sent:,} batches, "
        f"{stats.contexts_sent:,} contexts, {stats.bytes_sent:,} bytes"
    )
    if q_errors:
        worst, stage = max(q_errors, key=lambda e: e[0])
        lines.append(
            f"  estimates: worst q={_fmt_q(worst)} at S{stage.index} "
            f"({stage.kind.value}), median q="
            f"{_fmt_q(median(q for q, _ in q_errors))} over {len(q_errors)} stages"
        )
    for spec in plan.rpq_specs():
        table = stats.depth_table(spec.rpq_id)
        if not table:
            continue
        lines.append(
            f"  rpq#{spec.rpq_id} frontier (depth: matches/eliminated/duplicated):"
        )
        for depth, matched, eliminated, duplicated in table:
            lines.append(
                f"    d{depth}: {matched:,}/{eliminated:,}/{duplicated:,}"
            )
    if profile is None:
        profile = getattr(stats, "profile", None)
    if profile:
        from ..obs.prof import format_profile

        lines.append("  profile (wall-clock phases):")
        lines.append(format_profile(profile, indent="    "))
    return lines
