"""Result collection: machine-local sinks, distributed partial aggregation,
and final result assembly (DISTINCT / GROUP BY / ORDER BY / LIMIT)."""

from ..errors import ExecutionError
from ..pgql.expressions import EvalState


class _AggAccumulator:
    """One aggregate cell (count/sum/min/max/avg, optionally DISTINCT)."""

    __slots__ = ("func", "distinct", "count", "total", "min", "max", "values")

    def __init__(self, func, distinct):
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.values = set() if distinct else None

    def update(self, value, is_star):
        if self.distinct:
            if value is not None:
                self.values.add(value)
            return
        if self.func == "count":
            if is_star or value is not None:
                self.count += 1
            return
        if value is None:
            return
        self.count += 1
        if self.func in ("sum", "avg"):
            self.total += value
        if self.func in ("min",):
            self.min = value if self.min is None else min(self.min, value)
        if self.func in ("max",):
            self.max = value if self.max is None else max(self.max, value)

    def clone(self):
        """Value copy for recovery checkpoints (:mod:`repro.recovery`)."""
        new = _AggAccumulator(self.func, self.distinct)
        new.count = self.count
        new.total = self.total
        new.min = self.min
        new.max = self.max
        if self.values is not None:
            new.values = set(self.values)
        return new

    def merge(self, other):
        if self.distinct:
            self.values |= other.values
            return
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    def result(self):
        if self.distinct:
            values = self.values
            if self.func == "count":
                return len(values)
            if not values:
                return None
            if self.func == "sum":
                # Sorted before summing: float addition is not associative,
                # so set iteration order would leak into the result.
                return sum(sorted(values))
            if self.func == "min":
                return min(values)
            if self.func == "max":
                return max(values)
            if self.func == "avg":
                return sum(sorted(values)) / len(values)
        if self.func == "count":
            return self.count
        if self.count == 0:
            return None
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.count
        if self.func == "min":
            return self.min
        return self.max


class MachineSink:
    """Per-machine output collector.

    For aggregate queries it keeps machine-local partial aggregates (the
    distributed engine only ships small per-group states at the end); for
    plain queries it buffers projected rows.  ``add(ctx)`` takes one row; it
    is resolved from the plan's shape when the sink is made or restored: a
    row appender, a group-key function plus an updater per projection, or
    one counter bump for a ``COUNT(*)`` without ``GROUP BY``.
    """

    def __init__(self, plan):
        self.plan = plan
        self._state = EvalState()
        self.rows = []
        self.groups = {}  # group key -> (plain values, [accumulators])
        self.add = self._adder()

    def _adder(self):
        """``add`` for this plan's shape, bound to this sink's current rows,
        groups and accumulators."""
        plan, state, groups = self.plan, self._state, self.groups
        projections = plan.projections
        if not plan.has_aggregates:
            append, fns = self.rows.append, tuple(p.compiled for p in projections)

            def add_row(ctx):
                state.ctx = ctx
                append(tuple([fn(state) for fn in fns]))

            return add_row
        key_fns = plan.group_by
        if not key_fns:
            # One group from the start: with no row at all it assembles the
            # same 0 / NULL row as no group would.
            accumulators = groups.setdefault((), _new_group(projections))[1]
            if len(projections) == 1 and projections[0].compiled is None:  # COUNT(*)
                counter = accumulators[0]

                def count_row(ctx):
                    counter.count += 1

                return count_row
        plain = tuple((i, p.compiled) for i, p in enumerate(projections) if not p.aggregate)
        aggregates = tuple((i, p.compiled) for i, p in enumerate(projections) if p.aggregate)

        def add_grouped(ctx):
            state.ctx = ctx
            key = tuple([fn(state) for fn in key_fns])
            values, accumulators = groups.get(key) or groups.setdefault(
                key, _new_group(projections)
            )
            for i, fn in plain:
                values[i] = fn(state)
            for i, fn in aggregates:
                accumulators[i].update(None if fn is None else fn(state), fn is None)

        return add_grouped

    # -- crash recovery (:mod:`repro.recovery`) -------------------------
    def checkpoint_state(self):
        """Emitted-output watermark + aggregate-state snapshot.

        ``rows`` is append-only, so the checkpoint records only its length
        (the watermark); aggregate groups are value-copied.
        """
        return {"watermark": len(self.rows), "groups": _copy_groups(self.groups)}

    def restore_state(self, state):
        """Roll back to the checkpoint: truncate rows past the watermark
        (output dedup — replayed work re-emits them exactly once) and
        restore the aggregate accumulators."""
        del self.rows[state["watermark"]:]
        self.groups.clear()
        self.groups.update(_copy_groups(state["groups"]))
        self.add = self._adder()  # bound to the restored accumulators


def _new_group(projections):
    """A group's fresh ``(plain values, [accumulators])``.  Not a sink method:
    the sink's ``add`` closes over it, and a bound method there would tie
    the sink into a reference cycle."""
    return ([None] * len(projections), [
        _AggAccumulator(p.aggregate, p.distinct) if p.aggregate else None for p in projections
    ])


def _copy_groups(groups):
    """Value copy of ``{group key: (plain values, [accumulators])}``."""
    return {
        key: (list(plain), [None if acc is None else acc.clone() for acc in accs])
        for key, (plain, accs) in groups.items()
    }


class ResultSet:
    """Final, merged query result.

    ``complete`` is ``False`` when a permanently-failed machine forced the
    scheduler to give up on part of the work (:mod:`repro.faults`) — with
    recovery off — or when the run hit ``EngineConfig.deadline`` on the
    virtual clock; in the latter case ``timed_out`` is also ``True``.  The
    rows are then whatever the surviving machines produced and must be
    treated as a lower bound, not the answer.
    """

    def __init__(self, columns, rows, complete=True, timed_out=False):
        self.columns = columns
        self._rows = rows
        self.complete = complete
        self.timed_out = timed_out

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)

    @property
    def rows(self):
        return list(self._rows)

    def scalar(self):
        """The single value of a one-row, one-column result."""
        if len(self._rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {len(self._rows)}x{len(self.columns)}"
            )
        return self._rows[0][0]

    def column(self, name_or_index):
        if isinstance(name_or_index, str):
            name_or_index = self.columns.index(name_or_index)
        return [row[name_or_index] for row in self._rows]

    def to_dicts(self):
        return [dict(zip(self.columns, row)) for row in self._rows]

    def to_csv(self, path_or_file=None):
        """Write the result as CSV; returns the text when no target given."""
        import csv
        import io

        def write(fh):
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(self._rows)

        if path_or_file is None:
            buffer = io.StringIO()
            write(buffer)
            return buffer.getvalue()
        if hasattr(path_or_file, "write"):
            write(path_or_file)
            return None
        with open(path_or_file, "w", newline="") as fh:
            write(fh)
        return None

    def to_json(self):
        """The rows as a JSON array of objects."""
        import json

        return json.dumps(self.to_dicts())

    def __repr__(self):
        suffix = "" if self.complete else ", complete=False"
        if self.timed_out:
            suffix += ", timed_out=True"
        return f"ResultSet(columns={self.columns}, rows={len(self._rows)}{suffix})"


class QueryResult:
    """A merged result set plus the run's statistics and plan.

    The baseline engines return one too, with their own stats and
    ``plan=None``.
    """

    def __init__(self, result_set, stats, plan, obs=None):
        self.result_set = result_set
        self.stats = stats
        self.plan = plan
        # The observability recorder (repro.obs) when the run was observed:
        # span events, exporter input.  None otherwise.
        self.obs = obs

    # Convenience pass-throughs.
    def __iter__(self):
        return iter(self.result_set)

    def __len__(self):
        return len(self.result_set)

    @property
    def columns(self):
        return self.result_set.columns

    @property
    def rows(self):
        return self.result_set.rows

    def scalar(self):
        return self.result_set.scalar()

    def column(self, name_or_index):
        return self.result_set.column(name_or_index)

    def to_dicts(self):
        return self.result_set.to_dicts()

    @property
    def complete(self):
        """False when a permanently-down machine made the rows a lower bound."""
        return self.result_set.complete

    @property
    def timed_out(self):
        """True when the run was aborted at ``EngineConfig.deadline``."""
        return self.result_set.timed_out

    @property
    def virtual_time(self):
        """Virtual makespan in scheduler rounds (the latency metric)."""
        return self.stats.virtual_time

    @property
    def wall_seconds(self):
        """Wall-clock duration of the run (reporting only; see profile)."""
        return self.stats.wall_seconds

    @property
    def profile(self):
        """Wall-clock phase breakdown when ``EngineConfig.profile`` was on,
        else None (:mod:`repro.obs.prof`)."""
        return getattr(self.stats, "profile", None)

    def explain_analyze(self):
        """The executed plan annotated with planner estimates, actual
        per-stage match counts, timing, RPQ depth tables, and — when
        profiling was on — the wall-clock phase breakdown."""
        from ..plan.explain import explain as explain_plan

        use_index = self.stats.config.use_reachability_index
        return explain_plan(self.plan, stats=self.stats, use_index=use_index)


def _sort_key(value):
    """None-safe, mixed-type-safe sort key (NULLs last, then by type name)."""
    if value is None:
        return (2, "", "")
    return (0 if isinstance(value, (int, float, bool)) else 1, type(value).__name__, value)


def assemble_results(plan, sinks, complete=True, timed_out=False):
    """Merge per-machine sinks into the final :class:`ResultSet`."""
    columns = [p.name for p in plan.projections]
    if plan.has_aggregates:
        merged = {}
        for sink in sinks:
            for key, (plain, accumulators) in sink.groups.items():
                entry = merged.get(key)
                if entry is None:
                    merged[key] = (list(plain), accumulators)
                else:
                    m_plain, m_accs = entry
                    for i, acc in enumerate(accumulators):
                        if acc is None:
                            if m_plain[i] is None:
                                m_plain[i] = plain[i]
                        else:
                            m_accs[i].merge(acc)
        # Without GROUP BY every sink holds its one group from the start, so
        # an empty match still assembles SQL's one 0 / NULL row.
        rows = []
        for key in sorted(merged.keys(), key=lambda k: tuple(_sort_key(v) for v in k)):
            plain, accs = merged[key]
            rows.append(tuple(v if acc is None else acc.result() for v, acc in zip(plain, accs)))
    else:
        rows = []
        for sink in sinks:
            rows.extend(sink.rows)

    having = getattr(plan, "having", None)
    if having is not None:
        rows = [row for row in rows if having(row)]

    if plan.distinct:
        seen = set()
        unique = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        rows = unique

    if plan.order_by:
        for index, descending in reversed(plan.order_by):
            rows.sort(key=lambda r: _sort_key(r[index]), reverse=descending)
    elif not plan.has_aggregates:
        # Deterministic output order regardless of machine interleaving.
        rows.sort(key=lambda r: tuple(_sort_key(v) for v in r))

    offset = getattr(plan, "offset", None)
    if offset:
        rows = rows[offset:]
    if plan.limit is not None:
        rows = rows[: plan.limit]
    return ResultSet(columns, rows, complete=complete, timed_out=timed_out)
