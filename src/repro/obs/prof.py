"""Wall-clock phase profiler and process-memory helpers (``repro.obs.prof``).

The wall-clock counterpart to the virtual-time tracer (:mod:`repro.obs.
recorder`): where the recorder answers "how many *rounds* did this cost on
the deterministic clock", the profiler answers "how many *seconds* did the
Python implementation actually spend in each runtime phase" — the metric
ROADMAP item 1 (real-parallelism backend) and item 2 (vectorized data
plane) are measured against.

Design constraints, mirroring the recorder/sanitizer conventions:

* **Near-zero cost when off.**  Hot paths hold a ``prof`` reference that is
  ``None`` unless ``EngineConfig(profile=True)``; every instrumentation
  point is a single ``if prof is not None`` branch with no allocation.
* **Clock reads in one place.**  All ``perf_counter_ns`` calls live
  *here*, in the observability layer; runtime code only calls
  :meth:`PhaseProfiler.enter` / :meth:`PhaseProfiler.exit`, so no wall
  clock can reach protocol state through the profiler.
* **Virtual time untouched.**  The profiler reads the wall clock and
  nothing else; enabling it cannot perturb rounds, schedules, or results.

Phase nesting is tracked with an explicit stack so aggregates carry both
*total* (inclusive) and *self* (exclusive, child time subtracted) duration
per phase.  Re-entering a phase already on the stack is permitted; its
total then double-counts the nested span (self time stays correct), which
the phase taxonomy in ``docs/profiling.md`` avoids by construction.
"""

import sys
import time
from functools import wraps

_NS_TO_S = 1e-9


class PhaseProfiler:
    """Aggregating wall-clock profiler for named, nested runtime phases.

    ``enter``/``exit`` are the hot-path API (no allocation beyond one
    3-element list per open phase); :func:`profiled` wraps them as a
    method decorator.
    """

    __slots__ = ("_agg", "_stack")

    def __init__(self):
        # name -> [calls, total_ns, self_ns, min_ns, max_ns]
        self._agg = {}
        self._stack = []  # [name, start_ns, child_ns] per open phase

    # -- hot-path API ----------------------------------------------------
    def enter(self, name):
        """Open phase ``name`` (nested under the currently open phase)."""
        self._stack.append([name, time.perf_counter_ns(), 0])

    def exit(self):
        """Close the innermost open phase; returns its elapsed ns."""
        now = time.perf_counter_ns()
        name, start, child_ns = self._stack.pop()
        elapsed = now - start
        rec = self._agg.get(name)
        if rec is None:
            self._agg[name] = [1, elapsed, elapsed - child_ns, elapsed, elapsed]
        else:
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - child_ns
            if elapsed < rec[3]:
                rec[3] = elapsed
            if elapsed > rec[4]:
                rec[4] = elapsed
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    @property
    def depth(self):
        """Number of currently open (unclosed) phases."""
        return len(self._stack)

    def unwind(self):
        """Close every open phase (cleanup after an aborted execution)."""
        while self._stack:
            self.exit()

    # -- reporting -------------------------------------------------------
    def summary(self):
        """Aggregates per phase, ordered by descending total time.

        ``{name: {calls, total_s, self_s, avg_s, min_s, max_s}}`` — the
        shape embedded in ``RunStats.profile``, EXPLAIN ANALYZE output,
        and the benchmark's span file (see docs/profiling.md).
        """
        out = {}
        ranked = sorted(self._agg.items(), key=lambda kv: (-kv[1][1], kv[0]))
        for name, (calls, total, self_ns, mn, mx) in ranked:
            out[name] = {
                "calls": calls,
                "total_s": total * _NS_TO_S,
                "self_s": self_ns * _NS_TO_S,
                "avg_s": total * _NS_TO_S / calls,
                "min_s": mn * _NS_TO_S,
                "max_s": mx * _NS_TO_S,
            }
        return out


def profiler_from_config(config):
    """A fresh :class:`PhaseProfiler` when ``config.profile`` is on, else
    ``None``: the one place a run's profiler is built."""
    return PhaseProfiler() if config.profile else None


def merge_summaries(summaries):
    """Combine :meth:`PhaseProfiler.summary` dicts from several processes.

    The process backend profiles each worker with its own
    :class:`PhaseProfiler` and ships the summaries (plain dicts) back to
    the coordinator; this recombines them into one summary of the same
    shape — calls/total/self sum, min/max fold, averages recomputed —
    ordered by descending total time like :meth:`PhaseProfiler.summary`.
    Wall seconds from concurrent processes overlap, so a merged
    ``total_s`` is aggregate CPU-side phase time, not elapsed time.
    """
    agg = {}
    for summary in summaries:
        if not summary:
            continue
        for name, s in summary.items():
            rec = agg.get(name)
            if rec is None:
                agg[name] = [
                    s["calls"], s["total_s"], s["self_s"],
                    s["min_s"], s["max_s"],
                ]
            else:
                rec[0] += s["calls"]
                rec[1] += s["total_s"]
                rec[2] += s["self_s"]
                if s["min_s"] < rec[3]:
                    rec[3] = s["min_s"]
                if s["max_s"] > rec[4]:
                    rec[4] = s["max_s"]
    out = {}
    ranked = sorted(agg.items(), key=lambda kv: (-kv[1][1], kv[0]))
    for name, (calls, total, self_s, mn, mx) in ranked:
        out[name] = {
            "calls": calls,
            "total_s": total,
            "self_s": self_s,
            "avg_s": total / calls,
            "min_s": mn,
            "max_s": mx,
        }
    return out


def profiled(name, attr="prof"):
    """Decorator timing a method under ``name`` via ``self.<attr>``.

    When the attribute is ``None`` (profiling off) the method runs
    undecorated apart from one attribute read — usable on cold-to-warm
    paths (checkpoint cuts, recovery) where a wrapper call is cheap
    relative to the body.
    """

    def decorate(fn):
        @wraps(fn)
        def wrapper(self, *args, **kwargs):
            prof = getattr(self, attr, None)
            if prof is None:
                return fn(self, *args, **kwargs)
            prof.enter(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                prof.exit()

        return wrapper

    return decorate


def format_profile(summary, indent="  "):
    """Fixed-width text rendering of a :meth:`PhaseProfiler.summary`."""
    if not summary:
        return indent + "(no phases recorded)"
    lines = [
        f"{indent}{'phase':<16} {'calls':>9} {'total':>11} {'self':>11} {'avg':>11}"
    ]
    for name, s in summary.items():
        lines.append(
            f"{indent}{name:<16} {s['calls']:>9} "
            f"{s['total_s'] * 1e3:>9.3f}ms {s['self_s'] * 1e3:>9.3f}ms "
            f"{s['avg_s'] * 1e6:>9.1f}us"
        )
    return "\n".join(lines)


def peak_rss_bytes():
    """Peak resident-set size of this process in bytes, ``None`` if unknown.

    Uses ``resource.getrusage`` (Unix only; ``ru_maxrss`` is kilobytes on
    Linux/BSD and bytes on macOS).  Platforms without the ``resource``
    module — or reporting a non-positive value — return ``None`` rather
    than a wrong number.
    """
    try:
        import resource
    except ImportError:
        return None
    try:
        ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (OSError, ValueError):
        return None
    if ru <= 0:
        return None
    return int(ru) if sys.platform == "darwin" else int(ru) * 1024
