"""repro.obs — structured tracing and metrics for the simulated cluster.

The observability layer of the engine (see ``docs/observability.md``):

* :class:`Recorder` — span event bus with a virtual-time clock and
  parent/child causal links across machine hops;
* :func:`render_prometheus` (:mod:`repro.obs.metrics`) — metrics as a view
  of a finished run: every count lives once, in ``RunStats``, and is
  rendered from there (plus the recorder's events when observed), so no
  runtime component records metrics;
* exporters — Chrome trace-event JSON (Perfetto-loadable), JSONL event
  log, Prometheus text format;
* :func:`validate_chrome_trace` — the trace consistency checker used by
  tests and CI;
* :class:`PhaseProfiler` / :func:`peak_rss_bytes` — *wall-clock* phase
  profiling and process memory (``docs/profiling.md``), orthogonal to the
  virtual-time tracer and gated by ``EngineConfig(profile=True)``.

The recorder is enabled with ``EngineConfig(observe=True)``; when disabled
every hook is
behind a single ``obs is not None`` branch (the sanitizer convention), so
the instrumented hot paths stay unchanged.
"""

from .export import (
    jsonl_lines,
    load_trace_file,
    summarize_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .metrics import render_prometheus
from .prof import PhaseProfiler, format_profile, peak_rss_bytes, profiled
from .recorder import Recorder

__all__ = [
    "PhaseProfiler",
    "Recorder",
    "format_profile",
    "peak_rss_bytes",
    "profiled",
    "jsonl_lines",
    "load_trace_file",
    "render_prometheus",
    "summarize_trace",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
