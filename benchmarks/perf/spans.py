"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark's own files around each public call
into a layer, kept in memory, and written out once at the end.  A span is
``{name, start_ns, end_ns, parent, query_id}`` where ``parent`` is the
index of the enclosing span in the same list (``None`` for a root).  A
span's *self time* is its duration minus the durations of its direct
children, so self times over a tree sum to the root's duration.
"""

import json
import time


class _OpenSpan:
    __slots__ = ("_rec", "_index")

    def __init__(self, rec, index):
        self._rec = rec
        self._index = index

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._rec.spans[self._index]["end_ns"] = time.perf_counter_ns()
        self._rec._stack.pop()
        return False


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, query_id=None):
        """Context manager recording one span under the innermost open one."""
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "parent": self._stack[-1] if self._stack else None,
            "query_id": query_id,
        })
        self._stack.append(index)
        return _OpenSpan(self, index)


def self_times_ns(spans):
    """Self time of every span, in list order."""
    own = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def by_name(spans):
    """``{name: {"calls", "total_s", "self_s"}}`` over a span list."""
    out = {}
    for span, own in zip(spans, self_times_ns(spans)):
        agg = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += (span["end_ns"] - span["start_ns"]) * 1e-9
        agg["self_s"] += own * 1e-9
    return out


def write(path, workload, spans, phases):
    """Write the span file: the spans plus, per query id, the engine's own
    ``result.profile`` phase summary for what ran inside ``backend.run``."""
    with open(path, "w") as fh:
        json.dump({"workload": workload, "spans": spans, "phases": phases}, fh)
