"""Exporters and validators for executions.

Three output formats:

* **Chrome trace-event JSON** (:func:`to_chrome_trace`) — a
  :class:`~repro.obs.recorder.Recorder`'s events; loads directly in
  Perfetto / ``chrome://tracing``.  Timestamps are virtual time (1 cost
  unit = 1 µs), processes are simulated machines, threads are DFT workers.
* **JSONL event log** (:func:`write_jsonl`) — the same events, one JSON
  object per line after a ``meta`` header.  Greppable, diff-able,
  streamable.
* **Prometheus text** (:func:`write_prometheus`) — a finished run's
  counters rendered from its ``RunStats`` (and its events, when observed)
  by :mod:`repro.obs.metrics`; scrape-compatible, on either backend.

:func:`validate_chrome_trace` is the consistency checker used by tests and
the CI smoke step: monotone timestamps per track, matched B/E spans,
non-negative X durations, and resolvable flow bindings.
"""

import json

from .metrics import render_prometheus


def _version():
    from .. import __version__  # deferred: repro/__init__ imports us

    return __version__


def _metadata_events(num_machines, workers_per_machine):
    events = []
    for pid in range(num_machines):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": f"machine {pid}"}})
        events.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
                       "args": {"name": "control"}})
        for w in range(workers_per_machine):
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": w + 1, "args": {"name": f"worker {w}"}})
    events.append({"ph": "M", "name": "process_name", "pid": num_machines,
                   "tid": 0, "args": {"name": "cluster"}})
    return events


def to_chrome_trace(recorder, workers_per_machine=0):
    """Build the Chrome trace-event JSON object for a recorded execution."""
    recorder.finish()
    events = _metadata_events(recorder.num_machines, workers_per_machine)
    events.extend(recorder.events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": f"repro.obs {_version()}",
            "clock": "virtual (1 cost unit = 1 us, rounds of "
                     f"{recorder.quantum} units)",
            "dropped_events": recorder.dropped_events,
        },
    }


def write_chrome_trace(recorder, path, workers_per_machine=0):
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(recorder, workers_per_machine), fh)


def jsonl_lines(recorder):
    """Yield the JSONL event-log lines for a recorded execution."""
    recorder.finish()
    yield json.dumps({
        "type": "meta",
        "exporter": f"repro.obs {_version()}",
        "num_machines": recorder.num_machines,
        "quantum": recorder.quantum,
        "events": len(recorder.events),
        "dropped_events": recorder.dropped_events,
    })
    for event in recorder.events:
        yield json.dumps({"type": "event", **event})


def write_jsonl(recorder, path):
    with open(path, "w") as fh:
        for line in jsonl_lines(recorder):
            fh.write(line + "\n")


def write_prometheus(result, path):
    """Write a finished ``QueryResult``'s metrics as Prometheus text."""
    with open(path, "w") as fh:
        fh.write(render_prometheus(result))


# ----------------------------------------------------------------------
# Loading and validation
# ----------------------------------------------------------------------
def load_trace_file(path):
    """Load a Chrome trace JSON or a JSONL event log; returns the trace
    object shape (``{"traceEvents": [...], ...}``) either way."""
    with open(path) as fh:
        first = fh.read(1)
        fh.seek(0)
        if first == "[":
            return {"traceEvents": json.load(fh)}
        if first == "{":
            head = fh.readline()
            rest = fh.readline()
            fh.seek(0)
            if rest:
                try:  # JSONL: every line parses on its own
                    meta = json.loads(head)
                    if isinstance(meta, dict) and meta.get("type") == "meta":
                        return _load_jsonl(fh)
                except json.JSONDecodeError:
                    pass
            return json.load(fh)
        raise ValueError(f"{path}: not a trace file")


def _load_jsonl(fh):
    events = []
    meta = {}
    for line in fh:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.pop("type", "event")
        if kind == "event":
            events.append(record)
        elif kind == "meta":
            meta = record
    return {"traceEvents": events, "otherData": meta}


def validate_chrome_trace(trace):
    """Check trace consistency; returns a list of error strings (empty = ok).

    * every track's timestamps are monotone non-decreasing;
    * ``B``/``E`` span events are matched and properly nested per track;
    * ``X`` complete events carry a non-negative duration;
    * every flow-finish (``f``) refers to a previously started flow (``s``).
    """
    errors = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    last_ts = {}
    stacks = {}
    started_flows = set()
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M":
            continue
        key = (event.get("pid"), event.get("tid"))
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"event {i}: missing/invalid ts {ts!r}")
            continue
        floor = last_ts.get(key)
        if floor is not None and ts < floor:
            errors.append(
                f"event {i}: track {key} timestamp regressed {floor} -> {ts}"
            )
        last_ts[key] = ts
        if ph == "B":
            stacks.setdefault(key, []).append((event.get("name"), ts))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                errors.append(f"event {i}: E without open B on track {key}")
            else:
                name, begin_ts = stack.pop()
                if ts < begin_ts:
                    errors.append(
                        f"event {i}: span {name!r} ends before it begins"
                    )
        elif ph == "X":
            dur = event.get("dur", 0)
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i}: X with invalid dur {dur!r}")
        elif ph == "s":
            started_flows.add(event.get("id"))
        elif ph == "f":
            if event.get("id") not in started_flows:
                errors.append(
                    f"event {i}: flow finish for unknown id {event.get('id')!r}"
                )
    for key, stack in stacks.items():
        if stack:
            names = [name for name, _ts in stack]
            errors.append(f"track {key}: unclosed spans {names!r}")
    return errors


# ----------------------------------------------------------------------
# Pretty-printing (``python -m repro trace FILE``)
# ----------------------------------------------------------------------
def summarize_trace(trace):
    """Human-readable digest of a trace file."""
    from collections import Counter

    events = [e for e in trace.get("traceEvents", []) if e.get("ph") != "M"]
    by_name = Counter(e.get("name") for e in events)
    by_phase = Counter(e.get("ph") for e in events)
    tracks = sorted({(e.get("pid"), e.get("tid")) for e in events})
    lines = [f"{len(events)} events on {len(tracks)} tracks"]
    lines.append(
        "phases: " + ", ".join(f"{ph}={n}" for ph, n in sorted(by_phase.items()))
    )
    lines.append("top events:")
    for name, n in by_name.most_common(12):
        lines.append(f"  {n:>8}  {name}")
    # Span durations per name from matched B/E pairs.
    stacks = {}
    durations = {}
    for event in events:
        ph = event.get("ph")
        key = (event.get("pid"), event.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append((event.get("name"), event.get("ts", 0)))
        elif ph == "E" and stacks.get(key):
            name, begin_ts = stacks[key].pop()
            total, count = durations.get(name, (0.0, 0))
            durations[name] = (total + event.get("ts", 0) - begin_ts, count + 1)
    if durations:
        lines.append("span time (virtual us):")
        for name, (total, count) in sorted(
            durations.items(), key=lambda kv: -kv[1][0]
        ):
            lines.append(f"  {total:>12.1f}  {name} x{count}")
    fault_counts = Counter()
    retx = 0
    for event in events:
        name = event.get("name") or ""
        if name.startswith("fault."):
            fault_counts[name[len("fault."):]] += 1
        elif name == "net.retx":
            retx += 1
    if fault_counts or retx:
        lines.append("faults injected (repro.faults):")
        for kind, n in sorted(fault_counts.items()):
            lines.append(f"  {kind}: {n}")
        lines.append(f"  transport retransmissions: {retx}")
    depth_counts = Counter()
    for event in events:
        if event.get("name") == "rpq.control":
            depth_counts[event.get("args", {}).get("depth")] += 1
    if depth_counts:
        lines.append("rpq control entries by depth:")
        for depth, n in sorted(depth_counts.items(), key=lambda kv: (kv[0] is None, kv[0])):
            lines.append(f"  depth {depth}: {n}")
    errors = validate_chrome_trace(trace)
    if errors:
        lines.append(f"VALIDATION: {len(errors)} error(s)")
        lines.extend(f"  {err}" for err in errors[:20])
    else:
        lines.append("validation: ok")
    return "\n".join(lines)
