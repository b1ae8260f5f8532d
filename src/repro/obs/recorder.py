"""The span recorder: one causally-linked timeline per query execution.

A :class:`Recorder` is the event bus of the observability layer.  Every
instrumentation point in the runtime — DFT job spans, batch send/receive,
RPQ control decisions, flow-control blocks, termination-protocol progress,
sanitizer violations — emits events into it, tagged with a **virtual-time
clock** derived from the cooperative scheduler: one cost unit of work is
one microsecond of trace time, and round ``r`` starts at ``(r-1) *
quantum``.  The clock is per machine (each machine spends its own cost
units within a round) and clamped monotone per track, so the exported
Chrome trace loads cleanly in Perfetto.

Track model
    Each simulated machine is a Perfetto *process* (``pid = machine id``)
    with a ``control`` thread (``tid 0``: message, flow-control, RPQ
    control, and protocol events) and one thread per DFT worker (``tid =
    worker id + 1``: job spans, properly nested because jobs form a LIFO
    stack).  One extra ``cluster`` process (``pid = num_machines``) carries
    query-level spans, scheduler events, and sanitizer violations.

Causality
    When a batch is flushed the sender allocates a flow id, stamps it on
    the :class:`~repro.runtime.message.Batch`, and emits a flow-start
    event; the receiving worker's job span emits the matching flow-finish.
    Perfetto draws the arrow across machine tracks — the paper's
    "execution context moves between machines" made visible.

Every component takes ``obs=None`` and guards each hook with a single
``is not None`` test (the same zero-overhead convention as the runtime
sanitizer), so a disabled recorder costs one predictable branch.  The
recorder holds events only: counts live in ``RunStats``, and
:mod:`repro.obs.metrics` renders metrics from them and from these events
after the run.
"""

#: Safety cap on buffered events; beyond it events are counted, not stored.
MAX_EVENTS = 2_000_000


class Recorder:
    """Event bus + virtual clock for one execution."""

    def __init__(self, config=None):
        self.events = []
        self.dropped_events = 0
        self.quantum = 1.0
        self.num_machines = 1
        self._round_base = 0.0
        self._in_round = [0.0]
        self._last_ts = {}  # (pid, tid) -> last emitted ts (monotone clamp)
        self._open_spans = {}  # (pid, tid) -> [name, ...] stack of open B events
        self._next_flow = 1
        self._last_counter = {}  # (pid, name) -> last emitted counter value
        if config is not None:
            self.configure(config.num_machines, config.quantum)

    def configure(self, num_machines, quantum):
        self.num_machines = num_machines
        self.quantum = float(quantum)
        self._in_round = [0.0] * num_machines

    # ------------------------------------------------------------------
    # Virtual clock (driven by the scheduler)
    # ------------------------------------------------------------------
    @property
    def cluster_pid(self):
        return self.num_machines

    def begin_round(self, round_no):
        self._round_base = (round_no - 1) * self.quantum
        in_round = self._in_round
        for m in range(len(in_round)):
            in_round[m] = 0.0

    def advance(self, machine, cost):
        """Advance machine-local virtual time by ``cost`` units."""
        self._in_round[machine] += cost

    def now(self, machine=None):
        if machine is None:
            return self._round_base
        return self._round_base + self._in_round[machine]

    # ------------------------------------------------------------------
    # Event emission (Chrome trace-event dialect, virtual-time ts)
    # ------------------------------------------------------------------
    def _emit(self, event, pid, tid, ts):
        key = (pid, tid)
        floor = self._last_ts.get(key, 0.0)
        if ts < floor:
            ts = floor
        self._last_ts[key] = ts
        event["ts"] = ts
        if len(self.events) >= MAX_EVENTS:
            self.dropped_events += 1
            return
        self.events.append(event)

    def instant(self, machine, name, args=None, tid=0, cat="runtime"):
        event = {"ph": "i", "name": name, "cat": cat, "pid": machine,
                 "tid": tid, "s": "t"}
        if args:
            event["args"] = args
        self._emit(event, machine, tid, self.now(machine))

    def cluster_instant(self, name, args=None, round_no=None, cat="cluster"):
        event = {"ph": "i", "name": name, "cat": cat,
                 "pid": self.cluster_pid, "tid": 0, "s": "p"}
        if args:
            event["args"] = args
        ts = (round_no - 1) * self.quantum if round_no is not None else self._round_base
        self._emit(event, self.cluster_pid, 0, ts)

    def begin_span(self, machine, tid, name, args=None, flow_in=None, cat="runtime"):
        event = {"ph": "B", "name": name, "cat": cat, "pid": machine, "tid": tid}
        if args:
            event["args"] = args
        ts = self.now(machine)
        self._emit(event, machine, tid, ts)
        self._open_spans.setdefault((machine, tid), []).append(name)
        if flow_in is not None:
            flow = {"ph": "f", "bp": "e", "name": "batch", "cat": "msg",
                    "pid": machine, "tid": tid, "id": flow_in}
            self._emit(flow, machine, tid, ts)

    def end_span(self, machine, tid, args=None):
        stack = self._open_spans.get((machine, tid))
        if not stack:
            return  # unmatched end: tolerated, validator would flag B/E skew
        name = stack.pop()
        event = {"ph": "E", "name": name, "cat": "runtime",
                 "pid": machine, "tid": tid}
        if args:
            event["args"] = args
        self._emit(event, machine, tid, self.now(machine))

    def flow_start(self, machine, flow_id, tid=0):
        event = {"ph": "s", "name": "batch", "cat": "msg", "pid": machine,
                 "tid": tid, "id": flow_id}
        self._emit(event, machine, tid, self.now(machine))

    def next_flow_id(self):
        flow_id = self._next_flow
        self._next_flow += 1
        return flow_id

    def counter(self, machine, name, value, tid=0):
        """Emit a Chrome counter sample iff the value changed (dedup)."""
        key = (machine, name)
        if self._last_counter.get(key) == value:
            return
        self._last_counter[key] = value
        event = {"ph": "C", "name": name, "cat": "runtime", "pid": machine,
                 "tid": tid, "args": {name: value}}
        self._emit(event, machine, tid, self.now(machine))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def record_round(self, round_no, consumed_per_machine):
        """Round record from the scheduler: per-machine work counters."""
        for m, consumed in enumerate(consumed_per_machine):
            self.counter(m, "work_units", round(consumed, 3))

    def finish(self):
        """Close any spans left open (error paths) so B/E stay matched."""
        for (pid, tid), stack in self._open_spans.items():
            while stack:
                name = stack.pop()
                event = {"ph": "E", "name": name, "cat": "runtime",
                         "pid": pid, "tid": tid}
                self._emit(event, pid, tid, self._last_ts.get((pid, tid), 0.0))

    # ------------------------------------------------------------------
    # Analysis helpers (used by tests and the trace pretty-printer)
    # ------------------------------------------------------------------
    def count_events(self, name=None, **arg_filters):
        """Count buffered events by name and exact ``args`` matches."""
        n = 0
        for event in self.events:
            if name is not None and event.get("name") != name:
                continue
            args = event.get("args", {})
            if all(args.get(k) == v for k, v in arg_filters.items()):
                n += 1
        return n
