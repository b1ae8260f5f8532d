"""Execution tracing: per-round, per-machine activity timelines.

A :class:`ExecutionTrace` passed to :meth:`~repro.runtime.multi.
ClusterScheduler.submit` (``Session.execute(trace=True)`` does so)
records how much work every machine performed for that query in every
round of the query's own clock, plus protocol events.  Its ASCII
timeline makes load imbalance visible at a glance — e.g. the
single-machine bottleneck of a narrow-start query (paper Section 4.3)
shows up as one dense row and N-1 sparse ones.
"""


class ExecutionTrace:
    """Recorder + renderer for one query execution."""

    #: Utilization glyphs from idle to saturated.
    GLYPHS = " .:-=+*#%@"

    def __init__(self):
        self.rounds = []  # [(round_no, [consumed per machine])]
        self.events = []  # [(round_no, text)]
        self.quantum = None
        self.num_machines = 0

    # -- recording hooks (called by the scheduler) -----------------------
    def configure(self, num_machines, quantum):
        self.num_machines = num_machines
        self.quantum = quantum

    def record_round(self, round_no, consumed_per_machine):
        self.rounds.append((round_no, list(consumed_per_machine)))

    def record_event(self, round_no, text):
        self.events.append((round_no, text))

    # -- analysis ---------------------------------------------------------
    def utilization(self):
        """Per-machine fraction of available work capacity actually used."""
        if not self.rounds or not self.quantum:
            return [0.0] * self.num_machines
        totals = [0.0] * self.num_machines
        for _round_no, consumed in self.rounds:
            for m, units in enumerate(consumed):
                totals[m] += units
        capacity = self.quantum * len(self.rounds)
        return [t / capacity for t in totals]

    def busy_rounds(self, machine):
        return sum(1 for _r, consumed in self.rounds if consumed[machine] > 0)

    def imbalance(self):
        """Max/mean utilization ratio (1.0 = perfectly balanced)."""
        utils = self.utilization()
        mean = sum(utils) / len(utils) if utils else 0.0
        if mean == 0.0:
            return 1.0
        return max(utils) / mean

    # -- rendering ---------------------------------------------------------
    def render_timeline(self, width=60):
        """ASCII timeline: one row per machine, time left to right.

        Each cell aggregates a bucket of rounds; the glyph encodes the
        bucket's mean utilization (space = idle, '@' = saturated).
        """
        if not self.rounds:
            return "(no rounds recorded)"
        buckets = min(width, len(self.rounds))
        per_bucket = len(self.rounds) / buckets
        lines = []
        for m in range(self.num_machines):
            cells = []
            for b in range(buckets):
                lo = int(b * per_bucket)
                hi = max(lo + 1, int((b + 1) * per_bucket))
                chunk = self.rounds[lo:hi]
                used = sum(consumed[m] for _r, consumed in chunk)
                frac = used / (self.quantum * len(chunk)) if self.quantum else 0.0
                index = min(len(self.GLYPHS) - 1, int(frac * (len(self.GLYPHS) - 1) + 0.5))
                cells.append(self.GLYPHS[index])
            lines.append(f"M{m:<2} |{''.join(cells)}|")
        footer = f"    rounds 1..{self.rounds[-1][0]}, {buckets} buckets"
        utils = ", ".join(f"M{m}={u:.0%}" for m, u in enumerate(self.utilization()))
        return "\n".join(lines + [footer, "    utilization: " + utils])

    def summary(self):
        return {
            "rounds": len(self.rounds),
            "utilization": [round(u, 3) for u in self.utilization()],
            "imbalance": round(self.imbalance(), 3),
            "events": list(self.events),
        }
