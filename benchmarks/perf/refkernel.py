"""The frozen host-speed reference kernel.

Every time metric of this benchmark is reported in *host-normalised
seconds*: ``wall * REF_SECONDS / ref_wall``, where ``ref_wall`` is a
reading of :func:`kernel` taken immediately before and after the timed
region (the two readings are averaged).  On a shared 2-core host the raw
wall clock of identical code moves by tens of percent between
back-to-back runs; the kernel moves with it, so the ratio repeats.

FROZEN: every committed baseline number is a multiple of this kernel's
speed.  Editing :func:`kernel`, :data:`KERNEL_ITERATIONS` or
:data:`READING_RUNS` invalidates all history; add a new kernel under a
new name instead.
"""

import gc
import time

#: What one kernel execution is *defined* to cost: a host on which the
#: kernel takes exactly this long reports normalised == raw seconds.  It
#: is what the kernel took on the host that recorded the first baseline
#: (CPython 3.11, 2 shared cores).
REF_SECONDS = 0.0027

KERNEL_ITERATIONS = 15000

#: Kernel executions per reading; the reading is their minimum, so one
#: preempted execution does not pass for a slow host.
READING_RUNS = 5


def kernel():
    """Dict stores plus a tuple-append loop: the engine's DFT in miniature
    (hashing small ints, allocating short tuples, growing a list)."""
    table = {}
    out = []
    append = out.append
    get = table.get
    for i in range(KERNEL_ITERATIONS):
        key = (i * 7) & 1023
        table[key] = i
        append((key, get(i & 1023, 0)))
    return len(out)


def ref_wall():
    """One reading: the fastest of :data:`READING_RUNS` kernel executions.

    The collector is paused for the reading: the kernel's allocations
    would otherwise trigger the collections the *measured* code has made
    due, and charge that code's garbage to the host's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(READING_RUNS):
            started = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if collecting:
            gc.enable()


def normalise(wall_seconds, ref_before, ref_after):
    """Host-normalised seconds for a region bracketed by two readings."""
    return wall_seconds * REF_SECONDS / ((ref_before + ref_after) / 2.0)
