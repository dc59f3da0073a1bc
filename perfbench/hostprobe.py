"""Host-speed probe: a fixed pure-Python kernel that never touches ``repro``.

The benchmark runs on small shared machines whose speed drifts by tens of
percent within minutes, so raw wall time cannot repeat within a tenth
whatever the program does.  The probe measures that drift: the same
interpreter loop and big-int ``pow`` work every time, timed on thread CPU
time so that waiting for the GIL or for another process does not count.
``run.py`` scales timed metrics by the reference probe time over the
median probe of the same phase.  Time the hypervisor steals is not on
any CPU clock, so :func:`steal_share` reads it from ``/proc/stat``.
"""

from __future__ import annotations

import time

_MODULUS = (1 << 521) - 1


def _kernel() -> int:
    acc = 0
    for i in range(45000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    x = 3
    for _ in range(10):
        x = pow(x, _MODULUS - 2, _MODULUS)
    return acc ^ (x & 1)


def probe_ms():
    """One probe: (thread CPU ms, wall ms) of the fixed kernel."""
    start, wall = time.thread_time(), time.perf_counter()
    _kernel()
    return ((time.thread_time() - start) * 1000.0,
            (time.perf_counter() - wall) * 1000.0)


def cpu_ticks():
    """(steal, busy) jiffies over all CPUs, from ``/proc/stat``; busy is
    user + nice + system + irq + softirq + steal."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields[i] for i in (0, 1, 2, 5, 6, 7))


def steal_share(before) -> float:
    """Share of busy CPU time the hypervisor gave to other guests since
    ``before`` (a :func:`cpu_ticks` reading)."""
    steal, busy = (b - a for a, b in zip(before, cpu_ticks()))
    return steal / busy if busy else 0.0
