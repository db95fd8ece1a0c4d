"""Correct measured times for the host's changing speed.

On a shared host the same pure-Python work can take 1.7 times longer for
tens of seconds at a stretch, while other tenants load the cores.  The
benchmark therefore times a fixed reference routine right before and right
after every timed item, and reports each item's time scaled to a host on
which the routine takes NOMINAL_S:

    corrected = measured * NOMINAL_S / mean(reference before, reference after)

The routine is benchmark code only (sparse integer row operations on
dicts, like the package's elimination), so a change to the package never
changes it.  Raw times are printed next to the corrected ones.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.0005   # the routine's time on a 2.1 GHz x86-64 core that no other tenant slows


def reference() -> float:
    """One run of the fixed reference work; returns its wall time in seconds."""
    t0 = perf_counter()
    rows = {i: {j: (i * j) % 7 - 3 for j in range(i % 5, 40, 3)} for i in range(60)}
    for r in range(1, 60):
        src, dst = rows[r - 1], rows[r]
        for k, v in src.items():
            nv = dst.get(k, 0) + 2 * v
            if nv:
                dst[k] = nv
            else:
                dst.pop(k, None)
    return perf_counter() - t0


def probe(reps: int = 1) -> float:
    """The reference time now: the median of reps runs."""
    times = sorted(reference() for _ in range(reps))
    return times[len(times) // 2]


def scale(before: float, after: float) -> float:
    """Factor turning a time measured between two probes into corrected seconds."""
    return NOMINAL_S / ((before + after) / 2)
