"""Machine-speed reference for timings taken on a shared, noisy host.

On a virtual machine whose neighbours load the host, the same CPU-bound job
can take 1.7 times as long for seconds to minutes at a stretch, and its CPU
time grows with its wall time.  No statistic of one run removes that.  So
the harness times a short fixed pure-Python computation on the job's CPU:
three times before a launch, every 0.1 s while it runs (with the job
stopped, so it cannot slow the reference), and three times after.  The
launch's times are scaled by the mean of NOMINAL_S over each reference.
The references are evenly spaced in time, so a launch that spans slow and
fast stretches is scaled by their time-weighted mix; a median would pick
one of them.  A time reported in seconds is then the time the launch would
take on a machine where `reference_s()` takes NOMINAL_S.  The reference runs
in the harness, never inside gtrim, so no change to gtrim can move it.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.002
_STEPS = 6_000  # about NOMINAL_S on a 2.1 GHz Xeon vCPU under Python 3.11
BRACKET = 3


def _work(steps: int) -> int:
    """Integer arithmetic mod p, dict updates and list appends, like gtrim's."""
    p, table, rows, x = 32003, {}, [], 1
    for i in range(steps):
        x = (x * 48271 + i) % p
        k = x & 1023
        table[k] = (table.get(k, 0) + x) % p
        if i % 64 == 0:
            rows.append((x, k, i))
    return sum(table.values()) + len(rows)


def reference_s() -> float:
    """Wall time of one fixed reference computation."""
    start = time.perf_counter()
    _work(_STEPS)
    return time.perf_counter() - start


def bracket() -> list:
    """References timed back to back, to close one measurement and open the next."""
    return [reference_s() for _ in range(BRACKET)]


def scale(refs: list) -> float:
    """Factor that turns times measured among `refs` into nominal seconds."""
    return NOMINAL_S * statistics.mean(1 / r for r in refs)
