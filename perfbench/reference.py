"""Fixed routines that measure how fast the host runs right now.

On a shared host the same operation can take 1.5 times as long from one
ten-second stretch to the next, because of what other tenants run on the
same cores.  The benchmark reads one of these references every few
hundred milliseconds, just before an operation, and reports each
operation's time scaled to a host on which that reference takes
``REFERENCE_S``.  Each workload uses the reference closest to its own
work.  ``time_routine`` does what netident's hot loops do: modular
Gaussian elimination over lists of Python ints, and a depth-first walk
search over tuples, sets and dicts.  ``time_start`` takes the CPU time of
a bare interpreter's start, which tracks what a CLI process spends
loading code.  Both
belong to the benchmark, so no change to netident changes them.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time

# Either reference takes about this long on the 2-vCPU Xeon VM the benchmark
# was built on, in its faster state: the scale of every reported time.
REFERENCE_S = 0.010

_P = 2**31 - 1
_MATRIX = [[pow(3, 28 * i + j + 1, _P) ^ (i * j) for j in range(28)] for i in range(28)]
_ADJ = {v: ((v * 3 + 1) % 40, (v * 7 + 2) % 40, (v + 1) % 40) for v in range(40)}


def _eliminate() -> int:
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, _P)
        prow = [(x * inv) % _P for x in rows[col]]
        rows[col] = prow
        for r in range(col + 1, n):
            f = rows[r][col]
            if f:
                rows[r] = [(x - f * y) % _P for x, y in zip(rows[r], prow)]
    return rows[-1][-1]


def _walks() -> int:
    count = 0

    def dfs(v: int, depth: int, used: frozenset) -> None:
        nonlocal count
        count += 1
        if depth:
            for w in _ADJ[v]:
                if (v, w) not in used:
                    dfs(w, depth - 1, used | {(v, w)})

    dfs(0, 8, frozenset())
    return count


def time_routine() -> float:
    """Seconds of one run of the routine, with the cyclic garbage collector paused.

    The routine makes no reference cycles; pausing the collector keeps the
    objects a workload left alive from slowing the routine down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _eliminate()
        _walks()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def time_start() -> float:
    """CPU seconds (user + system) of a bare interpreter run: ``-S``, so it imports nothing.

    CPU time, not wall time: on the VM this was built on the wall time of
    so short a child read 16 or 32 ms at random, depending on when its
    parent woke, while its CPU time stayed put.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def median_of(reading, repeats: int = 5) -> float:
    """Median of a few readings: the host's speed when nothing else is timed."""
    return statistics.median(reading() for _ in range(repeats))
