"""Machine-speed probe: a frozen workload that only measures the host.

The benchmark runs on shared cores, where co-tenants slow every process by
20-40% for minutes at a time.  That drift moves wall-clock medians between
runs far more than any seed does.  `probe()` times a fixed piece of work of
the same kind as poslp's (LP rows assembled from dicts, dense simplex pivots
on tiny, small and medium tableaux) that no change to poslp can touch; the
benchmark runs it between passes and reports times scaled by
`REFERENCE_SECONDS / probe time`, i.e. at the speed the host has when the
probe takes `REFERENCE_SECONDS`.  Raw wall-clock figures are reported next
to the scaled ones.
"""

import time

import numpy as np

# probe time inside a benchmark run on an otherwise idle 2-vCPU Intel Xeon VM;
# it only fixes the unit
REFERENCE_SECONDS = 0.024

_SIZES = ((4, 60), (24, 6), (96, 1))        # (tableau rows, solves per probe)
_RNG = np.random.Generator(np.random.PCG64(12345))
_DATA = {n: _RNG.uniform(0.1, 1.0, (n, n)) for n, _ in _SIZES}


def _solve(a):
    """Dense primal simplex for max 1'x s.t. a x <= 1, x >= 0."""
    n = a.shape[0]
    rows = [{j: float(a[i, j]) for j in range(n)} for i in range(n)]
    t = np.zeros((n + 1, 2 * n + 1))
    for i, row in enumerate(rows):
        for j, v in row.items():
            t[i, j] = v
    t[:n, n:2 * n] = np.eye(n)
    t[:n, -1] = 1.0
    t[n, :n] = -1.0
    index = np.arange(n + 1)
    for _ in range(4 * n):
        col = int(np.argmin(t[n, :-1]))
        if t[n, col] >= -1e-12:
            break
        pos = np.flatnonzero(t[:n, col] > 1e-12)
        r = int(pos[np.argmin(t[pos, -1] / t[pos, col])])
        t[r] /= t[r, col]
        other = index != r
        t[other] -= np.outer(t[other, col], t[r])
    return t[n, -1]


def probe():
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    for n, reps in _SIZES:
        for _ in range(reps):
            _solve(_DATA[n])
    return time.perf_counter() - start
