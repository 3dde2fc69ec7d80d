"""Fixed reference work that measures the speed of the machine, not of cdag.

A shared host runs the same code up to half again slower for minutes at a
time.  The harness times this work before every pass and scales the pass's
wall times by it, so that ``ops_per_s_norm`` follows the program and not the
host.  The work is in the program's style (reachability in a sparse digraph,
small least-squares fits, CSV parsing into an array) and never calls cdag,
so a change to cdag cannot change it.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

REPS = 5             # runs per measurement; the measurement is their median
NOMINAL_S = 0.015    # median time of the work on a 2-core Xeon VM

_rng = np.random.default_rng(20240404)
_X = _rng.standard_normal((2000, 8))
_EDGES = [(a, b) for a, b in _rng.integers(0, 300, (900, 2)).tolist() if a < b]
_CSV = "\n".join(",".join(f"{v:.17g}" for v in row) for row in _rng.standard_normal((400, 8)))


def work() -> int:
    adj = {v: [] for v in range(300)}
    for a, b in _EDGES:
        adj[a].append(b)
    total = 0
    for s in range(0, 300, 6):
        seen, stack = {s}, [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        total += len(seen)
    for k in range(1, 9):
        for _ in range(12):
            coef = np.linalg.lstsq(_X[:, :k], _X[:, 0] + _X[:, k - 1], rcond=None)[0]
            total += coef.size
    rows = [[float(c) for c in row] for row in csv.reader(io.StringIO(_CSV))]
    return total + len(np.array(rows))


def measure() -> float:
    """Median wall time of REPS runs of the reference work, in seconds."""
    walls = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        work()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)
