"""A fixed job that gauges how fast the machine runs at the moment.

The benchmark shares its processors with other work that comes and goes, and
that changes the speed of everything on them by up to half over periods of
seconds to minutes.  The benchmark therefore runs this job between CLI runs
and scales its end-to-end times by a nominal over the measured job time,
which removes the slow part of that drift.  The job mixes the two kinds of work blverify
does: adaptive quadrature of a Python integrand (interpreter-bound, like
the verdicts), elementwise updates of 4096-wide vectors with table lookups
(ufunc-bound, like the simulation step loop) and a fresh 64 MB block of
normals read back row by row (memory-bound, like the increment array).  It imports nothing
from blverify, so it is the same on every commit.

Run as a worker process, ``python3 reference.py``: every line read from
standard input runs the job once and answers its wall time in seconds.  A
separate process keeps the benchmark's own memory small; a child's peak RSS
never reads below that of the process that started it.
"""

from __future__ import annotations

import sys
import time

import numpy as np
from scipy.integrate import quad

def _job() -> float:
    total = 0.0
    for k in range(20):
        total += quad(lambda x, c=1.0 + k: x * x / (c + x), 0.0, 1.0 + k,
                      epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    rng = np.random.Generator(np.random.Philox(7))
    row = rng.standard_normal(1025)
    w = np.zeros(4096)
    acc = np.zeros(4096)
    for _ in range(1500):
        pos = np.clip((w + 8.0) * 64.0, 0.0, 1023.999)
        j = pos.astype(np.int64)
        lo = row.take(j)
        a = lo + (pos - j) * (row.take(j + 1) - lo)
        acc += a * a
        w += 0.01 * rng.standard_normal(4096)
    # memory-bound: a fresh 64 MB block of normals, read back row by row
    block = rng.standard_normal((2048, 4096))
    for r in block:
        acc += r
    return total + float(acc.sum())


def time_job() -> float:
    """Wall time of one run of the job, in seconds."""
    start = time.perf_counter()
    _job()
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in sys.stdin:
        print(time_job(), flush=True)
