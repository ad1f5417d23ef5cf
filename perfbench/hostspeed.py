"""A fixed probe of how fast the host runs this process right now.

The reference machine is a 2-vCPU share of a busy host.  Neighbours slow
every operation by 1.3-1.8x for spells of seconds to minutes, so raw
latencies of one run drift by 30 % or more against the next.  The probe
does a fixed mix of the work the workloads do (interpreter arithmetic, a
QUADPACK integral of a Python function, small and medium BLAS products)
and uses no gibbslab code, so a change to the program never changes it.
``run.py`` probes before the first and after every timed operation and
scales each latency by ``floor / probe``: the probe's best time in the run
over the mean of the two probes around the operation.  A scaled latency is
the one the operation would have had at the host's best speed in that run.
Each set-up interpreter probes itself once it is ready.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad

_SMALL = np.random.default_rng(0).normal(size=(40, 40))
_MEDIUM = np.random.default_rng(1).normal(size=(160, 160))
REPEATS = 3


def _work() -> float:
    total = 0.0
    for i in range(20000):
        total += math.sin(i * 1e-3)
    total += quad(lambda x: math.exp(-x * x) * math.cos(3.0 * x), -5.0, 5.0, epsrel=1e-12, limit=200)[0]
    for _ in range(30):
        total += float((_SMALL @ _SMALL)[0, 0])
    for _ in range(4):
        total += float((_MEDIUM @ _MEDIUM)[0, 0])
    return total


def probe() -> float:
    """Seconds of the fixed work, the best of ``REPEATS`` (a few ms each)."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


_work()  # the first call pays one-off costs


def scaled(seconds: float, before: float, after: float, floor: float) -> float:
    """``seconds`` at the speed of the host's best probe ``floor``."""
    return seconds * floor / (0.5 * (before + after))
