"""Speed reference for timings taken on a shared host.

Other tenants of a host can slow this process's CPU by up to 2x for minutes
at a time, and the slowdown reaches interpreter and array work alike.
``loop`` is a fixed piece of such work that never touches fraclab.  Timed
next to the cases, it measures how fast the CPU runs at that moment; a case
time multiplied by ``NOMINAL_S / loop time`` is the time the case would take
at the reference speed, which is what repeats from run to run.
"""

import math
import time

import numpy as np

# The loop's fastest time on the host the baseline was recorded on
# (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.4).
NOMINAL_S = 2.5e-4

_A = np.arange(500.0)


def loop() -> float:
    s = 0.0
    for i in range(3000):
        s += math.sqrt(i + 1.0)
    for _ in range(30):
        s += float(np.dot(_A, _A))
    return s


def loop_time() -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def fastest(n: int) -> float:
    """The fastest of n loop times: the CPU speed right now."""
    return min(loop_time() for _ in range(n))
