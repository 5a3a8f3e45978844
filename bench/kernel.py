"""A fixed pure-Python Fraction kernel that measures how fast the machine is.

On shared machines the speed of pure-Python code drifts by up to 2x over
minutes, in the process's CPU time as much as in wall time.  The benchmark
times this kernel inside the worker between operations and reports every
time scaled to a machine on which the kernel takes REFERENCE_S, so that a
change in hqsynth moves the metrics and a change in the machine does not.
The kernel uses nothing from hqsynth, so no change to hqsynth moves the scale.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.060
SAMPLE_EVERY_S = 0.5  # of operation time between two kernel samples


def reference_kernel() -> float:
    """Seconds for a 24x24 Gauss-Jordan solve over Fractions."""
    n = 24
    m = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 2) + (n if i == j else 0)
          for j in range(n + 1)] for i in range(n)]
    t0 = time.perf_counter()
    for c in range(n):
        inv = m[c][c]
        m[c] = [x / inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return time.perf_counter() - t0
