"""A fixed calibration kernel that measures the machine's current speed.

On a shared host the speed of a core drifts by a quarter or more over
seconds to minutes, and a sweep's wall time drifts with it.  The kernel
does fixed work of the kinds a sweep does: per-trial RNG construction and
draws, small complex matrix products, an elementwise exponential and small
Hermitian eigenproblems.  It uses NumPy only, never the package, so no
change to the program changes its time.  Timed right before and after each
sweep in the same process, it slows down with the sweep, and the ratio of
the two cancels most of the drift.
"""

import time

import numpy as np

# Median kernel time on the reference machine (README, "Machine"); a
# calibrated time is a wall time scaled to that speed.
REFERENCE_S = 0.03

_A = np.full((256, 64), 0.5 + 0.25j)
_B = np.full((64, 64), 0.125 - 0.5j)
_PHASE = np.linspace(0.0, 6.0, 1 << 17)
_GRAM = np.eye(24) * 3.0 + 0.01


def kernel_seconds():
    """Wall seconds of one pass of the fixed kernel."""
    start = time.perf_counter()
    for i in range(480):
        rng = np.random.default_rng((7, 11, i))
        rng.integers(0, 2, 8)
        rng.standard_normal(136)
    for _ in range(24):
        _A @ _B
    np.exp(-2j * np.pi * _PHASE)
    np.linalg.eigvalsh(np.broadcast_to(_GRAM, (256, 24, 24)))
    return time.perf_counter() - start
