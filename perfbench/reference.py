"""A fixed reference kernel that measures how fast the host runs right now.

A shared host's speed can drift by up to 1.8x over minutes while the program
stays the same (measured on a 2-vCPU Xeon virtual machine with other tenants).  Every repetition times this kernel just
before and just after its timed region, and the timings it reports are scaled
to the speed at which the kernel takes ``NOMINAL_S``.  The kernel uses numpy,
scipy and plain Python in the mix the workloads use (Philox normals, DST-I,
small elementwise array work, 2-D DSTs, float formatting) but no cascade-lab
code, so a change to the program changes the scaled timings and not the
scale.  Its transform sizes differ from the program's, so it warms none of the
program's FFT plans.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

# The kernel's time, before plus after, at the nominal speed: a round figure
# within the 0.5-0.7 s it takes on the 2-vCPU Xeon machine above.
NOMINAL_S = 0.6
ROUNDS = 7000


def kernel(rounds: int = ROUNDS) -> float:
    """One pass of the reference work; returns a checksum so none of it is skipped."""
    rng = np.random.Generator(np.random.Philox(20061151))
    x = rng.standard_normal(50)
    grid = rng.standard_normal((6, 24, 24))
    decay = np.exp(-0.01 * np.arange(1, 51))
    acc = 0.0
    rows = []
    for i in range(rounds):
        y = scipy.fft.dst(x, type=1)
        x = decay * np.tanh(y * 0.05) + 0.1 * rng.standard_normal(50)
        acc += float(np.sqrt(np.dot(x, x)))
        rows.append(f"{i * 0.01:.17g},{acc:.17g},{float(x.max()):.17g}")
        if i % 10 == 0:
            grid = 0.05 * scipy.fft.dstn(grid, type=1, axes=(1, 2)) + 0.01 * rng.standard_normal(grid.shape)
            acc += float(np.abs(grid).max())
    return acc + len("\n".join(rows))


def measure(rounds: int = ROUNDS) -> float:
    """Seconds one pass of the kernel takes now."""
    start = time.perf_counter()
    kernel(rounds)
    return time.perf_counter() - start
