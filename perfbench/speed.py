"""Machine-speed reference for the end-to-end times.

The speed of a small shared machine can switch between levels far apart (on
a 2-CPU test machine, 1.6x for interpreted code and 1.2x for numpy, many
times a minute and for minutes on end), so raw times of the same code spread
by up to 50% between runs. A fixed piece of work that uses no cvmdi code, of
the same kind as the item, is timed right after each item and each set-up
sample, and that time is scaled by NOMINAL_S / (reference seconds): it reads
as on the machine at the reference's nominal speed. A change to cvmdi cannot
move the reference.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

_RNG = np.random.Generator(np.random.Philox(1))


def python_reference(steps: int) -> float:
    """Seconds for interpreted float arithmetic with math and numpy scalar
    calls, the mix of the scalar key-rate code."""
    a = np.float64(1.5)
    acc = 0.0
    t0 = perf_counter()
    for i in range(steps):
        x = (i % 97) * 0.01 + 1.0
        acc += math.log2(x) + math.sqrt(x * x + 2.0)
        if i % 8 == 0:
            acc += float(a * x)
    return perf_counter() - t0


def numpy_reference(rows: int) -> float:
    """Seconds to draw a rows x 4 normal sample and form its moment matrix,
    the mix of the Monte Carlo code."""
    t0 = perf_counter()
    x = _RNG.standard_normal((rows, 4))
    float((x.T @ x)[0, 0])
    return perf_counter() - t0


def startup_reference(processes: int) -> float:
    """Seconds to start Python processes that import numpy one after another,
    the bulk of a cvmdi process start."""
    t0 = perf_counter()
    for _ in range(processes):
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True)
    return perf_counter() - t0


# (reference, size, NOMINAL_S). The reference costs about 5% of a figures
# item, 1% of an oracle item and half a cli item. A cli item and a set-up
# sample are mostly a process start: an interpreted loop in this process
# slows more than they do when the machine slows down.
REFERENCES = {
    "figures": (python_reference, 3_000, 0.6e-3),
    "oracle": (numpy_reference, 400_000, 30e-3),
    "cli": (startup_reference, 1, 0.12),
    "setup": (startup_reference, 1, 0.12),
}


def scale(kind: str) -> tuple[float, float]:
    """Times the reference of kind once; returns (NOMINAL_S / seconds, seconds)."""
    reference, size, nominal_s = REFERENCES[kind]
    seconds = reference(size)
    return nominal_s / seconds, seconds
