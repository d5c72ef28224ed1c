"""Machine-speed calibration, so times from a shared host can be compared.

The 2-core Intel Xeon VM the benchmark was tuned on switches between
speed modes that last minutes: the same `bqp_many` repetition took 1.1 s of
CPU in one and 2.5 s in another, and a cold start 0.6 s or 1.2 s. CPU
time already excludes time the hypervisor steals; these modes are not
steal, so they show in CPU time too.

The benchmark therefore runs a fixed kernel just before and just after
every timed repetition and every timed cold start, and reports each time
scaled by `REFERENCE_CPU_S / (mean kernel CPU time around it)`: the time
the work would take at the speed where the kernel takes REFERENCE_CPU_S.
A change to kolmsim cannot move the kernel, so it moves the scaled time
as it moves the raw one. The kernel mixes the two kinds of work the
workloads do: bytes-keyed dict traffic in the interpreter (as in basis
lookups) and small in-place numpy operations (as in Monte Carlo steps).
It allocates about 1 MB, so it does not raise the peak RSS measured.
"""

from __future__ import annotations

import time

import numpy as np

# Median CPU seconds of calibration_cpu_s() measured on that VM.
REFERENCE_CPU_S = 0.25


def calibration_cpu_s() -> float:
    """CPU seconds this process takes for the fixed kernel."""
    start = time.process_time()
    total = 0
    for _ in range(40):
        lookup = {}
        for i in range(5000):
            lookup[i.to_bytes(8, "little")] = i
        for key in lookup:
            total += lookup[key]
    x = np.ones((8192, 2))
    y = np.full((8192, 2), 1e-3)
    step = np.empty_like(x)
    for _ in range(8000):
        np.multiply(y, 0.5, out=step)
        np.multiply(x, 0.999, out=x)
        np.add(x, step, out=x)
    return time.process_time() - start


def at_reference_speed(cpu_s: float, before: float, after: float) -> float:
    """`cpu_s` scaled by the kernel times measured just before and after it."""
    return cpu_s * REFERENCE_CPU_S * 2 / (before + after)
