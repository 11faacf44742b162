"""Machine-speed calibration for the end-to-end timings.

On a shared host the processor's speed drifts by up to about 2x over
seconds to minutes, with the load of other tenants.  A whole run can fall
in a slow stretch, so no statistic taken over one run's timings removes
it.  The benchmark therefore times a fixed kernel, independent of disopt,
right before every seed run and reports each timing scaled to the speed
at which the kernel takes ``NOMINAL_S``:

    calibrated = measured * NOMINAL_S / kernel time nearby

The kernel mixes the kinds of work disopt does: a pure-Python loop,
per-element calls into numpy on tiny arrays, a dense (400 x 400) @ (400 x 16)
matmul and a nested loop filling a dict.  Because it never changes, a
change to disopt moves the calibrated times just as it moves the raw ones.
"""

from __future__ import annotations

import numpy as np

# Kernel time at reference speed (about its fastest on a 2-vCPU x86-64 host).
NOMINAL_S = 0.003

_W = np.linspace(0.0, 1.0, 400 * 400).reshape(400, 400)
_X = np.linspace(-1.0, 1.0, 400 * 16).reshape(400, 16)


def kernel() -> float:
    s = 0
    for i in range(12000):
        s += i * i % 7
    a = np.zeros(4)
    for i in range(300):
        a[0] = i
        s += float(np.clip(a, -1.0, 1.0)[0])
    for _ in range(6):
        s += float((_W @ _X)[0, 0])
    d = {}
    for i in range(60):
        for j in range(60):
            d[(i, j)] = 1.0 / (1 + max(i, j))
    return s + len(d)
