"""Constants of the hot numpy calls, held as arrays.

A ufunc call on a small array costs less with an array operand than with
a Python scalar, which numpy converts on every call (on a (10, 1) float
array, ``np.add(x, 0.5, out=o)`` takes ~650 ns, against ~400 ns with two
arrays; a uint64 ufunc with a Python int, ~1.9 µs against ~1.1 µs).  The
quantizer, the engine and the attack kernel build their per-call
constants once with :func:`operand`, read-only, so that a misdirected
``out=`` raises instead of changing a shared constant.
"""

from __future__ import annotations

import numpy as np


def operand(value, dtype=float) -> np.ndarray:
    """``value`` as a read-only array of ``dtype``."""
    array = np.array(value, dtype=dtype)
    array.flags.writeable = False
    return array
