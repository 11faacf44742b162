"""Constants of the hot numpy calls, held as arrays.

A ufunc call on a small array costs less with an array operand than with
a Python scalar, which numpy converts on every call (on a (10, 1) float
array, ``np.add(x, 0.5, out=o)`` takes ~650 ns, against ~400 ns with two
arrays; a uint64 ufunc with a Python int, ~1.9 µs against ~1.1 µs).  The
quantizer, the engine and the attack kernel build their per-call
constants once with :func:`operand`, read-only, so that a misdirected
``out=`` raises instead of changing a shared constant.

A vector operand whose entries are all bit-equal, such as a (1,) or a
constant (p,) midpoint, costs more than the same value as a 0-d operand,
which spares numpy its broadcasting iterator (``np.subtract(x, mid, o)`` on
a (10, 1) ``x``: ~1.04 µs with a (1,) ``mid`` against ~0.46 µs with a 0-d
one); :func:`constant_operand` makes that choice once.
"""

from __future__ import annotations

import numpy as np


def operand(value, dtype=float) -> np.ndarray:
    """``value`` as a read-only array of ``dtype``."""
    array = np.array(value, dtype=dtype)
    array.flags.writeable = False
    return array


def constant_operand(value) -> np.ndarray:
    """``value`` as a read-only float64 operand: 0-d when its entries are
    bit-equal (compared as bytes, so ``[0.0, -0.0]`` keeps its vector),
    else of its own shape.  Both forms give the same elementwise results,
    and the same result shape against an operand whose trailing axes
    already have the value's shape."""
    array = np.asarray(value, dtype=float)
    flat = array.reshape(-1)
    if flat.size and flat.tobytes() == np.full_like(flat, flat[0]).tobytes():
        return operand(flat[0])
    return operand(array)
