"""Constants of the hot numpy calls, held as read-only arrays.

An array operand costs a ufunc call less than a Python scalar, which numpy
converts on every call, and a 0-d one less than a vector whose entries
are all bit-equal.  They are read-only, so a misdirected ``out=`` raises
instead of changing a constant that every call shares.
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
    already have the value's shape, with one exception: clip against a
    zero bound.  A 0-d bound keeps a zero entry of the other sign, where
    a vector bound returns the bound's zero."""
    array = np.asarray(value, dtype=float)
    flat = array.reshape(-1)
    if flat.size and flat.tobytes() == np.full_like(flat, flat[0]).tobytes():
        return operand(flat[0])
    return operand(array)
