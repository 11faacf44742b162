"""Per-call reference for the quantizer.

Every call derives the step, the half interval and the level cap afresh
from ``bits``, ``interval_length`` and ``midpoint``: the formulas that
``UniformQuantizer`` evaluates once, when it is built.
"""

import numpy as np


def reference_quantize(q, x) -> np.ndarray:
    """Nearest level per coordinate, ties away from the midpoint, clamped
    to the range."""
    x = np.asarray(x, dtype=float)
    offset = x - q.midpoint
    step = q.interval_length / 2**q.bits
    steps = np.floor(np.abs(offset) / step + 0.5)
    steps = np.minimum(steps, 2 ** (q.bits - 1))
    # a NaN input's level is that one NaN: the product of two NaNs, sign
    # and steps, may carry either's sign, which IEEE 754 leaves to the kernel
    level = np.where(np.isnan(offset), offset, np.sign(offset) * step * steps)
    return q.midpoint + level


def reference_in_range(q, x) -> np.ndarray:
    """Per-coordinate mask of inputs inside the quantization interval."""
    offset = np.asarray(x, dtype=float) - q.midpoint
    return np.abs(offset) <= q.interval_length / 2
