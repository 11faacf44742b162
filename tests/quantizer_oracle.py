"""Per-call reference for the quantizer.

Every call derives the step, the half interval and the level cap afresh
from ``bits``, ``interval_length`` and ``midpoint``: the formulas that
``UniformQuantizer`` evaluates once, when it is built.
"""

import numpy as np


def reference_quantize(q, x) -> np.ndarray:
    """Nearest level per coordinate, ties by floor, clamped to the range."""
    x = np.asarray(x, dtype=float)
    offset = x - q.midpoint
    step = q.interval_length / 2**q.bits
    steps = np.floor(np.abs(offset) / step + 0.5)
    steps = np.minimum(steps, 2 ** (q.bits - 1))
    return q.midpoint + np.sign(offset) * step * steps


def reference_in_range(q, x) -> np.ndarray:
    """Per-coordinate mask of inputs inside the quantization interval."""
    offset = np.asarray(x, dtype=float) - q.midpoint
    return np.abs(offset) <= q.interval_length / 2
