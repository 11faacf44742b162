"""Uniform fixed-step quantizer applied independently per coordinate.

Step size is ``interval_length / 2**bits``.  For inputs whose offset
from the midpoint stays within half the interval, the per-coordinate
error never exceeds ``interval_length / 2**(bits + 1)``.  Out-of-range
coordinates saturate to the end-of-range level, which silently breaks
the error bound; :meth:`UniformQuantizer.in_range` flags them.  It takes
an input of any shape whose trailing axes match the midpoint, so the
engine checks a whole block of rounds' states in one call.

The step, the half interval and the level cap's reach ``2**(bits-1)``
steps, to which an offset's magnitude is clamped before it is divided by
the step (so no offset overflows), are fixed when the quantizer is
built, not per call, as read-only float64 arrays
(:func:`disopt.operand.operand`), the cheaper operand of a numpy call.
So is the midpoint the arithmetic reads: one 0-d operand when its entries
are bit-equal (:func:`disopt.operand.constant_operand`), else the vector,
while ``midpoint`` keeps its shape for the shape check.
``dataclasses.replace`` builds a new quantizer and so recomputes them.
:meth:`UniformQuantizer.quantize` can write into caller-supplied
buffers, so the engine's broadcast allocates nothing per round, and its
ufuncs are bound once, at import, so a call looks none of them up.

``interval_length`` is positive: a scalar, or an array that broadcasts
against the input, such as an (n, 1) column giving each row of an (n, p)
input its own interval.  The step it gives must not underflow to 0.  A
vector ``midpoint`` is matched against the input's trailing axes.  Exact
communication is no quantizer at all (the engine's ``quantizer=None``),
not a zero-length interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operand import constant_operand, operand

# the 0.5 that rounds a step count to nearest
_ONE_HALF = operand(0.5)
_FLOAT64 = np.dtype(float)

# quantize's ufuncs, bound once: a module global is one lookup, not two
_subtract, _absolute, _divide, _add, _floor, _minimum, _multiply, _copysign = (
    np.subtract, np.absolute, np.divide, np.add, np.floor, np.minimum, np.multiply, np.copysign
)


@dataclass(frozen=True, eq=False)
class UniformQuantizer:
    bits: int
    interval_length: float | np.ndarray
    midpoint: float | np.ndarray = 0.0
    step: np.ndarray = field(init=False, repr=False)
    _half: np.ndarray = field(init=False, repr=False)
    _reach: np.ndarray = field(init=False, repr=False)
    _mid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if int(self.bits) != self.bits or self.bits < 1:
            raise ValueError(f"bits must be a positive integer, got {self.bits}")
        length = np.asarray(self.interval_length, dtype=float)
        if not np.all(length > 0):  # NaN fails too
            raise ValueError(f"interval lengths must be positive, got {self.interval_length}")
        mid = np.asarray(self.midpoint, dtype=float)
        object.__setattr__(self, "midpoint", mid)
        step = self.interval_length / 2**self.bits
        # a zero step would quantize every offset to the midpoint, and a zero one to NaN
        if not np.all(step > 0):
            raise ValueError(f"the step interval_length / 2**{self.bits} underflows to 0")
        constants = {
            "step": step,
            "_half": self.interval_length / 2,
            # the level cap times the step: exact, a power-of-two multiple
            "_reach": float(2 ** (self.bits - 1)) * step,
        }
        for name, value in constants.items():
            object.__setattr__(self, name, operand(value))
        object.__setattr__(self, "_mid", constant_operand(mid))

    def _checked(self, x) -> np.ndarray:
        # a float64 ndarray is what asarray would return: the round skips it
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
            x = np.asarray(x, dtype=float)
        mid = self.midpoint
        # a 0-d midpoint matches every input: no trailing-shape slice to compare
        if mid.ndim and mid.shape != x.shape[x.ndim - mid.ndim :]:
            raise ValueError(f"midpoint shape {mid.shape} does not match input {x.shape}")
        return x

    def quantize(self, x, out=None, scratch=None) -> np.ndarray:
        """Nearest quantization level per coordinate, ties resolved by floor.

        Levels are ``midpoint + m * step`` with ``|m| <= 2**(bits-1)``;
        out-of-range offsets clamp to the outermost level.

        The result is written into ``out`` and returned.  ``out`` has the
        shape ``x`` broadcast against the interval length (an (n, 1)
        column gives a (p,) input n rows); ``scratch``, of the same
        shape, holds the offsets while the levels are formed.  Either is
        allocated when None.  The two must not overlap, but either may be
        ``x`` itself.
        """
        x = self._checked(x)
        if out is None:
            out = np.empty(np.broadcast(x, self.step).shape)
        if scratch is None:
            scratch = np.empty_like(out)
        # mid + copysign(step * floor(min(|offset|, cap step) / step + 0.5), offset),
        # bit for bit sign(offset) * step * count: a NaN offset keeps its
        # sign bit, and a -0 offset (x = -0 at mid = +0) gives mid + -0 =
        # mid + 0.  Clamping the offset to the cap's reach before dividing
        # gives the cap's count exactly, and no offset / step overflows.
        # ``out`` goes positionally (it costs less), except to np.minimum,
        # which deprecates that form.
        mid, step = self._mid, self.step
        offset = _subtract(x, mid, scratch)
        count = _absolute(offset, out)
        _minimum(count, self._reach, out=count)
        _divide(count, step, count)
        _add(count, _ONE_HALF, count)
        _floor(count, count)
        _multiply(count, step, count)
        _copysign(count, offset, out)
        return _add(mid, out, out)

    def quantization_error(self, x) -> np.ndarray:
        """Signed error ``x - quantize(x)``."""
        x = self._checked(x)
        return x - self.quantize(x)

    def error_bound(self) -> float:
        """Worst per-coordinate error magnitude for in-range inputs."""
        # one rounding, where dividing by 2 ** (bits + 1) overflows at bits = 1023
        return np.ldexp(self.interval_length, -(self.bits + 1))

    def in_range(self, x) -> np.ndarray:
        """Per-coordinate mask of inputs inside the quantization interval
        (NaN is outside); ``x`` may have any leading axes."""
        return np.abs(self._checked(x) - self._mid) <= self._half

    def saturates(self, x) -> bool:
        """True when any coordinate falls outside the quantization interval."""
        return not bool(np.all(self.in_range(x)))
