"""The network objective and the box-constrained feasible set.

The objective carries its analysis metadata (strong-convexity modulus,
gradient Lipschitz constant, a uniform subgradient bound over the
feasible set, and the minimizer x*) so the bounds module and the error
columns consume them without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _check_moduli
from .operand import operand


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """Axis-aligned box ``[lo, hi]`` with closed-form projection."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape:
            raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if not np.all(lo < hi):
            raise ValueError("requires lo < hi componentwise")

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    def _check(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        if h.shape[-1:] != self.lo.shape:
            raise ValueError(f"expected trailing shape {self.lo.shape}, got {h.shape}")
        return h

    def projection_error(self, h) -> np.ndarray:
        """Residual ``h - P(h)``, with ``P(h)`` the closest point of the box
        in Euclidean norm (componentwise clamp); zero exactly when ``h`` is
        feasible."""
        h = self._check(h)
        return h - np.clip(h, self.lo, self.hi)

    def contains(self, x) -> bool:
        """Whether ``x``, a point or an array of points along its leading
        axes, lies in the box; NaN lies outside."""
        x = self._check(x)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def corner_norm(self) -> float:
        """Largest Euclidean norm attained on the box (at a corner)."""
        return float(np.sqrt(np.sum(np.maximum(self.lo**2, self.hi**2))))


@dataclass(frozen=True, eq=False)
class LocalObjective:
    """The network's objective, the sum over agents of their local f_i,
    with the analysis metadata the bounds consume.

    ``subgradient(x, out=None)`` maps the (n, p) state, row i agent i's
    iterate, to the (n, p) array whose row i is agent i's subgradient of
    f_i at ``x[i]``.  With ``out``, an (n, p) float array that does not
    overlap ``x``, it writes them there and returns ``out``; without, it
    returns a new array; it must not write to ``x``.  ``evaluate(x)``
    gives each row's f_i(x[i]) over the last axis.

    The metadata holds for every agent: each f_i is ``mu``-strongly
    convex with a ``lipschitz`` gradient, and ``subgrad_bound`` dominates
    the norm of every row of ``subgradient`` over the feasible set;
    ``mu <= lipschitz`` is enforced at construction.  ``x_star`` is the
    minimizer of the sum over the box, the point the error columns
    measure against; it is stored read-only and must have shape
    ``(dimension,)``.  Evaluation is pure and thread-safe.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    subgradient: Callable[..., np.ndarray]
    mu: float
    lipschitz: float
    subgrad_bound: float
    x_star: np.ndarray

    def __post_init__(self):
        _check_moduli(self.mu, self.lipschitz)
        if not self.subgrad_bound >= 0:
            raise ValueError("subgradient bound must be nonnegative")
        x_star = operand(self.x_star)
        if x_star.shape != (self.dimension,):
            raise ValueError(f"x_star has shape {x_star.shape}, expected ({self.dimension},)")
        object.__setattr__(self, "x_star", x_star)


def quadratic_suite(n: int, p: int, feasible: FeasibleSet) -> list:
    """n references to one objective whose every f_i(x) is 0.5 ||x||^2.

    The subgradient is the state itself, mu = lipschitz = 1, and the
    subgradient bound is the box's largest norm.  The minimizer x* = 0
    must be feasible, so the box has to contain the origin.
    """
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if feasible.dimension != p:
        raise ValueError(f"box dimension {feasible.dimension} != p={p}")
    origin = np.zeros(p)
    if not feasible.contains(origin):
        raise ValueError("quadratic objective needs the origin inside the box")

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * x, axis=-1)

    def subgradient(x, out=None):
        if out is None:
            return np.array(x, dtype=float)
        out[...] = x
        return out

    obj = LocalObjective(
        dimension=p,
        evaluate=evaluate,
        subgradient=subgradient,
        mu=1.0,
        lipschitz=1.0,
        subgrad_bound=feasible.corner_norm(),
        x_star=origin,
    )
    return [obj] * n


def make_objective(name: str, p: int, feasible: FeasibleSet) -> LocalObjective:
    """The network objective of a config's ``objective.name``."""
    if name == "quadratic":
        return quadratic_suite(1, p, feasible)[0]
    raise ValueError(f"unknown objective {name!r}")
