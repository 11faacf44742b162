"""Local objective functions and the box-constrained feasible set.

Objectives carry their analysis metadata (strong-convexity modulus,
gradient Lipschitz constant, and a uniform subgradient bound over the
feasible set) so the bounds module can consume them without re-deriving
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _check_moduli


@dataclass(frozen=True)
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
            raise ValueError("box requires lo < hi componentwise")

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    def _check(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        if h.shape != self.lo.shape:
            raise ValueError(f"expected shape {self.lo.shape}, got {h.shape}")
        return h

    def projection_error(self, h) -> np.ndarray:
        """Residual ``h - P(h)``, with ``P(h)`` the closest point of the box
        in Euclidean norm (componentwise clamp); zero exactly when ``h`` is
        feasible."""
        h = self._check(h)
        return h - np.clip(h, self.lo, self.hi)

    def contains(self, x) -> bool:
        x = self._check(x)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def corner_norm(self) -> float:
        """Largest Euclidean norm attained on the box (at a corner)."""
        return float(np.sqrt(np.sum(np.maximum(self.lo**2, self.hi**2))))


@dataclass(frozen=True)
class LocalObjective:
    """One agent's objective with its convexity/subgradient metadata.

    ``subgrad_bound`` must dominate ``||subgradient(x)||`` over the
    feasible set; ``mu <= lipschitz`` is enforced at construction.
    Evaluation is pure and thread-safe.

    ``subgradient(x, out=None)`` is row-wise: given an (m, p) array of
    points, one per row, it returns the (m, p) array of their
    subgradients, row i being exactly what the point ``x[i]`` alone would
    give.  With ``out``, an (m, p) float array that does not overlap
    ``x``, it writes them there and returns ``out``; without, it returns
    a new array.  The engine makes one call per round for all agents
    that share an objective: when those agents are contiguous it passes a
    view of the state and a view of the round's gradient buffer as
    ``out``, so ``subgradient`` must not write to ``x``.  It should fill
    ``out``; another array returned instead is copied into the gradient
    rows, which costs that array's allocation every round.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], float]
    subgradient: Callable[..., np.ndarray]
    mu: float
    lipschitz: float
    subgrad_bound: float

    def __post_init__(self):
        _check_moduli(self.mu, self.lipschitz)
        if self.subgrad_bound < 0:
            raise ValueError("subgradient bound must be nonnegative")


def quadratic_suite(n: int, p: int, feasible: FeasibleSet) -> list:
    """The benchmark suite: every agent carries f_i(x) = 0.5 ||x||^2.

    Each agent's subgradient is x itself (row by row on an (m, p)
    array), mu = lipschitz = 1 per agent, and the shared minimizer
    x* = 0 must be feasible, so the box has to contain the origin.  The
    subgradient bound is the largest norm on the box (attained at a
    corner).
    """
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if feasible.dimension != p:
        raise ValueError(f"box dimension {feasible.dimension} != p={p}")
    origin = np.zeros(p)
    if not feasible.contains(origin):
        raise ValueError("box must contain the origin so the minimizer stays feasible")

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ x)

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
    )
    return [obj] * n


def make_objectives(name: str, n: int, p: int, feasible: FeasibleSet):
    """Objective suite lookup by config name.  Returns (objectives, x_star)."""
    if name == "quadratic":
        return quadratic_suite(n, p, feasible), np.zeros(p)
    raise ValueError(f"unknown objective {name!r}")


def suite_subgrad_bound(objectives) -> float:
    """Uniform bound max_i over the per-agent subgradient bounds."""
    return max(o.subgrad_bound for o in objectives)
