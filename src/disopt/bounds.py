"""Closed-form analysis kernel: constants, admissibility checks, and the
per-iteration error bound used as an overlay against simulation traces.

Everything here is a pure function of scalars, except that Lemma 1's
bound also takes an array of per-round quantization errors.  Hypothesis
violations (non-contractive factor, step size above 1) do not raise: the
value is still computed and a ``RuntimeWarning`` is emitted, except by
:meth:`BoundReport.per_k_bound`, whose report states the hypotheses as
flags.  It and :func:`recursion_bound` evaluate one formula, and
:func:`neighborhood_size` is its k -> oo tail.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)
SQRT8 = math.sqrt(8.0)


class AssumptionError(ValueError):
    """Convexity inputs outside 0 < mu <= L."""


def _check_moduli(mu: float, lipschitz: float) -> None:
    if not mu > 0:  # NaN fails each check
        raise AssumptionError(f"strong convexity modulus must be positive, got {mu}")
    if not mu <= lipschitz:
        raise AssumptionError(f"modulus {mu} exceeds Lipschitz constant {lipschitz}")


def constants(mu: float, lipschitz: float) -> tuple:
    """The pair (c1, c2) = (2/(mu+L), 2*mu*L/(mu+L))."""
    _check_moduli(mu, lipschitz)
    return 2.0 / (mu + lipschitz), 2.0 * mu * lipschitz / (mu + lipschitz)


def contraction_factor(alpha: float, c2: float) -> float:
    """Per-iteration factor 3 - 3*alpha*c2 of the squared-error recursion."""
    return 3.0 - 3.0 * alpha * c2


@dataclass(frozen=True)
class StepWindow:
    lower: float
    upper: float

    @property
    def empty(self) -> bool:
        return self.lower > self.upper

    def contains(self, alpha: float) -> bool:
        return not self.empty and self.lower <= alpha <= self.upper


def admissible_step_window(mu: float, lipschitz: float) -> StepWindow:
    """Intersection of the two step-size conditions.

    Lower end (mu+L)/(3*mu*L); upper end min(2/(mu+L), (mu+L)/(2*mu*L)).
    The window can be empty for ill-conditioned problems; emptiness is
    reported, not repaired.
    """
    _check_moduli(mu, lipschitz)
    lower = (mu + lipschitz) / (3.0 * mu * lipschitz)
    upper = min(2.0 / (mu + lipschitz), (mu + lipschitz) / (2.0 * mu * lipschitz))
    return StepWindow(lower=lower, upper=upper)


def quantizer_admissible(interval_length: float, bits: int) -> bool:
    """True iff the interval length stays within 2**bits / sqrt(6)."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if not interval_length > 0:
        raise ValueError(f"interval length must be positive, got {interval_length}")
    return interval_length <= 2**bits / SQRT6


def subgradient_admissible(subgrad_bound: float, alpha: float) -> bool:
    """True iff the uniform subgradient bound stays within 1/(sqrt(6)*alpha)."""
    if not alpha > 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    return subgrad_bound <= 1.0 / (SQRT6 * alpha)


def lemma1_bound(mean_quant_error, subgrad_bound: float, alpha: float, n: int):
    """Bound sqrt(8)*Delta + sqrt(2)*Lbar*alpha/n on the mean projection error.

    ``mean_quant_error`` may be an array of per-round values Delta, which
    gives the array of bounds.  Warns once per call (value still
    returned) when alpha > 1, which is outside the hypothesis under
    which the bound is derived.
    """
    if not np.all(np.asarray(mean_quant_error) >= 0):
        raise ValueError("inputs must be nonnegative")
    return SQRT8 * mean_quant_error + lemma1_offset(subgrad_bound, alpha, n, stacklevel=3)


def lemma1_offset(subgrad_bound: float, alpha: float, n: int, stacklevel: int = 2):
    """The Delta-free term sqrt(2)*Lbar*alpha/n of :func:`lemma1_bound`,
    which is ``SQRT8 * Delta`` plus this value, bit for bit, so a caller
    with many rounds of Delta evaluates it once.  Validates and warns as
    :func:`lemma1_bound` does."""
    if not (subgrad_bound >= 0 and alpha >= 0):
        raise ValueError("inputs must be nonnegative")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if alpha > 1:
        warnings.warn(
            f"projection-error bound assumes alpha <= 1, got {alpha}",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    return SQRT2 * subgrad_bound * alpha / n


def neighborhood_size(
    interval_length: float,
    bits: int,
    subgrad_bound: float,
    alpha: float,
    attack_norm: float,
) -> float:
    """Limiting error radius around the optimum.

    sqrt(3)*||e|| + (sqrt(6)/2**b)*l + sqrt(6)*Lbar*alpha: the k -> oo tail
    of :func:`recursion_bound`, which is the kernel with no decay term, so
    a bound column with a zero initial error equals it bit for bit.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if not all(v >= 0 for v in (interval_length, subgrad_bound, alpha, attack_norm)):
        raise ValueError("inputs must be nonnegative")
    return _recursion_kernel(0, 0.0, 0.0, bits, interval_length, subgrad_bound, alpha, attack_norm)


def _recursion_kernel(
    k, initial_error, rho, bits, interval_length, subgrad_bound, alpha, attack_norm
) -> float:
    # the decay term |rho|**(k/2) * e0 (|rho| keeps the half-power real
    # when rho < 0) is inf past float range, and 0 whenever e0 is, never
    # inf * 0 = NaN; the constant terms divide by 2**b first, so none
    # overflows at large b
    decay = 0.0
    if initial_error:
        try:
            decay = abs(rho) ** (k / 2.0) * initial_error
        except OverflowError:
            decay = math.inf
    return (
        decay
        + SQRT3 * attack_norm
        + (SQRT6 / 2**bits) * interval_length
        + SQRT6 * subgrad_bound * alpha
    )


def recursion_bound(
    k: int,
    initial_error: float,
    alpha: float,
    c2: float,
    interval_length: float,
    bits: int,
    subgrad_bound: float,
    attack_norm: float,
) -> float:
    """Theoretical bound on the mean-iterate error after k iterations.

    rho**(k/2) * initial_error + sqrt(3)*||e|| + (sqrt(6)/2**b)*l
    + sqrt(6)*Lbar*alpha, with rho = 3 - 3*alpha*c2.  Warns when rho
    falls outside [0, 1): the value is still computed but does not decay,
    and it is inf once the first term leaves float range.
    """
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    rho = contraction_factor(alpha, c2)
    if rho >= 1:
        warnings.warn(
            f"contraction factor {rho} >= 1: bound does not decay",
            RuntimeWarning,
            stacklevel=2,
        )
    elif rho < 0:
        warnings.warn(
            f"contraction factor {rho} < 0: outside the derivation's hypothesis",
            RuntimeWarning,
            stacklevel=2,
        )
    return _recursion_kernel(
        k, initial_error, rho, bits, interval_length, subgrad_bound, alpha, attack_norm
    )


@dataclass(frozen=True)
class BoundReport:
    """All closed-form quantities for one scenario, ready to serialize."""

    mu: float
    lipschitz: float
    alpha: float
    bits: int
    interval_length: float
    subgrad_bound: float
    attack_norm: float
    initial_error: float
    c1: float = field(init=False)
    c2: float = field(init=False)
    rho: float = field(init=False)
    step_window: StepWindow = field(init=False)
    neighborhood: float = field(init=False)

    def __post_init__(self):
        c1, c2 = constants(self.mu, self.lipschitz)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "rho", contraction_factor(self.alpha, c2))
        object.__setattr__(self, "step_window", admissible_step_window(self.mu, self.lipschitz))
        object.__setattr__(
            self,
            "neighborhood",
            neighborhood_size(
                self.interval_length,
                self.bits,
                self.subgrad_bound,
                self.alpha,
                self.attack_norm,
            ),
        )

    @property
    def admissible(self) -> dict:
        return {
            "step_window_nonempty": not self.step_window.empty,
            "alpha_in_window": self.step_window.contains(self.alpha),
            "alpha_le_c1": self.alpha <= self.c1,
            "quantizer": quantizer_admissible(self.interval_length, self.bits),
            "subgradient": subgradient_admissible(self.subgrad_bound, self.alpha),
            "contractive": 0.0 <= self.rho < 1.0,
            "alpha_le_1": self.alpha <= 1.0,
        }

    def per_k_bound(self, k: int) -> float:
        """:func:`recursion_bound` after k iterations, without its warnings."""
        if k < 0:
            raise ValueError(f"iteration index must be >= 0, got {k}")
        return _recursion_kernel(
            k,
            self.initial_error,
            self.rho,
            self.bits,
            self.interval_length,
            self.subgrad_bound,
            self.alpha,
            self.attack_norm,
        )

    def bound_column(self, iterations: int) -> list:
        """``per_k_bound(k)`` for k = 0..iterations.

        Each value is the scalar bound: ``np.power`` over a k array is not
        bit-identical to Python's ``**``.  A non-contractive factor makes
        the values inf from the first k past float range on.
        """
        return [self.per_k_bound(k) for k in range(iterations + 1)]

    def to_dict(self) -> dict:
        return {
            **{f.name: getattr(self, f.name) for f in fields(self) if f.init},
            "c1": self.c1,
            "c2": self.c2,
            "contraction_factor": self.rho,
            "step_window": {
                "lower": self.step_window.lower,
                "upper": self.step_window.upper,
                "empty": self.step_window.empty,
            },
            "admissible": self.admissible,
            "neighborhood": self.neighborhood,
        }
