"""Synchronous simulation of the quantized distributed subgradient protocol.

Each round: every agent broadcasts (honest agents send their quantized
iterate, adversaries their full-precision one), then every agent mixes
the received values, takes a subgradient step, adversaries add their
perturbation, and the result is projected back onto the feasible set.

A single run is sequential and fully deterministic given its seed; runs
share no mutable state, so seed sweeps may execute concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adversary as adv
from .bounds import lemma1_bound
from .objective import FeasibleSet, suite_subgrad_bound
from .quantizer import UniformQuantizer

# Tolerance of the mean-iterate bookkeeping identity; it is an exact
# algebraic consequence of the update, so only rounding noise is allowed.
# Rounding grows with the size of the identity's terms, so a run scales it
# by the largest bound on them when that exceeds 1.
MEAN_RECURSION_TOL = 1e-10

# Rounding slack of the Lemma 1 comparison ``xi_bar_norm <= lemma1_rhs``.
LEMMA1_TOL = 1e-12


class BoundViolationError(RuntimeError):
    """An invariant check failed during a run: the mean-iterate identity
    was off by more than its rounding tolerance, or a state went NaN."""


@dataclass(frozen=True)
class IterationTrace:
    """Everything the bound checks consume, recorded at one iteration.

    ``x_bar``/``err_*`` describe the state entering iteration k;
    ``x_bar_next`` the state after the update.  ``delta_bar`` is the mean
    of per-agent quantization error magnitudes, and ``saturation_count``
    the number of agents whose broadcast input fell outside the quantizer
    range this round.

    ``xi_bar`` is the mean projection residual of the update as run, with
    each adversary's attack ``e_i(k)`` inside the projected point.
    ``xi_bar_attack_free_norm`` is the norm of the mean residual of the
    same update without the attacks, ``mean_i[h_i - P_X(h_i)]`` with
    ``h_i`` taken before ``e_i`` is added: the quantity Lemma 1 bounds by
    ``lemma1_rhs``.  ``lemma1_ok`` compares the *attacked* residual
    ``xi_bar_norm`` with that attack-free bound, so it records the known
    gap: it can fail at an unsaturated step because adversaries clipped
    back into the box add up to ``mean_i ||e_i(k)||`` to the residual,
    a term the bound leaves out.
    """

    k: int
    x_bar: np.ndarray
    x_bar_next: np.ndarray
    err_all: float
    err_honest: float
    per_agent_err: np.ndarray
    grad_mean: np.ndarray
    delta_bar: float
    xi_bar: np.ndarray
    xi_bar_norm: float
    xi_bar_attack_free_norm: float
    mean_attack: np.ndarray
    attack_norms: np.ndarray
    saturation_count: int
    lemma1_rhs: float
    lemma1_ok: bool


@dataclass(frozen=True)
class RunResult:
    traces: list
    final_iterates: np.ndarray
    x_star: np.ndarray
    final_err_all: float
    final_err_honest: float
    subgrad_bound: float
    alpha: float

    @property
    def unsaturated_lemma1_violations(self) -> list:
        """Bound failures at rounds with no quantizer saturation at all."""
        return [
            t.k
            for t in self.traces
            if not t.lemma1_ok and t.saturation_count == 0
        ]


def broadcast_phase(
    iterates: np.ndarray,
    quantizer: UniformQuantizer | None,
    honest: np.ndarray,
    adversary_quantizes: bool = False,
):
    """Per-agent broadcast values and quantizer saturation flags.

    Honest agents (rows where ``honest`` is true) send their quantized
    iterate, or the iterate itself in exact-communication mode
    (``quantizer`` None); adversaries send full precision unless
    ``adversary_quantizes`` is set.  An agent saturates when it quantizes
    and some coordinate of its iterate lies outside the quantizer range.
    """
    if quantizer is None:
        return iterates, np.zeros(iterates.shape[0], dtype=bool)
    quantizes = honest | adversary_quantizes
    buffer = np.where(quantizes[:, None], quantizer.quantize(iterates), iterates)
    saturated = quantizes & ~quantizer.in_range(iterates).all(axis=1)
    return buffer, saturated


def matrix_form_update(
    weights: np.ndarray,
    iterates: np.ndarray,
    broadcasts: np.ndarray,
    gradients: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Pre-projection update H = W X + (I - W)(X - Q) - alpha G."""
    mixing = weights @ broadcasts
    return iterates - broadcasts + mixing - alpha * gradients


def step(
    k: int,
    iterates: np.ndarray,
    broadcasts: np.ndarray,
    saturated: np.ndarray,
    honest: np.ndarray,
    attack_rows: np.ndarray,
    weights: np.ndarray,
    objective_rows: list,
    feasible: FeasibleSet,
    alpha: float,
    x_star: np.ndarray,
    subgrad_bound: float,
):
    """Advance the network one round; returns (next iterates, trace).

    ``attack_rows`` holds this round's attack e_i(k) per agent (zero rows
    for honest agents); ``objective_rows`` pairs each distinct objective
    with the index array of the agents that carry it.
    """
    n = iterates.shape[0]
    gradients = np.empty_like(iterates)
    for objective, rows in objective_rows:
        gradients[rows] = objective.subgradient(iterates[rows])

    h_attack_free = matrix_form_update(weights, iterates, broadcasts, gradients, alpha)
    h = h_attack_free + attack_rows
    xi = h - np.clip(h, feasible.lo, feasible.hi)
    next_iterates = h - xi

    delta_bar = float(np.mean(np.linalg.norm(iterates - broadcasts, axis=1)))
    xi_bar = xi.mean(axis=0)
    xi_bar_norm = float(np.linalg.norm(xi_bar))
    xi_attack_free = h_attack_free - np.clip(h_attack_free, feasible.lo, feasible.hi)
    xi_bar_attack_free_norm = float(np.linalg.norm(xi_attack_free.mean(axis=0)))
    lemma1_rhs = lemma1_bound(delta_bar, subgrad_bound, alpha, n)

    x_bar = iterates.mean(axis=0)
    x_bar_honest = iterates[honest].mean(axis=0)
    trace = IterationTrace(
        k=k,
        x_bar=x_bar,
        x_bar_next=next_iterates.mean(axis=0),
        err_all=float(np.linalg.norm(x_bar - x_star)),
        err_honest=float(np.linalg.norm(x_bar_honest - x_star)),
        per_agent_err=np.linalg.norm(iterates - x_star, axis=1),
        grad_mean=gradients.mean(axis=0),
        delta_bar=delta_bar,
        xi_bar=xi_bar,
        xi_bar_norm=xi_bar_norm,
        xi_bar_attack_free_norm=xi_bar_attack_free_norm,
        mean_attack=attack_rows.mean(axis=0),
        attack_norms=np.linalg.norm(attack_rows, axis=1),
        saturation_count=int(saturated.sum()),
        lemma1_rhs=lemma1_rhs,
        lemma1_ok=xi_bar_norm <= lemma1_rhs + LEMMA1_TOL,
    )
    return next_iterates, trace


def mean_recursion_residual(trace: IterationTrace, alpha: float) -> float:
    """Deviation from the exact mean-iterate bookkeeping identity.

    x_bar(k+1) = x_bar(k) - alpha * mean(g) - xi_bar(k) + mean(e); holds
    up to rounding for every run because the mixing matrix is doubly
    stochastic.
    """
    predicted = (
        trace.x_bar - alpha * trace.grad_mean - trace.xi_bar + trace.mean_attack
    )
    return float(np.max(np.abs(predicted - trace.x_bar_next)))


def _grouped(pairs) -> list:
    """(object, index array) per distinct object of (index, object) pairs,
    in order of first appearance; objects are told apart by identity."""
    groups: dict = {}
    for index, value in pairs:
        groups.setdefault(id(value), (value, []))[1].append(index)
    return [(value, np.array(rows, dtype=np.intp)) for value, rows in groups.values()]


def _attack_schedule(attacks: dict, n: int, iterations: int, p: int, seed: int):
    """Every attack of one run, as (fixed rows, keyed agents, keyed table).

    Zero and constant rows do not change with k: they fill the (n, p)
    ``fixed`` array once.  Each distinct uniform policy, reseeded for the
    run, draws all rounds of its adversaries in one
    :func:`adversary.attack_table` call; the tables stack into one
    (K, len(keyed), p) array.  Round k's attack rows are ``fixed`` with
    ``table[k]`` written at the rows ``keyed``.
    """
    fixed = np.zeros((n, p))
    keyed, tables = [np.empty(0, dtype=np.intp)], [np.empty((iterations, 0, p))]
    for policy, agents in _grouped(attacks.items()):
        policy = adv.reseed(policy, seed)
        if policy.kind == "uniform":
            keyed.append(agents)
            tables.append(adv.attack_table(policy, agents, range(iterations), p))
        else:
            fixed[agents] = adv.attack_table(policy, agents, [0], p)[0]
    return fixed, np.concatenate(keyed), np.concatenate(tables, axis=1)


def initial_iterates(
    n: int, feasible: FeasibleSet, seed: int, explicit=None
) -> np.ndarray:
    """Starting points: explicit per-agent values, or uniform draws in the box."""
    if explicit is not None:
        x0 = np.asarray(explicit, dtype=float)
        if x0.shape != (n, feasible.dimension):
            raise ValueError(
                f"explicit init has shape {x0.shape}, expected {(n, feasible.dimension)}"
            )
        if not np.all((x0 >= feasible.lo) & (x0 <= feasible.hi)):
            raise ValueError("explicit initial point outside the feasible set")
        return x0.copy()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.uniform(feasible.lo, feasible.hi, size=(n, feasible.dimension))


def run(
    attacks: dict,
    quantizer: UniformQuantizer | None,
    topology,
    objectives,
    feasible: FeasibleSet,
    alpha: float,
    iterations: int,
    x_star: np.ndarray,
    seed: int = 0,
    explicit_init=None,
    adversary_quantizes: bool = False,
) -> RunResult:
    """Execute a full deterministic run of ``iterations`` rounds.

    ``attacks`` maps each adversarial agent to its :class:`AttackPolicy`;
    every other agent is honest.  ``quantizer`` encodes every broadcast
    (its interval length may be an (n, 1) column, one per agent), or is
    None for exact communication.

    Raises :class:`BoundViolationError` at the first round whose
    mean-iterate identity fails or yields NaN.  Projection-error bound
    failures do not raise: they are recorded per round in the traces
    (``lemma1_ok``) and surface through ``unsaturated_lemma1_violations``.
    """
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")
    n = topology.n
    if len(objectives) != n:
        raise ValueError("objectives length must match the agent count")
    if alpha <= 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    honest = np.ones(n, dtype=bool)
    honest[list(attacks)] = False
    if not honest.any():
        raise ValueError("at least one honest agent is required")

    subgrad_bound = suite_subgrad_bound(objectives)
    tolerance = MEAN_RECURSION_TOL * max(
        1.0,
        feasible.corner_norm(),
        alpha * subgrad_bound,
        *(adv.max_attack_norm(policy, feasible.dimension) for policy in attacks.values()),
    )
    fixed_attacks, keyed, keyed_attacks = _attack_schedule(
        attacks, n, iterations, feasible.dimension, seed
    )
    objective_rows = _grouped(enumerate(objectives))
    iterates = initial_iterates(n, feasible, seed, explicit_init)
    traces = []
    for k in range(iterations):
        broadcasts, saturated = broadcast_phase(
            iterates, quantizer, honest, adversary_quantizes
        )
        attack_rows = fixed_attacks.copy()
        attack_rows[keyed] = keyed_attacks[k]
        iterates, trace = step(
            k,
            iterates,
            broadcasts,
            saturated,
            honest,
            attack_rows,
            topology.weights,
            objective_rows,
            feasible,
            alpha,
            x_star,
            subgrad_bound,
        )
        residual = mean_recursion_residual(trace, alpha)
        if not residual <= tolerance:  # NaN fails too
            raise BoundViolationError(
                f"mean-iterate bookkeeping identity off by {residual} at k={k}"
            )
        traces.append(trace)

    final_all = iterates.mean(axis=0)
    final_honest = iterates[honest].mean(axis=0)
    return RunResult(
        traces=traces,
        final_iterates=iterates,
        x_star=x_star,
        final_err_all=float(np.linalg.norm(final_all - x_star)),
        final_err_honest=float(np.linalg.norm(final_honest - x_star)),
        subgrad_bound=subgrad_bound,
        alpha=alpha,
    )
