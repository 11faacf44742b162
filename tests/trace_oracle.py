"""Per-round reference for the engine's columnar trace.

One round at a time, as the engine ran before its trace became columns:
each round's trace quantities are reduced from that round's (n, p) rows
alone and kept as one :class:`IterationTrace` per round.  The engine's
block reductions must give every column bit for bit.  Saturation flags
come from this round's own ``in_range`` test, not from the engine.  The
broadcast and the update are written out here from the quantizer's
per-call reference and the update's formula, so a fault in the engine's
``broadcast_phase`` or ``matrix_form_update`` shows as a column mismatch.
The update takes the engine's rule for its mixing form: a complete graph
of at least ``engine.RANK_ONE_AGENTS`` agents mixes as c times the sum of
the broadcasts plus (d - c) times each one, any other graph as W Q.
"""

from dataclasses import dataclass

import numpy as np
from quantizer_oracle import reference_quantize

from disopt import adversary, engine
from disopt.bounds import lemma1_bound


@dataclass(frozen=True)
class IterationTrace:
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
    mean_attack_norm: float
    saturation_count: int
    lemma1_rhs: float
    lemma1_ok: bool


def state_columns(iterates, honest, x_star) -> dict:
    """The state columns' row for one (n, p) state, the final one included."""
    x_bar = iterates.mean(axis=0)
    return dict(
        x_bar=x_bar,
        err_all=float(np.linalg.norm(x_bar - x_star, axis=-1)),
        err_honest=float(np.linalg.norm(iterates[honest].mean(axis=0) - x_star, axis=-1)),
        per_agent_err=np.linalg.norm(iterates - x_star, axis=-1),
    )


def mixed_update(iterates, broadcasts, gradients, weights, edges, alpha):
    """The attack-free update X + (W - I) Q - alpha G in the form the
    engine's rule picks from the graph's size and edge count."""
    n = len(weights)
    if n >= engine.RANK_ONE_AGENTS and len(edges) == n * (n - 1) // 2:
        c = weights[0, 1]
        column = np.diag(weights)[:, None] - c - 1.0
        total = np.einsum("ij->j", broadcasts)  # agents added in order
        return iterates + column * broadcasts + c * total - alpha * gradients
    return iterates - broadcasts + weights @ broadcasts - alpha * gradients


def reference_step(
    k, iterates, broadcasts, saturated, honest, attack_rows, topology,
    objective, feasible, alpha,
):
    """Advance one round; returns (next iterates, that round's trace)."""
    n = iterates.shape[0]
    gradients = objective.subgradient(iterates)  # a new array, not through ``out``

    h_attack_free = mixed_update(
        iterates, broadcasts, gradients, topology.weights, topology.edges, alpha
    )
    h = h_attack_free + attack_rows
    xi = h - np.clip(h, feasible.lo, feasible.hi)
    next_iterates = h - xi

    delta_bar = float(np.mean(np.linalg.norm(iterates - broadcasts, axis=-1)))
    xi_bar = xi.mean(axis=0)
    xi_bar_norm = float(np.linalg.norm(xi_bar, axis=-1))
    xi_attack_free = h_attack_free - np.clip(h_attack_free, feasible.lo, feasible.hi)
    lemma1_rhs = lemma1_bound(delta_bar, objective.subgrad_bound, alpha, n)

    trace = IterationTrace(
        k=k,
        **state_columns(iterates, honest, objective.x_star),
        x_bar_next=next_iterates.mean(axis=0),
        grad_mean=gradients.mean(axis=0),
        delta_bar=delta_bar,
        xi_bar=xi_bar,
        xi_bar_norm=xi_bar_norm,
        xi_bar_attack_free_norm=float(np.linalg.norm(xi_attack_free.mean(axis=0), axis=-1)),
        mean_attack=attack_rows.mean(axis=0),
        mean_attack_norm=float(np.mean(np.linalg.norm(attack_rows, axis=-1))),
        saturation_count=int(saturated.sum()),
        lemma1_rhs=lemma1_rhs,
        lemma1_ok=xi_bar_norm <= lemma1_rhs + engine.LEMMA1_TOL,
    )
    return next_iterates, trace


def reference_run(
    attacks, quantizer, topology, objective, feasible, alpha, iterations,
    seed=0, explicit_init=None, adversary_quantizes=False,
):
    """(per-round traces, final iterates) of the run ``engine.run`` makes.

    Raises ``BoundViolationError`` at the first round whose mean-iterate
    identity fails, before any later round runs.
    """
    n, p = topology.n, feasible.dimension
    honest = np.ones(n, dtype=bool)
    honest[list(attacks)] = False
    tolerance = engine.MEAN_RECURSION_TOL * max(
        1.0,
        feasible.corner_norm(),
        alpha * objective.subgrad_bound,
        *(adversary.max_attack_norm(policy, p) for policy in attacks.values()),
    )
    # each adversary's rows alone, reseeded and drawn for every round
    attack_table = np.zeros((iterations, n, p))
    for agent, policy in attacks.items():
        policy = adversary.reseed(policy, seed)
        rows = adversary.attack_table(policy, [agent], range(iterations), p)
        attack_table[:, agent] = rows[:, 0]
    iterates = engine.initial_iterates(n, feasible, seed, explicit_init)
    traces = []
    quantizes = honest | adversary_quantizes
    for k in range(iterations):
        broadcasts = iterates
        saturated = np.zeros(n, dtype=bool)
        if quantizer is not None:
            quantized = reference_quantize(quantizer, iterates)
            broadcasts = np.where(quantizes[:, None], quantized, iterates)
            saturated = quantizes & ~quantizer.in_range(iterates).all(axis=1)
        attack_rows = attack_table[k]
        iterates, trace = reference_step(
            k, iterates, broadcasts, saturated, honest, attack_rows, topology,
            objective, feasible, alpha,
        )
        predicted = trace.x_bar - alpha * trace.grad_mean - trace.xi_bar + trace.mean_attack
        residual = float(np.max(np.abs(predicted - trace.x_bar_next)))
        if not residual <= tolerance:
            raise engine.BoundViolationError(
                f"mean-iterate bookkeeping identity off by {residual} at k={k}"
            )
        traces.append(trace)
    return traces, iterates


def reference_columns(traces, final, honest, x_star) -> dict:
    """The per-round traces stacked into the engine's ``Trace`` columns,
    the columns of a state with a row K from the final iterates."""
    columns = {
        name: [getattr(t, name) for t in traces]
        for name in IterationTrace.__dataclass_fields__
        if name not in ("k", "x_bar_next")
    }
    for name, value in state_columns(final, honest, x_star).items():
        columns[name].append(value)
    return {name: np.array(column) for name, column in columns.items()}
