"""Synchronous simulation of the quantized distributed subgradient protocol.

Each round: every agent broadcasts (honest agents send their quantized
iterate, adversaries their full-precision one), then every agent mixes
the received values, takes a subgradient step, adversaries add their
perturbation, and the result is projected back onto the feasible set.

A run is split in two.  The round loop only advances the state, writing
each round's iterates, broadcasts, gradients, attack rows, attack-free
update and projection residual into block buffers of at most
``BLOCK_BYTES`` each, all views of one workspace allocated once per run;
a round's residual row holds its temporaries until ``step`` writes the
residual there.  The loop allocates nothing per round when each
objective's agents are contiguous: ``broadcast_phase``,
``matrix_form_update`` and ``step`` write into the caller's buffers, the
subgradient writes into the round's gradient rows through its ``out``
parameter (an array it returns instead is copied there), and the box
bounds are two (n, p) rows of the workspace, which ``clip`` reads without
the buffer it allocates for a (p,) bound.  An
objective whose agents are not contiguous is handed a row copy and
returns a new array, which is scattered into the gradient rows.
After every block, each column of the run's :class:`Trace` is filled by
one array reduction over the block, the quantizer saturation test
included, and the mean-iterate invariant is checked there.  The block
buffers are bounded; what grows with the iteration count is the trace
columns and, under a uniform attack, the keyed attack table, which
:func:`_attack_schedule` draws for all K rounds up front together with
its uint64 temporaries (n = 10, p = 1, 7 uniform adversaries, a repeated
run under tracemalloc: a 1.1 MB peak against 0.25 MB of columns at
K = 1000, 8.3 MB against 2.0 MB at K = 8000).

A single run is sequential and fully deterministic given its seed; runs
share no mutable state, so seed sweeps may execute concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import adversary as adv
from .bounds import lemma1_bound
from .objective import FeasibleSet, suite_subgrad_bound
from .operand import operand
from .quantizer import UniformQuantizer

# Tolerance of the mean-iterate bookkeeping identity; it is an exact
# algebraic consequence of the update, so only rounding noise is allowed.
# Rounding grows with the size of the identity's terms, so a run scales it
# by the largest bound on them when that exceeds 1.
MEAN_RECURSION_TOL = 1e-10

# Rounding slack of the Lemma 1 comparison ``xi_bar_norm <= lemma1_rhs``.
LEMMA1_TOL = 1e-12

# Size of one (rounds, n, p) block buffer: a block holds
# max(1, BLOCK_BYTES // (8 n p)) rounds, so the buffers stay bounded
# however many rounds a run has.  Each reduction over a block allocates
# a temporary as large as a buffer; small blocks keep them in cache.
BLOCK_BYTES = 1 << 18


class BoundViolationError(RuntimeError):
    """An invariant check failed during a run: the mean-iterate identity
    was off by more than its rounding tolerance, or a state went NaN."""


@dataclass(eq=False)
class Trace:
    """Everything the bound checks consume, one row per round k = 0..K-1.

    Columns are (K,) scalars, (K, n) per-agent values and (K, p) vectors.
    The columns of a state, ``x_bar``, ``err_all``, ``err_honest`` and
    ``per_agent_err``, have K+1 rows: row k is the state entering round k
    and row K the final one.  ``delta_bar`` is the mean of the per-agent
    quantization error magnitudes, and ``saturation_count`` the number of
    quantizing agents with some coordinate of their entering iterate
    outside the quantizer range (NaN counts as outside; always 0 in exact
    mode).  Like every column, it is reduced once per block of rounds.

    ``xi_bar`` is the mean projection residual of the update as run, with
    each adversary's attack ``e_i(k)`` inside the projected point.
    ``xi_bar_attack_free_norm`` is the norm of the mean residual of the
    same update without the attacks, ``mean_i[h_i - P_X(h_i)]`` with
    ``h_i`` taken before ``e_i`` is added: the quantity Lemma 1 bounds by
    ``lemma1_rhs``.  ``lemma1_ok`` compares the *attacked* residual
    ``xi_bar_norm`` with that attack-free bound, so it records the known
    gap: it can fail at an unsaturated step because adversaries clipped
    back into the box add up to ``mean_i ||e_i(k)||`` to the residual,
    a term the bound leaves out.  ``mean_attack_norm`` is that term,
    ``mean_i ||e_i(k)||`` over all n agents (an honest row is zero).
    """

    x_bar: np.ndarray
    err_all: np.ndarray
    err_honest: np.ndarray
    per_agent_err: np.ndarray
    grad_mean: np.ndarray
    delta_bar: np.ndarray
    xi_bar: np.ndarray
    xi_bar_norm: np.ndarray
    xi_bar_attack_free_norm: np.ndarray
    mean_attack: np.ndarray
    mean_attack_norm: np.ndarray
    saturation_count: np.ndarray
    lemma1_rhs: np.ndarray
    lemma1_ok: np.ndarray

    @classmethod
    def empty(cls, iterations: int, n: int, p: int) -> Trace:
        """Unfilled columns for a run of ``iterations`` rounds."""
        k = iterations
        return cls(
            x_bar=np.empty((k + 1, p)),
            err_all=np.empty(k + 1),
            err_honest=np.empty(k + 1),
            per_agent_err=np.empty((k + 1, n)),
            grad_mean=np.empty((k, p)),
            delta_bar=np.empty(k),
            xi_bar=np.empty((k, p)),
            xi_bar_norm=np.empty(k),
            xi_bar_attack_free_norm=np.empty(k),
            mean_attack=np.empty((k, p)),
            mean_attack_norm=np.empty(k),
            saturation_count=np.empty(k, dtype=np.intp),
            lemma1_rhs=np.empty(k),
            lemma1_ok=np.empty(k, dtype=bool),
        )

    def __len__(self) -> int:
        """Number of rounds recorded."""
        return len(self.delta_bar)

    def clear(self) -> None:
        """Drop every row, releasing the columns' memory."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name)[:0].copy())


@dataclass(frozen=True)
class RunResult:
    traces: Trace
    final_iterates: np.ndarray

    @property
    def unsaturated_lemma1_violations(self) -> list:
        """Bound failures at rounds with no quantizer saturation at all."""
        t = self.traces
        return np.flatnonzero(~t.lemma1_ok & (t.saturation_count == 0)).tolist()


def broadcast_phase(
    iterates: np.ndarray,
    quantizer: UniformQuantizer | None,
    full_precision: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Per-agent broadcast values, the (n, p) buffer every agent receives.

    Every agent sends its quantized iterate except the rows where the
    (n, 1) boolean column ``full_precision`` is true, which send the
    iterate itself; with ``quantizer`` None (exact communication) every
    agent does.  Saturation is not tested here: the trace's
    ``saturation_count`` tests a whole block of rounds at once.

    The result is written into the (n, p) buffer ``out`` and returned;
    ``scratch`` is an (n, p) buffer the quantizer may overwrite.  ``out``
    must not alias ``iterates``, whose full-precision rows are copied in
    after the quantizer has written.
    """
    if quantizer is None:
        out[...] = iterates
    else:
        quantizer.quantize(iterates, out=out, scratch=scratch)
        np.copyto(out, iterates, where=full_precision)
    return out


def matrix_form_update(
    weights: np.ndarray,
    iterates: np.ndarray,
    broadcasts: np.ndarray,
    gradients: np.ndarray,
    alpha: float | np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Pre-projection update H = W X + (I - W)(X - Q) - alpha G.

    Evaluated as ``((X - Q) + W Q) - alpha G`` into the (n, p) buffer
    ``out``, which is returned; ``scratch`` is an (n, p) buffer that holds
    ``W Q`` and then ``alpha G``; neither may alias an input or the
    other.  ``alpha`` may be a float or a 0-d float64 array, the cheaper
    operand, with the same result.
    """
    mixing = np.matmul(weights, broadcasts, scratch)
    np.subtract(iterates, broadcasts, out)
    np.add(out, mixing, out)
    return np.subtract(out, np.multiply(alpha, gradients, scratch), out)


def step(
    iterates: np.ndarray,
    broadcasts: np.ndarray,
    attack_rows: np.ndarray,
    weights: np.ndarray,
    objective_rows: list,
    bounds: tuple,
    alpha: float | np.ndarray,
    out: tuple,
):
    """Advance the network one round.

    Returns (next iterates, gradients, attack-free update ``H_af``,
    projection residual ``xi``): with ``h = H_af + attack_rows``, ``xi``
    is ``h - clip(h)`` and the next iterates are ``h - xi``.
    ``attack_rows`` holds this round's attack e_i(k) per agent (zero rows
    for honest agents); ``objective_rows`` pairs each distinct objective
    with the agents that carry it, as an index array or a slice: a slice's
    subgradients are written into their gradient rows through ``out`` (or
    copied there, if the objective returns another array), an index
    array's (whose rows are copies) are returned and scattered.
    ``bounds`` is the box's (lo, hi), arrays that broadcast against the
    state; the run passes them as (n, p) arrays, which ``clip`` reads
    without the buffer it allocates for a (p,) bound.

    ``out`` is four (n, p) buffers, (next iterates, gradients, ``H_af``,
    ``xi``), which receive the results and are returned; ``xi`` holds the
    update's temporaries before the residual.  No buffer may alias an
    input or another buffer.
    """
    next_iterates, gradients, h_attack_free, xi = out
    for objective, rows in objective_rows:
        if isinstance(rows, slice):
            rows_out = gradients[rows]
            result = objective.subgradient(iterates[rows], out=rows_out)
            if result is not rows_out:  # an objective that ignored ``out``
                rows_out[...] = result
        else:
            gradients[rows] = objective.subgradient(iterates[rows])
    matrix_form_update(
        weights, iterates, broadcasts, gradients, alpha, out=h_attack_free, scratch=xi
    )
    h = np.add(h_attack_free, attack_rows, next_iterates)
    # the projection stays clip, not np.maximum/np.minimum, which can give
    # the other signed zero at a zero bound: np.clip(-0.0, 0.0, 1.0) is
    # -0.0 where np.maximum(-0.0, 0.0) is 0.0
    h.clip(*bounds, out=xi)
    np.subtract(h, xi, xi)
    # h - xi, not the clipped point: far outside the box they differ
    np.subtract(h, xi, next_iterates)
    return next_iterates, gradients, h_attack_free, xi


def _norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a 2-D array, bit for bit.

    ``norm`` of a vector is a dot product; ``norm(v, axis=1)`` sums the
    squares in another order and differs in the last bit at p > 1.  A
    (1, p) @ (p, 1) matmul per row is that same dot product.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _record_block(
    trace: Trace,
    start: int,
    iterates: np.ndarray,
    broadcasts: np.ndarray,
    gradients: np.ndarray,
    h_attack_free: np.ndarray,
    xi: np.ndarray,
    attacks: np.ndarray,
    honest: np.ndarray,
    quantizer: UniformQuantizer | None,
    quantizes: np.ndarray,
    x_star: np.ndarray,
    bounds: np.ndarray,
    subgrad_bound: float,
    alpha: float,
) -> None:
    """Fill the trace rows of the rounds start..start+m-1 of one block.

    ``iterates`` holds the m+1 states of the block, the others the m
    rounds' (n, p) rows, ``xi`` the projection residuals ``step``
    recorded, ``bounds`` the box's (lo, hi) that ``step`` clipped with.
    ``x_bar`` and the mean errors get rows start..start+m; the
    next block writes the last one again, with the same value.  Each
    column is one reduction over the block, bit for bit the per-round
    value: axis means and row norms reduce each round's rows in the same
    order as a single (n, p) array would.  ``quantizes`` marks the agents
    whose broadcast is quantized.  In exact mode (``quantizer`` None) every
    broadcast is its agent's iterate, so ``delta_bar`` is 0 without a norm.
    """
    m = len(gradients)
    rows = slice(start, start + m)
    entering = iterates[:-1]
    x_bar = iterates.mean(axis=1)
    states = slice(start, start + m + 1)
    trace.x_bar[states] = x_bar
    trace.err_all[states] = _norms(x_bar - x_star)
    trace.err_honest[states] = _norms(iterates[:, honest].mean(axis=1) - x_star)
    trace.per_agent_err[rows] = np.linalg.norm(entering - x_star, axis=2)
    trace.grad_mean[rows] = gradients.mean(axis=1)
    if quantizer is None:
        delta_bar = np.zeros(m)
        trace.saturation_count[rows] = 0
    else:
        delta_bar = np.linalg.norm(entering - broadcasts, axis=2).mean(axis=1)
        saturated = quantizes & ~quantizer.in_range(entering).all(axis=2)
        trace.saturation_count[rows] = saturated.sum(axis=1)
    trace.delta_bar[rows] = delta_bar

    xi_bar = xi.mean(axis=1)
    xi_bar_norm = _norms(xi_bar)
    xi_attack_free = h_attack_free - np.clip(h_attack_free, *bounds)
    trace.xi_bar[rows] = xi_bar
    trace.xi_bar_norm[rows] = xi_bar_norm
    trace.xi_bar_attack_free_norm[rows] = _norms(xi_attack_free.mean(axis=1))
    trace.mean_attack[rows] = attacks.mean(axis=1)
    trace.mean_attack_norm[rows] = np.linalg.norm(attacks, axis=2).mean(axis=1)

    lemma1_rhs = lemma1_bound(delta_bar, subgrad_bound, alpha, iterates.shape[1])
    trace.lemma1_rhs[rows] = lemma1_rhs
    trace.lemma1_ok[rows] = xi_bar_norm <= lemma1_rhs + LEMMA1_TOL


def mean_recursion_residual(
    trace: Trace, alpha: float, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Per-round deviation from the exact mean-iterate bookkeeping identity.

    x_bar(k+1) = x_bar(k) - alpha * mean(g) - xi_bar(k) + mean(e); holds
    up to rounding for every run because the mixing matrix is doubly
    stochastic.  Covers rounds start..stop-1 (default: all).
    """
    stop = len(trace) if stop is None else stop
    rows = slice(start, stop)
    predicted = (
        trace.x_bar[rows] - alpha * trace.grad_mean[rows] - trace.xi_bar[rows]
        + trace.mean_attack[rows]
    )
    return np.max(np.abs(predicted - trace.x_bar[start + 1 : stop + 1]), axis=1)


def _grouped(pairs) -> list:
    """(object, index array) per distinct object of (index, object) pairs,
    in order of first appearance; objects are told apart by identity."""
    groups: dict = {}
    for index, value in pairs:
        groups.setdefault(id(value), (value, []))[1].append(index)
    return [(value, np.array(rows, dtype=np.intp)) for value, rows in groups.values()]


def _as_slice(rows: np.ndarray):
    """``rows`` as a basic slice when it is one contiguous ascending run,
    so indexing with it makes views, not copies; else ``rows`` itself."""
    if rows.size and np.array_equal(rows, np.arange(rows[0], rows[-1] + 1)):
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


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

    Raises :class:`BoundViolationError` for the first round whose
    mean-iterate identity fails or yields NaN, once its block is reduced.
    Projection-error bound failures do not raise: they are recorded per
    round in the trace (``lemma1_ok``) and surface through
    ``unsaturated_lemma1_violations``.
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

    p = feasible.dimension
    subgrad_bound = suite_subgrad_bound(objectives)
    tolerance = MEAN_RECURSION_TOL * max(
        1.0, feasible.corner_norm(), alpha * subgrad_bound, adv.attack_norm_bound(attacks, p)
    )
    fixed_attacks, keyed, keyed_attacks = _attack_schedule(
        attacks, n, iterations, p, seed
    )
    objective_rows = [
        (objective, _as_slice(rows)) for objective, rows in _grouped(enumerate(objectives))
    ]
    trace = Trace.empty(iterations, n, p)

    block = min(iterations, max(1, BLOCK_BYTES // (8 * n * p)))
    # one allocation for all six buffers and the box bounds as (n, p) rows:
    # freeing it lifts glibc's mmap threshold above its size, so later runs
    # take it and the block temporaries from the heap, not from fresh
    # page-faulting mappings
    workspace = np.empty((6 * block + 3, n, p))
    states = workspace[: block + 1]
    broadcasts, gradients, h_attack_free, xi, attack_rows = workspace[
        block + 1 : 6 * block + 1
    ].reshape(5, block, n, p)
    bounds = workspace[6 * block + 1 :]
    bounds[0], bounds[1] = feasible.lo, feasible.hi
    quantizes = honest | adversary_quantizes
    full_precision = ~quantizes[:, None]
    weights = topology.weights
    alpha_operand = operand(alpha)
    states[0] = initial_iterates(n, feasible, seed, explicit_init)
    for start in range(0, iterations, block):
        m = min(block, iterations - start)
        attack_rows[:m] = fixed_attacks
        attack_rows[:m, keyed] = keyed_attacks[start : start + m]
        rounds = zip(
            states[:m], states[1 : m + 1], broadcasts[:m], gradients[:m],
            h_attack_free[:m], xi[:m], attack_rows[:m],
        )
        for state, next_state, sent, gradient, h_af, xi_row, attack in rounds:
            # the round's residual row is the quantizer's scratch before it
            broadcast_phase(state, quantizer, full_precision, out=sent, scratch=xi_row)
            step(
                state,
                sent,
                attack,
                weights,
                objective_rows,
                bounds,
                alpha_operand,
                out=(next_state, gradient, h_af, xi_row),
            )
        _record_block(
            trace,
            start,
            states[: m + 1],
            broadcasts[:m],
            gradients[:m],
            h_attack_free[:m],
            xi[:m],
            attack_rows[:m],
            honest,
            quantizer,
            quantizes,
            x_star,
            bounds,
            subgrad_bound,
            alpha,
        )
        residual = mean_recursion_residual(trace, alpha, start, start + m)
        failed = np.flatnonzero(~(residual <= tolerance))  # NaN fails too
        if failed.size:
            j = int(failed[0])
            raise BoundViolationError(
                f"mean-iterate bookkeeping identity off by {float(residual[j])} "
                f"at k={start + j}"
            )
        states[0] = states[m]

    final = states[0].copy()
    # row K is each agent's per-vector norm, rows k < K the blocks'
    # norm(..., axis=2): the two differ in the last bit at p > 1, and each
    # is what the CSV has always written for its rows
    trace.per_agent_err[iterations] = _norms(final - x_star)
    return RunResult(traces=trace, final_iterates=final)
