"""Synchronous simulation of the quantized distributed subgradient protocol.

Each round: every agent broadcasts (honest agents send their quantized
iterate, adversaries their full-precision one), then every agent mixes
the received values, takes a subgradient step, adversaries add their
perturbation, and the result is projected back onto the feasible set.

A run is split by what its seed changes.  :func:`plan` validates a
config's inputs once and fixes everything its seeds share in a
:class:`RunPlan`.  It holds only O(n + p) data of its own, read-only, so
one plan per sweep point stays small for a whole seed-major sweep; every
(n, p) and (K, ...) array is built by :func:`run`, which does only the
work of one seed.  Constants that meet the state in a ufunc are 0-d
operands where their entries are bit-equal (the step size, the
quantizer's midpoint, a constant x* in the block reductions), the form
numpy serves without its broadcasting iterator, with every result bit for
bit the same.

Within a run, the round loop only advances the state, writing each
round's iterates, broadcasts, gradients, attack rows, attack-free update
and projection residual into block buffers of at most ``BLOCK_BYTES``
each, all views of one workspace allocated once per run.  The network
has one objective, which maps the whole (n, p) state to its gradients in
one call; a round allocates nothing when it honours ``subgradient``'s
``out``.  A round is four calls, each through its module or class name:
``broadcast_phase`` (one ``UniformQuantizer.quantize``) and ``step``
(one ``matrix_form_update``), kept apart because
``bench/tracing.py`` wraps each and divides per-round metrics by their
counts.  The projection is numpy's ``clip`` ufunc, called directly, not
through ``ndarray.clip``'s Python wrapper.  After every block, each
column of the run's :class:`Trace` is filled by one array reduction over
the block, and the mean-iterate invariant is checked there.  Each attack
group of the plan reaches a block as its agents' rows of one (K, A, p)
:func:`adversary.attack_table` (a constant policy's is a broadcast view
of its one row), written into the attack buffer, which is zeroed once per
run.  The block buffers are bounded; what grows with the iteration count
is the trace columns and a uniform attack's keyed table, drawn for all K
rounds at once.

A single run is sequential and fully deterministic given its seed.  Runs
share their plan, read-only, and one more thing: inside an :func:`adversary.sharing_streams`
block, which the harness holds for one seed loop (one CLI invocation),
runs whose keyed attack streams coincide read the one stream drawn first,
kept until another stream is drawn or the block ends.  The block belongs
to its thread (a context variable), so runs in separate threads share no
state and may execute concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from numpy._core.umath import clip as _clip

from . import adversary as adv
from .bounds import lemma1_bound
from .objective import FeasibleSet, LocalObjective
from .operand import constant_operand, operand
from .quantizer import UniformQuantizer

# the round's ufuncs, bound once: a module global is one lookup, not two
_add, _subtract, _multiply, _matmul, _copyto = (
    np.add, np.subtract, np.multiply, np.matmul, np.copyto
)

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
    was off by more than its rounding tolerance, or a state went NaN.
    The message names k; the harness sets ``scenario`` and ``seed``."""

    scenario: str | None = None
    seed: int | None = None


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
        quantizer.quantize(iterates, out, scratch)
        _copyto(out, iterates, where=full_precision)
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
    mixing = _matmul(weights, broadcasts, scratch)
    _subtract(iterates, broadcasts, out)
    _add(out, mixing, out)
    return _subtract(out, _multiply(alpha, gradients, scratch), out)


def step(
    iterates: np.ndarray,
    broadcasts: np.ndarray,
    attack_rows: np.ndarray,
    weights: np.ndarray,
    objective: LocalObjective,
    bounds: tuple,
    alpha: float | np.ndarray,
    out: tuple,
):
    """Advance the network one round.

    Returns (next iterates, gradients, attack-free update ``H_af``,
    projection residual ``xi``): with ``h = H_af + attack_rows``, ``xi``
    is ``h - clip(h)`` and the next iterates are ``h - xi``.
    ``attack_rows`` holds this round's attack e_i(k) per agent (zero rows
    for honest agents).  The network ``objective`` reads the whole state
    and writes its subgradients into the gradient buffer through ``out``
    (or they are copied there, if it returns another array).  ``bounds``
    is the box's (lo, hi), arrays that broadcast against the state; the
    run passes two (n, p) arrays, which ``clip`` reads without the buffer
    it allocates for a (p,) bound.

    ``out`` is four (n, p) buffers, (next iterates, gradients, ``H_af``,
    ``xi``), which receive the results and are returned; ``xi`` holds the
    update's temporaries before the residual.  No buffer may alias an
    input or another buffer.
    """
    next_iterates, gradients, h_attack_free, xi = out
    result = objective.subgradient(iterates, out=gradients)
    if result is not gradients:  # an objective that ignored ``out``
        gradients[...] = result
    matrix_form_update(weights, iterates, broadcasts, gradients, alpha, h_attack_free, xi)
    h = _add(h_attack_free, attack_rows, next_iterates)
    # the projection is the clip ufunc: one call where np.maximum and
    # np.minimum would be two
    _clip(h, *bounds, xi)
    _subtract(h, xi, xi)
    # h - xi, not the clipped point: far outside the box they differ
    _subtract(h, xi, next_iterates)
    return out


def _norms(x: np.ndarray) -> np.ndarray:
    """Row norms over the last axis: ``np.linalg.norm(x, axis=-1)``'s own
    formula for a float array, without its Python wrapper and its
    ``conj()`` copy, so bit for bit the same."""
    return np.sqrt(np.add.reduce(np.multiply(x, x), axis=-1))


def _means(x: np.ndarray) -> np.ndarray:
    """Means over axis 1: ``x.mean(axis=1)``'s own formula (a sum over the
    axis divided by its length) without its Python wrapper, bit for bit."""
    return np.add.reduce(x, axis=1) / x.shape[1]


def _record_block(
    trace: Trace,
    start: int,
    iterates: np.ndarray,
    broadcasts: np.ndarray,
    gradients: np.ndarray,
    h_attack_free: np.ndarray,
    xi: np.ndarray,
    attacks: np.ndarray,
    bounds: tuple,
    plan: RunPlan,
) -> None:
    """Fill the trace rows of the rounds start..start+m-1 of one block.

    ``iterates`` holds the m+1 states of the block, the others the m
    rounds' (n, p) rows, ``xi`` the projection residuals ``step``
    recorded, ``bounds`` the box's (lo, hi) that ``step`` clipped with.
    The columns of a state get rows start..start+m; the next block
    writes the last one again, with the same value.  Each column is one
    reduction over the block, bit for bit the per-round value: axis means
    (:func:`_means`) and row norms (:func:`_norms`) reduce each round's
    rows in the same order as a single (n, p) array would.  The plan's
    ``quantizes`` marks the agents whose broadcast is quantized.  In exact
    mode (no quantizer) every broadcast is its agent's iterate, so
    ``delta_bar`` is 0 without a norm.
    """
    quantizer, x_star = plan.quantizer, constant_operand(plan.objective.x_star)
    m = len(gradients)
    rows = slice(start, start + m)
    entering = iterates[:-1]
    x_bar = _means(iterates)
    states = slice(start, start + m + 1)
    trace.x_bar[states] = x_bar
    trace.err_all[states] = _norms(x_bar - x_star)
    trace.err_honest[states] = _norms(_means(iterates[:, plan.honest]) - x_star)
    trace.per_agent_err[states] = _norms(iterates - x_star)
    trace.grad_mean[rows] = _means(gradients)
    if quantizer is None:
        delta_bar = np.zeros(m)
        trace.saturation_count[rows] = 0
    else:
        delta_bar = _means(_norms(entering - broadcasts))
        saturated = plan.quantizes & ~quantizer.in_range(entering).all(axis=2)
        trace.saturation_count[rows] = saturated.sum(axis=1)
    trace.delta_bar[rows] = delta_bar

    xi_bar = _means(xi)
    xi_bar_norm = _norms(xi_bar)
    xi_attack_free = h_attack_free - np.clip(h_attack_free, *bounds)
    trace.xi_bar[rows] = xi_bar
    trace.xi_bar_norm[rows] = xi_bar_norm
    trace.xi_bar_attack_free_norm[rows] = _norms(_means(xi_attack_free))
    trace.mean_attack[rows] = _means(attacks)
    trace.mean_attack_norm[rows] = _means(_norms(attacks))

    lemma1_rhs = lemma1_bound(delta_bar, plan.objective.subgrad_bound, plan.alpha, plan.n)
    trace.lemma1_rhs[rows] = lemma1_rhs
    trace.lemma1_ok[rows] = xi_bar_norm <= lemma1_rhs + LEMMA1_TOL


def mean_recursion_residual(
    trace: Trace, alpha: float | np.ndarray, start: int = 0, stop: int | None = None
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


def _checked_init(explicit, n: int, feasible: FeasibleSet) -> None:
    x0 = np.asarray(explicit, dtype=float)
    if x0.shape != (n, feasible.dimension):
        raise ValueError(
            f"explicit init has shape {x0.shape}, expected {(n, feasible.dimension)}"
        )
    if not np.all((x0 >= feasible.lo) & (x0 <= feasible.hi)):
        raise ValueError("explicit initial point outside the feasible set")


def initial_iterates(
    n: int, feasible: FeasibleSet, seed: int, explicit=None
) -> np.ndarray:
    """Starting points: a copy of explicit per-agent values, which
    :func:`plan` has checked, or uniform draws in the box."""
    if explicit is not None:
        return np.array(explicit, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.uniform(feasible.lo, feasible.hi, size=(n, feasible.dimension))


class RunPlan(NamedTuple):
    """The part of a run that no seed changes, built once by :func:`plan`.

    It holds O(n + p) data of its own, every array read-only, and refers
    to the topology's weights, the box, the objective and the quantizer
    without copying them.  ``explicit_init`` is kept as given: checked
    once and copied by every run, so it must not change (a config's is a
    read-only (n, p) array).  ``attacks`` holds one group per distinct
    nonzero policy, in order of first appearance; an agent in none is
    attacked by zero.  The attack rows, the box rows and the workspace
    belong to each run, so a plan kept for a whole seed-major sweep stays
    small.  (A named tuple: immutable, and cheaper to define at import
    than a frozen dataclass.)
    """

    n: int
    p: int
    iterations: int
    alpha: np.ndarray  # the step size, a 0-d operand
    quantizer: UniformQuantizer | None
    weights: np.ndarray
    feasible: FeasibleSet
    objective: LocalObjective
    honest: np.ndarray
    quantizes: np.ndarray
    attack_norm: float  # ||e||, the largest attack-norm bound
    tolerance: float
    block: int
    attacks: tuple  # (policy, uint32 agent ids) per distinct nonzero policy
    explicit_init: object


def plan(
    attacks: dict,
    quantizer: UniformQuantizer | None,
    topology,
    objective: LocalObjective,
    feasible: FeasibleSet,
    alpha: float,
    iterations: int,
    explicit_init=None,
    adversary_quantizes: bool = False,
) -> RunPlan:
    """Validate a run's inputs and fix everything its seeds share.

    ``attacks`` maps each adversarial agent, an integer id in [0, n), to its
    :class:`AttackPolicy`; every other agent is honest.  ``quantizer``
    encodes every broadcast (its interval length may be an (n, 1) column,
    one per agent; its step must broadcast to the (n, p) state without
    growing it, and a vector midpoint match the state's trailing axes),
    or is None for exact communication.  ``objective`` is the network's,
    of the box's dimension, with x* inside the box; its x* and L-bar are
    the run's.  Equal policies are one attack group, and a
    zero policy none.  Raises ``ValueError`` for an input no run can take.
    """
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")
    n, p = topology.n, feasible.dimension
    if objective.dimension != p:
        raise ValueError(f"objective dimension {objective.dimension} != box dimension {p}")
    if not feasible.contains(objective.x_star):  # NaN is outside too
        raise ValueError("the objective's x* lies outside the box")
    if alpha <= 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    for agent, policy in attacks.items():
        if not isinstance(agent, (int, np.integer)) or isinstance(agent, bool):
            raise ValueError(f"agent ids must be integers, got {agent!r}")
        if not 0 <= agent < n:
            raise ValueError(f"agent ids must lie in [0, {n}), got {agent}")
        if not isinstance(policy, adv.AttackPolicy):
            raise ValueError(f"agent {agent}'s attack must be an AttackPolicy, got {policy!r}")
    honest = np.ones(n, dtype=bool)
    honest[list(attacks)] = False
    if not honest.any():
        raise ValueError("at least one honest agent is required")
    if explicit_init is not None:
        _checked_init(explicit_init, n, feasible)
    if quantizer is not None:
        step, mid = quantizer.step.shape, quantizer.midpoint.shape
        if len(step) > 2 or any(s not in (1, t) for s, t in zip(step[::-1], (p, n))):
            raise ValueError(f"quantizer.step of shape {step} does not broadcast to ({n}, {p})")
        if mid != (n, p)[2 - len(mid) :]:
            raise ValueError(f"quantizer.midpoint of shape {mid} does not match ({n}, {p})")

    attack_norm = adv.attack_norm_bound(attacks, p)
    tolerance = MEAN_RECURSION_TOL * max(
        1.0, feasible.corner_norm(), alpha * objective.subgrad_bound, attack_norm
    )
    groups: dict = {}  # a zero policy's rows are the run's zeros
    for agent, policy in attacks.items():
        if policy.kind != "zero":
            groups.setdefault(policy, []).append(agent)
    quantizes = honest | adversary_quantizes
    return RunPlan(
        n=n,
        p=p,
        iterations=iterations,
        alpha=operand(alpha),
        quantizer=quantizer,
        weights=topology.weights,
        feasible=feasible,
        objective=objective,
        honest=operand(honest, bool),
        quantizes=operand(quantizes, bool),
        attack_norm=attack_norm,
        tolerance=tolerance,
        block=min(iterations, max(1, BLOCK_BYTES // (8 * n * p))),
        attacks=tuple((policy, operand(ids, np.uint32)) for policy, ids in groups.items()),
        explicit_init=explicit_init,
    )


def run(plan: RunPlan, seed: int) -> RunResult:
    """Execute one deterministic run of ``plan.iterations`` rounds.

    Everything that depends on ``seed`` happens here: the initial
    iterates, the attack schedule (one :func:`adversary.attack_table` per
    attack group, of its policy reseeded for the run), the rounds and the
    block reductions.  Runs of one plan share nothing writable, so they
    may go in separate threads.

    Raises :class:`BoundViolationError` for the first round whose
    mean-iterate identity fails or yields NaN, once its block is reduced.
    Projection-error bound failures do not raise: they are recorded per
    round in the trace (``lemma1_ok``) and surface through
    ``unsaturated_lemma1_violations``.
    """
    n, p, iterations, block = plan.n, plan.p, plan.iterations, plan.block
    rounds = np.arange(iterations, dtype=np.uint32)
    # per group, its agents and their (K, A, p) table: round k's attack of
    # agents[a] is table[k, a]
    schedule = [
        (agents, adv.attack_table(adv.reseed(policy, seed), agents, rounds, p))
        for policy, agents in plan.attacks
    ]
    trace = Trace.empty(iterations, n, p)

    # one allocation for all six buffers and the box bounds as (n, p) rows:
    # freeing it lifts glibc's mmap threshold above its size, so later runs
    # take it and the block temporaries from the heap, not from fresh
    # page-faulting mappings
    workspace = np.empty((6 * block + 3, n, p))
    states = workspace[: block + 1]
    broadcasts, gradients, h_attack_free, xi, attack_rows = workspace[
        block + 1 : 6 * block + 1
    ].reshape(5, block, n, p)
    lo, hi = bounds = tuple(workspace[6 * block + 1 :])  # views made once, not per round
    lo[...], hi[...] = plan.feasible.lo, plan.feasible.hi
    attack_rows[...] = 0.0  # a row no group writes is zero in every round
    quantizer, weights, full_precision = plan.quantizer, plan.weights, ~plan.quantizes[:, None]
    objective, alpha = plan.objective, plan.alpha
    states[0] = initial_iterates(n, plan.feasible, seed, plan.explicit_init)
    for start in range(0, iterations, block):
        m = min(block, iterations - start)
        for agents, table in schedule:
            attack_rows[:m, agents] = table[start : start + m]
        rounds = zip(
            states[:m], states[1 : m + 1], broadcasts[:m], gradients[:m],
            h_attack_free[:m], xi[:m], attack_rows[:m],
        )
        for state, next_state, sent, gradient, h_af, xi_row, attack in rounds:
            # the round's residual row is the quantizer's scratch before it
            broadcast_phase(state, quantizer, full_precision, sent, xi_row)
            step(
                state,
                sent,
                attack,
                weights,
                objective,
                bounds,
                alpha,
                (next_state, gradient, h_af, xi_row),
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
            bounds,
            plan,
        )
        residual = mean_recursion_residual(trace, alpha, start, start + m)
        failed = np.flatnonzero(~(residual <= plan.tolerance))  # NaN fails too
        if failed.size:
            j = int(failed[0])
            raise BoundViolationError(
                f"mean-iterate bookkeeping identity off by {float(residual[j])} "
                f"at k={start + j}"
            )
        states[0] = states[m]

    return RunResult(traces=trace, final_iterates=states[0].copy())
