"""Synchronous simulation of the quantized distributed subgradient protocol.

Each round: every agent broadcasts (honest agents send their quantized
iterate, adversaries their full-precision one), then every agent mixes
the received values, takes a subgradient step, adversaries add their
perturbation, and the result is projected back onto the feasible set.

:func:`plan` validates a config's inputs once and returns the read-only
:class:`RunPlan` that its seeds share; :func:`run` does one seed's work.
A run is deterministic given its plan and seed.  Each column of its
:class:`Trace` equals numpy's per-round ``ndarray.mean`` or
``np.linalg.norm`` value bit for bit (a NaN mean aside, which fails the
run: see :func:`_means`).  A run's memory grows with its round count only
through the trace columns and a uniform attack's table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from numpy._core.multiarray import c_einsum as _c_einsum
from numpy._core.umath import clip as _clip

from . import adversary as adv
from .bounds import lemma1_bound
from .objective import FeasibleSet, LocalObjective
from .operand import constant_operand, operand
from .quantizer import UniformQuantizer
from .topology import NetworkTopology

# the round's ufuncs, bound once; ``copyto`` is the C function behind
# ``np.copyto``'s Python dispatcher
_add, _subtract, _multiply, _matmul, _copyto = (
    np.add, np.subtract, np.multiply, np.matmul, np.copyto._implementation
)

# the sum of a p > 1 block mean (see _means)
_einsum = np.einsum

# Tolerance of the mean-iterate bookkeeping identity; it is an exact
# algebraic consequence of the update, so only rounding noise is allowed.
# Rounding grows with the size of the identity's terms, so a run scales it
# by the largest bound on them when that exceeds 1.
MEAN_RECURSION_TOL = 1e-10

# Rounding slack of the Lemma 1 comparison ``xi_bar_norm <= lemma1_rhs``.
LEMMA1_TOL = 1e-12

# Size of one (rounds, n, p) block buffer and its round slots' views: a
# block holds max(1, BLOCK_BYTES // (8 n p + _ROUND_VIEW_BYTES)) rounds, so
# a run's buffers and views stay bounded however many rounds it has.
BLOCK_BYTES = 1 << 18

# Upper bound on one round slot's prebuilt views and tuples, which
# outweigh the round's rows at small n p.
_ROUND_VIEW_BYTES = 1 << 10

# Smallest complete graph that mixes in the rank-one form (see
# matrix_form_update): one agent-axis sum in place of the BLAS product W Q.
# Below it the product is as fast or faster at every p measured.
RANK_ONE_AGENTS = 128


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
    mode).

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
    """One run's :class:`Trace` and its final (n, p) iterates, a copy the
    caller owns."""

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
    agent does, so ``iterates`` itself is returned and no buffer is
    written.

    With a quantizer the result is written into the (n, p) buffer ``out``
    and returned; ``scratch`` is an (n, p) buffer the quantizer may
    overwrite.  ``out`` must not alias ``iterates``, whose full-precision
    rows are copied in after the quantizer has written.
    """
    if quantizer is None:
        return iterates
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
    rank_one: tuple | None = None,
) -> np.ndarray:
    """Pre-projection update H = W X + (I - W)(X - Q) - alpha G, in one
    of two forms.

    With ``rank_one`` None, ``((X - Q) + W Q) - alpha G``: the product
    W Q goes through BLAS, whose summation order follows its CPU kernel
    and thread count.  ``rank_one`` is (c, column, total) when W is a
    complete graph's c 1 1^T + diag(d - c): c the 0-d off-diagonal weight,
    column the d - c - 1 of each row, as an (n, 1) column or broadcast to
    (n, p) rows (which numpy multiplies without buffering), and total a
    (p,) buffer.  Then ``((X + column Q) + c sum_j Q_j) - alpha G``: the
    sum over agents goes through einsum's fixed-order loop into ``total``,
    no BLAS, and ``weights`` is not read.  :func:`plan` picks the rank-one
    form for a complete graph of at least :data:`RANK_ONE_AGENTS` agents.

    The result goes into the (n, p) buffer ``out``, which is returned;
    ``scratch`` is an (n, p) buffer that holds ``W Q`` (c sum_j Q_j in
    every row, in the rank-one form) and then ``alpha G``; no buffer may
    alias an input or another.  ``alpha`` may be a float or a 0-d float64
    array, with the same result.
    """
    if rank_one is None:
        mixing = _matmul(weights, broadcasts, scratch)
        _subtract(iterates, broadcasts, out)
    else:
        c, column, total = rank_one
        _c_einsum("ij->j", broadcasts, out=total)
        mixing = scratch
        _copyto(mixing, _multiply(c, total, total))
        _add(iterates, _multiply(column, broadcasts, out), out)
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
    rank_one: tuple | None = None,
):
    """Advance the network one round.

    Returns (next iterates, gradients, attack-free update ``H_af``,
    projection residual ``xi``): with ``h = H_af + attack_rows``, ``xi``
    is ``h - clip(h)`` and the next iterates are ``h - xi``.
    ``attack_rows`` holds this round's attack e_i(k) per agent (zero rows
    for honest agents).  The network ``objective`` reads the whole state
    and writes its subgradients into the gradient buffer through ``out``
    (or they are copied there, if it returns another array).  ``bounds``
    is the box's (lo, hi), arrays that broadcast against the state (a
    plan's are 0-d or of the state's shape, which clip does not buffer).
    ``weights`` and ``rank_one`` are the mixing, as
    :func:`matrix_form_update` takes them.

    ``out`` is four (n, p) buffers, (next iterates, gradients, ``H_af``,
    ``xi``), which receive the results and are returned; ``xi`` holds the
    update's temporaries before the residual.  No buffer may alias an
    input or another buffer.
    """
    next_iterates, gradients, h_attack_free, xi = out
    result = objective.subgradient(iterates, out=gradients)
    if result is not gradients:  # an objective that ignored ``out``
        gradients[...] = result
    # a call of its own, as broadcast_phase is: the benchmark's tracer
    # wraps each by name to time the mixing and broadcast phases
    matrix_form_update(
        weights, iterates, broadcasts, gradients, alpha, h_attack_free, xi, rank_one
    )
    h = _add(h_attack_free, attack_rows, next_iterates)
    _clip(h, *bounds, xi)
    _subtract(h, xi, xi)
    # h - xi, not the clipped point: far outside the box they differ
    _subtract(h, xi, next_iterates)
    return out


def _norms(x: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """Row norms over the last axis, bit for bit ``np.linalg.norm(x,
    axis=-1)`` for a float array.  ``squares``, if given, receives
    ``x * x`` and may be ``x`` itself."""
    return np.sqrt(np.add.reduce(_multiply(x, x, squares), axis=-1))


def _means(x: np.ndarray) -> np.ndarray:
    """Means over axis 1, bit for bit ``x.mean(axis=1)``, except that a
    p > 1 sum holding two different NaNs may keep either one's payload.

    An (m, n, p) block with p > 1 is summed by einsum, which adds the n
    agents in order as ``add.reduce`` does there.  A p = 1 block, or a 2-D
    one, keeps ``add.reduce``, whose pairwise sum einsum does not follow.
    A NaN mean fails the run's mean-iterate check, so no payload reaches
    a returned trace."""
    if x.ndim == 3 and x.shape[2] > 1:
        total = _einsum("ijk->ik", x)
        return total / x.shape[1]
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
    plan: RunPlan,
) -> None:
    """Fill the trace rows of the rounds start..start+m-1 of one block.

    ``iterates`` holds the m+1 states of the block, the others the m
    rounds' (n, p) rows, ``xi`` the projection residuals ``step``
    recorded against ``plan.bounds``.
    The columns of a state get rows start..start+m; the next block
    writes the last one again, with the same value.  Each column is one
    reduction over the block, bit for bit the per-round value.  ``xi`` is
    overwritten.
    """
    quantizer, x_star = plan.quantizer, plan.x_star
    m = len(gradients)
    rows = slice(start, start + m)
    entering = iterates[:-1]
    x_bar = _means(iterates)
    states = slice(start, start + m + 1)
    trace.x_bar[states] = x_bar
    trace.err_all[states] = _norms(x_bar - x_star)
    honest = iterates.take(plan.honest, axis=1)
    trace.err_honest[states] = _norms(_means(honest) - x_star)
    gaps = iterates - x_star
    trace.per_agent_err[states] = _norms(gaps, gaps)
    trace.grad_mean[rows] = _means(gradients)
    if quantizer is None:
        delta_bar = np.zeros(m)
        trace.saturation_count[rows] = 0
    else:
        errors = entering - broadcasts
        delta_bar = _means(_norms(errors, errors))
        saturated = plan.quantizes & ~quantizer.in_range(entering).all(axis=2)
        trace.saturation_count[rows] = saturated.sum(axis=1)
    trace.delta_bar[rows] = delta_bar

    xi_bar = _means(xi)
    xi_bar_norm = _norms(xi_bar)
    _clip(h_attack_free, *plan.bounds, xi)  # xi is spent: its mean is taken
    _subtract(h_attack_free, xi, xi)
    trace.xi_bar[rows] = xi_bar
    trace.xi_bar_norm[rows] = xi_bar_norm
    trace.xi_bar_attack_free_norm[rows] = _norms(_means(xi))
    trace.mean_attack[rows] = _means(attacks)
    attack_norms = np.zeros((m, plan.n))
    for _, agents in plan.attacks:
        group_rows = attacks.take(agents, axis=1)
        attack_norms[:, agents] = _norms(group_rows, group_rows)
    trace.mean_attack_norm[rows] = _means(attack_norms)

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


def _checked_init(explicit, n: int, feasible: FeasibleSet) -> np.ndarray:
    x0 = operand(explicit)
    if x0.shape != (n, feasible.dimension):
        raise ValueError(
            f"explicit init has shape {x0.shape}, expected {(n, feasible.dimension)}"
        )
    if not feasible.contains(x0):
        raise ValueError("explicit initial point outside the feasible set")
    return x0


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

    It holds O(n + p) data of its own besides the (n, p) copies of an
    explicit initial state and of a per-coordinate box side, every array
    read-only, and refers
    to the topology, the box, the objective and the quantizer without
    copying them, so one plan can serve every seed and thread.
    ``honest`` (the honest agents' ids, ascending), ``quantizes`` (a mask)
    and ``attacks`` are the run's one role assignment: ``attacks`` holds
    one group per distinct nonzero policy, in order of first appearance,
    and an agent in none is attacked by zero.  ``bounds`` is the box's
    (lo, hi): a side whose entries are bit-equal as a 0-d operand, any
    other as an (n, p) tile, the state's shape, which numpy clips against
    without buffering.  ``x_star`` is the objective's x* as a constant
    operand.  ``rank_one`` selects the mixing form of
    :func:`matrix_form_update`: for a complete graph of at least
    :data:`RANK_ONE_AGENTS` agents it is (c, column), the off-diagonal
    weight as a 0-d operand and the (n, 1) column d - c - 1, both read from
    the built W (its diagonal d may differ between rows); for any other
    graph it is None, and each round multiplies by W through BLAS.
    ``explicit_init`` is a read-only copy of the checked initial iterates,
    or None.
    """

    n: int
    p: int
    iterations: int
    alpha: np.ndarray  # the step size, a 0-d operand
    quantizer: UniformQuantizer | None
    topology: NetworkTopology
    feasible: FeasibleSet
    objective: LocalObjective
    honest: np.ndarray  # the honest agents' ids
    quantizes: np.ndarray
    attack_norm: float  # ||e||, the largest attack-norm bound
    tolerance: float
    block: int
    attacks: tuple  # (policy, uint32 agent ids) per distinct nonzero policy
    bounds: tuple  # the box's (lo, hi), each side 0-d or an (n, p) tile
    x_star: np.ndarray  # the objective's x*, a constant operand
    rank_one: tuple | None  # a complete graph's (c, d - c - 1), or None: W Q
    explicit_init: np.ndarray | None


def plan(
    attacks: dict,
    quantizer: UniformQuantizer | None,
    topology: NetworkTopology,
    objective: LocalObjective,
    feasible: FeasibleSet,
    alpha: float,
    iterations: int,
    explicit_init=None,
    adversary_quantizes: bool = False,
) -> RunPlan:
    """Validate a run's inputs and fix everything its seeds share.

    ``attacks`` maps each adversarial agent, an integer id in [0, n), to its
    :class:`AttackPolicy`, a constant one of p entries; every other agent
    is honest.  ``alpha`` is positive and finite.  ``quantizer``
    encodes every broadcast (its interval length may be an (n, 1) column,
    one per agent; its step must broadcast to the (n, p) state without
    growing it, and a vector midpoint match the state's trailing axes),
    or is None for exact communication.  ``objective`` is the network's,
    of the box's dimension, with x* inside the box; its x* and L-bar are
    the run's.  Raises ``ValueError`` for an input no run can take.
    """
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")
    n, p = topology.n, feasible.dimension
    if objective.dimension != p:
        raise ValueError(f"objective dimension {objective.dimension} != box dimension {p}")
    if not feasible.contains(objective.x_star):  # NaN is outside too
        raise ValueError("the objective's x* lies outside the box")
    if not np.isfinite(alpha):
        raise ValueError(f"step size must be finite, got {alpha}")
    if alpha <= 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    for agent, policy in attacks.items():
        if not isinstance(agent, (int, np.integer)) or isinstance(agent, bool):
            raise ValueError(f"agent ids must be integers, got {agent!r}")
        if not 0 <= agent < n:
            raise ValueError(f"agent ids must lie in [0, {n}), got {agent}")
        if not isinstance(policy, adv.AttackPolicy):
            raise ValueError(f"agent {agent}'s attack must be an AttackPolicy, got {policy!r}")
        if policy.kind == "constant" and len(policy.value) != p:
            raise ValueError(
                f"agent {agent}'s constant attack has dimension {len(policy.value)}, expected {p}"
            )
    honest = np.ones(n, dtype=bool)
    honest[list(attacks)] = False
    if not honest.any():
        raise ValueError("at least one honest agent is required")
    if explicit_init is not None:
        explicit_init = _checked_init(explicit_init, n, feasible)
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
    # a (p,) side is tiled to the state's shape: numpy buffers a broadcast
    # operand on every clip call
    sides = map(constant_operand, (feasible.lo, feasible.hi))
    bounds = tuple(operand(np.tile(side, (n, 1))) if side.ndim else side for side in sides)
    rank_one = None
    if n >= RANK_ONE_AGENTS and len(topology.edges) == n * (n - 1) // 2:
        c = topology.weights[0, 1]
        rank_one = (operand(c), operand(np.diagonal(topology.weights)[:, None] - c - 1.0))
    return RunPlan(
        n=n,
        p=p,
        iterations=iterations,
        alpha=operand(alpha),
        quantizer=quantizer,
        topology=topology,
        feasible=feasible,
        objective=objective,
        honest=operand(np.flatnonzero(honest), np.intp),
        quantizes=operand(quantizes, bool),
        attack_norm=attack_norm,
        tolerance=tolerance,
        block=min(iterations, max(1, BLOCK_BYTES // (8 * n * p + _ROUND_VIEW_BYTES))),
        attacks=tuple((policy, operand(ids, np.uint32)) for policy, ids in groups.items()),
        bounds=bounds,
        x_star=constant_operand(objective.x_star),
        rank_one=rank_one,
        explicit_init=explicit_init,
    )


# each thread's spare workspace, which a run takes and puts back (see run)
_spare = threading.local()


def _new_workspace(block: int, n: int, p: int) -> tuple:
    """A run's buffers, views of one allocation: (states, broadcasts,
    gradients, ``H_af``, xi, attack rows, the (n, p) rows of the rank-one
    column, the (p,) agent sum of the rank-one mixing, round slots), so
    (6 block + 2) n p + p float64s.  Round slot j is the (state, broadcast,
    xi, attack, ``step``'s ``out``) views of round j of a block, ``out``
    being (next state, gradient, ``H_af``, xi); a slot's next state is the
    next slot's state view."""
    flat = np.empty((6 * block + 2) * n * p + p)
    workspace = flat[:-p].reshape(6 * block + 2, n, p)
    states = workspace[: block + 1]
    buffers = workspace[block + 1 : 6 * block + 1].reshape(5, block, n, p)
    state, sent, gradient, h_af, xi, attack = map(list, (states, *buffers))
    slots = list(zip(state, sent, xi, attack, zip(state[1:], gradient, h_af, xi)))
    return (states, *buffers, workspace[6 * block + 1], flat[-p:], slots)


def run(plan: RunPlan, seed: int) -> RunResult:
    """Execute one deterministic run of ``plan.iterations`` rounds.

    The run takes its thread's spare workspace when the spare's (block,
    n, p) matches, else drops the spare and builds its own, and leaves
    its workspace as the thread's spare when it returns (one that raises
    drops it).  So runs of one shape in one thread reuse one workspace,
    one after another, a run started inside a run builds its own, and
    runs share nothing writable across threads.  A run reads no buffer
    row it has not written.

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

    workspace, _spare.workspace = getattr(_spare, "workspace", None), None
    if workspace is None or workspace[0].shape != (block + 1, n, p):
        workspace = None  # dropped before the build: memory never holds two
        workspace = _new_workspace(block, n, p)
    states, broadcasts, gradients, h_attack_free, xi, attack_rows, column, total, slots = workspace
    rank_one = plan.rank_one
    if rank_one is not None:  # the column as full rows: numpy would buffer
        column[...] = rank_one[1]  # an (n, 1) operand on every call
        rank_one = (rank_one[0], column, total)
    attack_rows[...] = 0.0  # a row no group writes is zero in every round
    quantizer, full_precision = plan.quantizer, ~plan.quantizes[:, None]
    weights, objective, alpha = plan.topology.weights, plan.objective, plan.alpha
    bounds = plan.bounds
    states[0] = initial_iterates(n, plan.feasible, seed, plan.explicit_init)
    for start in range(0, iterations, block):
        m = min(block, iterations - start)
        for agents, table in schedule:
            attack_rows[:m, agents] = table[start : start + m]
        for state, sent, xi_row, attack, out in slots[:m]:
            # the round's residual row is the quantizer's scratch before it;
            # in exact mode the broadcast is the state itself
            sent = broadcast_phase(state, quantizer, full_precision, sent, xi_row)
            step(state, sent, attack, weights, objective, bounds, alpha, out, rank_one)
        _record_block(
            trace,
            start,
            states[: m + 1],
            broadcasts[:m],
            gradients[:m],
            h_attack_free[:m],
            xi[:m],
            attack_rows[:m],
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

    _spare.workspace = workspace
    return RunResult(traces=trace, final_iterates=states[0].copy())
