"""Attack vector generation for adversarial agents.

Every generated vector has all entries strictly of one sign, and
generation is a pure function of (seed, agent id, iteration), so replays
are bit-identical regardless of call order.

A uniform policy's attack of agent i at iteration k is
``sgn * (low + (high - low) * u)``, with ``u`` the first p doubles of
``numpy.random.default_rng(numpy.random.SeedSequence((seed, i, k)))``.
:func:`attack_table` computes that keyed stream over a whole (k, agent)
grid at once in uint64 array arithmetic, SeedSequence's entropy mixing
and PCG64's XSL-RR output, bit for bit equal to drawing each key alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .operand import operand

KINDS = ("zero", "constant", "uniform")
_KIND_ALIASES = {"uniform-random-per-iteration": "uniform"}
SIGNS = ("positive", "negative")


@dataclass(frozen=True)
class AttackPolicy:
    """Rule producing one perturbation vector per adversary per iteration.

    ``value`` (constant kind) holds strictly positive magnitudes, kept
    as a tuple of floats so that policies compare and hash by content;
    the sign mode decides whether the emitted vector is all-positive or
    all-negative.  ``low``/``high`` bound the per-entry magnitude for
    the uniform kind.
    """

    kind: str
    sign: str = "positive"
    low: float = 0.0
    high: float = 0.0
    value: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        kind = _KIND_ALIASES.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be one of {SIGNS}, got {self.sign!r}")
        if not (0 <= self.low <= self.high):
            raise ValueError(f"need 0 <= low <= high, got ({self.low}, {self.high})")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if kind == "constant":
            if self.value is None:
                raise ValueError("constant attack requires a value vector")
            value = np.atleast_1d(np.asarray(self.value, dtype=float))
            if value.ndim != 1:
                raise ValueError(f"constant attack value must be a vector, got shape {value.shape}")
            if not np.all(value > 0):
                raise ValueError("constant attack magnitudes must be strictly positive")
            object.__setattr__(self, "value", tuple(value.tolist()))


# Round and agent indices enter the keyed stream as one 32-bit entropy word
# each, so both must lie in [0, 2**32).
MAX_KEY = 2**32 - 1

_MASK32 = 0xFFFFFFFF

# numpy.random.SeedSequence: hash constants of mix_entropy (A) and
# generate_state (B), the pool-mixing multipliers and the xorshift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = (operand(v, np.uint32) for v in (0xCA01F9DD, 0x4973F715))
_XSHIFT = operand(16, np.uint32)

# numpy.random.PCG64's 128-bit LCG multiplier as (high, low) 64-bit words,
# and the low word's 32-bit limbs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO, _PCG_MULT_LO0, _PCG_MULT_LO1 = (
    operand(v, np.uint64)
    for v in (
        _PCG_MULT >> 64,
        _PCG_MULT & (2**64 - 1),
        _PCG_MULT & _MASK32,
        (_PCG_MULT >> 32) & _MASK32,
    )
)

# the other operands of the uint64 arithmetic: the low-word mask, shift
# counts and the scale of a 53-bit integer to a double in [0, 1)
_LOW32, _U1, _U11, _U32, _U58, _U63, _U64 = (
    operand(v, np.uint64) for v in (_MASK32, 1, 11, 32, 58, 63, 64)
)
_DOUBLE_UNIT = operand(2.0**-53, np.float64)


@cache
def _hash_chain(init: int, mult: int, length: int) -> tuple:
    """SeedSequence's hash constants h_0 = init, h_(j+1) = h_j * mult mod
    2**32: hash call j xors with h_j and multiplies by h_(j+1)."""
    chain = [init]
    while len(chain) < length:
        chain.append((chain[-1] * mult) & _MASK32)
    return tuple(operand(c, np.uint32) for c in chain)


def _int_words(value: int) -> list:
    """An integer's little-endian 32-bit words, as SeedSequence reads it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _key_words(values, name: str) -> np.ndarray:
    if type(values) is np.ndarray and values.dtype == np.uint32 and values.ndim == 1:
        return values  # every uint32 is one key word: no Python int per key
    values = [int(v) for v in values]
    bad = [v for v in values if not 0 <= v <= MAX_KEY]
    if bad:
        raise ValueError(f"{name} must lie in [0, {MAX_KEY}], got {bad[0]}")
    return np.array(values, dtype=np.uint32)


def _seed_pool(entropy: list) -> list:
    """SeedSequence.mix_entropy over uint32 word arrays: the 4-word pool."""
    # mix_entropy makes 4 hash calls per entropy word, counting at least 4 words
    chain = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE * max(len(entropy), _POOL_SIZE) + 1)
    hashes = zip(chain, chain[1:])

    def hashmix(value):
        xor, mult = next(hashes)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _seed_state(pool: list) -> list:
    """SeedSequence.generate_state(4, uint64): four 64-bit words, each
    built from two 32-bit words, low word first."""
    chain = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
    words = []
    for i in range(8):
        value = (pool[i % _POOL_SIZE] ^ chain[i]) * chain[i + 1]
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return [lo | (hi << _U32) for lo, hi in zip(words[::2], words[1::2])]


def _mulhi_mult_lo(a: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product a * _PCG_MULT_LO, from 32-bit
    limbs so that no partial product overflows."""
    a0, a1 = a & _LOW32, a >> _U32
    p00, p01 = a0 * _PCG_MULT_LO0, a0 * _PCG_MULT_LO1
    p10, p11 = a1 * _PCG_MULT_LO0, a1 * _PCG_MULT_LO1
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One LCG step: state * multiplier + increment, modulo 2**128."""
    prod_hi = _mulhi_mult_lo(lo) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    return _add128(prod_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _uniform_stream(seed: int, agents: np.ndarray, rounds: np.ndarray, p: int) -> np.ndarray:
    """``default_rng(SeedSequence((seed, agent, k))).random(p)`` for every
    (k, agent) pair at once, as a (K, A, p) array."""
    shape = (rounds.shape[0], agents.shape[0])
    entropy = [np.full(shape, w, dtype=np.uint32) for w in _int_words(seed)]
    entropy += [np.broadcast_to(agents, shape), np.broadcast_to(rounds[:, None], shape)]
    s_hi, s_lo, i_hi, i_lo = _seed_state(_seed_pool(entropy))
    # PCG64 seeding: increment (words 2-3 << 1) | 1; from state 0, one
    # step (giving the increment), add words 0-1, one more step
    inc_hi = (i_hi << _U1) | (i_lo >> _U63)
    inc_lo = (i_lo << _U1) | _U1
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo)
    out = np.empty(shape + (p,))
    for j in range(p):
        # each double: one step, the XSL-RR output, its top 53 bits
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U58
        x = (x >> rot) | (x << ((_U64 - rot) & _U63))
        np.multiply(x >> _U11, _DOUBLE_UNIT, out=out[..., j])
    return out


# Inside a sharing_streams block, what the block keeps: a dict of slot ->
# (key, value); None outside every block.  A ContextVar, so a block in one
# thread is invisible to the others.
_SHARED: ContextVar = ContextVar("disopt_shared_stream", default=None)


@contextmanager
def sharing_streams():
    """Within the block, a uniform :func:`attack_table` whose keyed stream
    is the last one drawn in the block (same derived seed, agent ids,
    rounds and p) reuses it instead of drawing it again, and
    :func:`engine.run` reuses the workspace of the last run of its shape.

    Only that last stream is kept, read-only, and only that workspace;
    both are dropped when the block ends.  Outside every block each call
    draws its stream, and each run builds its workspace.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _kept(slot: str, key, build):
    """Inside a :func:`sharing_streams` block, the value the block keeps in
    ``slot`` if it was built for ``key``, else ``build()``, kept there in
    place of the last one, dropped first.  Outside every block, ``build()``."""
    shared = _SHARED.get()
    if shared is None:
        return build()
    kept = shared.get(slot)
    if kept is None or kept[0] != key:
        shared[slot] = kept = None
        shared[slot] = kept = key, build()
    return kept[1]


def _keyed_stream(seed: int, agents: np.ndarray, rounds: np.ndarray, p: int) -> np.ndarray:
    """:func:`_uniform_stream`, read-only, or inside a :func:`sharing_streams`
    block the last stream drawn there when its key matches."""

    def draw():
        stream = _uniform_stream(seed, agents, rounds, p)
        stream.flags.writeable = False
        return stream

    return _kept("stream", (seed, p, agents.tobytes(), rounds.tobytes()), draw)


def attack_table(policy: AttackPolicy, agents, rounds, p: int) -> np.ndarray:
    """Attack vectors e_i(k) of the listed adversaries at the listed rounds.

    Returns a (len(rounds), len(agents), p) array; entry [r, a] is the
    attack of ``agents[a]`` at iteration ``rounds[r]``.  A uniform or zero
    policy's table is a new writable array; a constant policy's is a
    read-only ``np.broadcast_to`` view of its one signed row.  Agent ids
    and rounds must lie in [0, 2**32), or ``ValueError`` is raised; a 1-d
    uint32 ndarray of them is taken as it is, unchecked.
    """
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    agents = _key_words(agents, "agent ids")
    rounds = _key_words(rounds, "rounds")
    shape = (rounds.shape[0], agents.shape[0], p)
    sgn = 1.0 if policy.sign == "positive" else -1.0
    if policy.kind == "zero":
        return np.zeros(shape)
    if policy.kind == "constant":
        if len(policy.value) != p:
            raise ValueError(f"constant attack has dimension {len(policy.value)}, expected {p}")
        return np.broadcast_to(sgn * np.array(policy.value), shape)
    u = _keyed_stream(policy.seed, agents, rounds, p)
    return sgn * (policy.low + (policy.high - policy.low) * u)


def attack_vector(policy: AttackPolicy, agent: int, k: int, p: int) -> np.ndarray:
    """Attack vector e(k) for one adversary at one iteration: one key of
    :func:`attack_table`, which a caller drawing many keys calls once."""
    return attack_table(policy, [agent], [k], p)[0, 0]


def max_attack_norm(policy: AttackPolicy, p: int) -> float:
    """Time-uniform upper bound on ||e(k)|| over all agents and iterations."""
    if policy.kind == "zero":
        return 0.0
    if policy.kind == "constant":
        return float(np.linalg.norm(np.array(policy.value)))
    return policy.high * float(np.sqrt(p))


def attack_norm_bound(attacks: dict, p: int) -> float:
    """The attack-norm bound ||e|| of an agent -> policy map: the largest
    :func:`max_attack_norm` over its distinct policies (equal policies are
    evaluated once), and 0.0 for a map with no adversary."""
    return max((max_attack_norm(policy, p) for policy in set(attacks.values())), default=0.0)


def reseed(policy: AttackPolicy, run_seed: int) -> AttackPolicy:
    """Derive a per-run copy of the policy with an independent stream; a
    policy that draws no stream (zero or constant) is returned unchanged."""
    if policy.kind != "uniform":
        return policy
    derived = int(np.random.SeedSequence((policy.seed, run_seed)).generate_state(1)[0])
    return replace(policy, seed=derived)
