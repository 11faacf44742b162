from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from stream_oracle import reference_attack_table

from disopt import adversary
from disopt.adversary import (
    MAX_KEY,
    AttackPolicy,
    attack_norm_bound,
    attack_table,
    attack_vector,
    max_attack_norm,
    reseed,
    sharing_streams,
)


def test_zero_policy_emits_zeros():
    policy = AttackPolicy(kind="zero")
    assert np.array_equal(attack_vector(policy, 0, 0, 3), np.zeros(3))
    assert max_attack_norm(policy, 3) == 0.0


def test_constant_policy_is_constant():
    policy = AttackPolicy(kind="constant", value=np.array([0.3, 0.3]))
    for k in (0, 1, 17, 500):
        assert np.allclose(attack_vector(policy, 2, k, 2), [0.3, 0.3])
    assert max_attack_norm(policy, 2) == pytest.approx(0.3 * np.sqrt(2))


def test_constant_negative_sign():
    policy = AttackPolicy(kind="constant", sign="negative", value=np.array([0.4]))
    assert attack_vector(policy, 0, 0, 1) == pytest.approx(-0.4)


def test_uniform_entries_stay_in_range():
    policy = AttackPolicy(kind="uniform", low=0.0, high=1.0, seed=3)
    draws = attack_table(policy, range(2), range(1250), 4).ravel()
    assert draws.shape == (10_000,)
    assert np.all(draws > 0.0)
    assert np.all(draws < 1.0)
    assert max_attack_norm(policy, 1) == 1.0


def test_sign_discipline_negative_mode():
    policy = AttackPolicy(kind="uniform", sign="negative", low=0.1, high=0.9, seed=5)
    draws = attack_table(policy, [0], range(2000), 5)
    assert np.all(draws < 0.0)


def test_generation_is_pure_in_seed_agent_iteration():
    policy = AttackPolicy(kind="uniform", low=0.0, high=1.0, seed=42)
    a = attack_vector(policy, 3, 7, 6)
    # different call order, same key, same stream
    attack_vector(policy, 1, 1, 6)
    b = attack_vector(policy, 3, 7, 6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, attack_vector(policy, 3, 8, 6))
    assert not np.array_equal(a, attack_vector(policy, 4, 7, 6))


def test_norm_dominated_by_max_attack_norm():
    policy = AttackPolicy(kind="uniform", low=0.2, high=0.8, seed=11)
    bound = max_attack_norm(policy, 3)
    norms = np.linalg.norm(attack_table(policy, [0], range(500), 3), axis=-1)
    assert np.all(norms <= bound + 1e-12)


def test_attack_norm_bound_is_the_largest_policy_bound():
    zero = AttackPolicy(kind="zero")
    constant = AttackPolicy(kind="constant", value=np.array([0.3, 0.4]))
    uniform = AttackPolicy(kind="uniform", low=0.1, high=0.2, seed=1)
    attacks = {0: zero, 2: constant, 5: uniform, 6: zero}
    assert attack_norm_bound(attacks, 2) == max_attack_norm(constant, 2)
    assert attack_norm_bound(attacks, 2) == pytest.approx(0.5)
    wider = AttackPolicy(kind="uniform", low=0.0, high=0.5)
    assert attack_norm_bound({**attacks, 7: wider}, 2) == 0.5 * np.sqrt(2)
    assert attack_norm_bound({0: zero, 1: zero}, 2) == 0.0
    assert attack_norm_bound({}, 2) == 0.0


def test_attack_norm_bound_evaluates_a_shared_policy_once(monkeypatch):
    calls = []
    real = adversary.max_attack_norm

    def counting(policy, p):
        calls.append(policy)
        return real(policy, p)

    monkeypatch.setattr(adversary, "max_attack_norm", counting)
    shared = AttackPolicy(kind="constant", value=np.full(4, 0.25))
    assert attack_norm_bound(dict.fromkeys(range(64), shared), 4) == real(shared, 4)
    assert len(calls) == 1 and calls[0] is shared


def test_alias_kind_accepted():
    policy = AttackPolicy(kind="uniform-random-per-iteration", low=0.0, high=1.0)
    assert policy.kind == "uniform"


def test_invalid_policies_rejected():
    with pytest.raises(ValueError):
        AttackPolicy(kind="gaussian")
    with pytest.raises(ValueError):
        AttackPolicy(kind="uniform", low=0.5, high=0.2)
    with pytest.raises(ValueError):
        AttackPolicy(kind="constant")  # missing value
    with pytest.raises(ValueError):
        AttackPolicy(kind="constant", value=np.array([0.1, -0.1]))
    with pytest.raises(ValueError, match="must be a vector"):
        AttackPolicy(kind="constant", value=[[0.5, 0.25]])
    with pytest.raises(ValueError):
        AttackPolicy(kind="uniform", sign="alternating")


def test_reseed_changes_stream_deterministically():
    policy = AttackPolicy(kind="uniform", low=0.0, high=1.0, seed=9)
    a = reseed(policy, 0)
    b = reseed(policy, 1)
    assert a.seed != b.seed
    assert reseed(policy, 0).seed == a.seed


# seeds one word long, at a word boundary, two words, three, and seven
_SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5, 2**200]) | st.integers(0, 2**256)
_KEYS = st.sampled_from([0, MAX_KEY]) | st.integers(0, MAX_KEY)


@settings(max_examples=200, deadline=None)
@given(
    seed=_SEEDS,
    agents=st.lists(_KEYS, min_size=1, max_size=3),
    rounds=st.lists(_KEYS, min_size=1, max_size=3),
    p=st.integers(min_value=1, max_value=17),
    low=st.floats(min_value=0.0, max_value=1.0),
    width=st.floats(min_value=0.0, max_value=2.0),
    sign=st.sampled_from(["positive", "negative"]),
)
# key (0, 0, 70): the first output's PCG state has rotation 0
@example(seed=0, agents=[0], rounds=[70], p=1, low=0.0, width=1.0, sign="positive")
# the largest agent and round with an 8-word seed (2**256 - 1) and a
# 9-word one (2**256): the longest hash-constant chains a test reaches
@example(seed=2**256 - 1, agents=[MAX_KEY], rounds=[MAX_KEY], p=3, low=0.0, width=1.0,
         sign="positive")
@example(seed=2**256, agents=[MAX_KEY, 0], rounds=[MAX_KEY], p=2, low=0.5, width=0.5,
         sign="negative")
def test_attack_table_matches_the_per_key_stream(seed, agents, rounds, p, low, width, sign):
    policy = AttackPolicy(kind="uniform", sign=sign, low=low, high=low + width, seed=seed)
    got = attack_table(policy, agents, rounds, p)
    assert np.array_equal(got, reference_attack_table(policy, agents, rounds, p))


@pytest.mark.parametrize(
    "agents, rounds", [([MAX_KEY + 1], [0]), ([0], [MAX_KEY + 1]), ([-1], [0]), ([0], [-1])]
)
def test_attack_table_rejects_keys_outside_one_word(agents, rounds):
    # a wider index would enter the stream as more words: a different stream
    policy = AttackPolicy(kind="uniform", low=0.0, high=1.0)
    with pytest.raises(ValueError, match="must lie in"):
        attack_table(policy, agents, rounds, 2)


def test_only_a_sharing_block_reuses_a_keyed_stream(monkeypatch):
    draws = []
    real = adversary._uniform_stream
    monkeypatch.setattr(adversary, "_uniform_stream", lambda *key: draws.append(key) or real(*key))
    policy = AttackPolicy(kind="uniform", low=0.2, high=0.9, seed=11)
    wider = replace(policy, high=1.5)  # another affine map of the same stream
    outside = [attack_table(policy, [1, 4], range(6), 3) for _ in range(2)]
    assert len(draws) == 2
    with sharing_streams():
        inside = [attack_table(p, [1, 4], range(6), 3) for p in (policy, wider, policy)]
        assert len(draws) == 3
        attack_table(policy, [1, 4], range(7), 3)  # another key draws, and replaces it
        attack_table(policy, [1, 4], range(6), 3)
        assert len(draws) == 5
    assert adversary._SHARED.get() is None
    tables = outside + inside
    assert all(t.flags.writeable for t in tables)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(tables) for b in tables[:i])
    for table, p in zip(tables, (policy, policy, policy, wider, policy)):
        assert np.array_equal(table, reference_attack_table(p, [1, 4], range(6), 3))
