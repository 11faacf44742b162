"""Per-key reference for the keyed attack stream.

Each draw builds its own ``SeedSequence((seed, agent, k))`` and PCG64
generator, one key at a time: the definition that
``adversary.attack_table`` reproduces over a whole (k, agent) grid.
"""

import numpy as np


def reference_attack_vector(policy, agent: int, k: int, p: int) -> np.ndarray:
    """Attack vector e(k) of one adversary at one iteration, drawn alone."""
    sgn = 1.0 if policy.sign == "positive" else -1.0
    if policy.kind == "zero":
        return np.zeros(p)
    if policy.kind == "constant":
        return sgn * np.array(policy.value)
    rng = np.random.default_rng(np.random.SeedSequence((policy.seed, agent, k)))
    return sgn * (policy.low + (policy.high - policy.low) * rng.random(p))


def reference_attack_table(policy, agents, rounds, p: int) -> np.ndarray:
    """(len(rounds), len(agents), p) table, one reference draw per key."""
    table = np.empty((len(rounds), len(agents), p))
    for r, k in enumerate(rounds):
        for a, agent in enumerate(agents):
            table[r, a] = reference_attack_vector(policy, int(agent), int(k), p)
    return table
