import itertools
import os
import sys
import threading
import tracemalloc
import types
import weakref
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from stream_oracle import reference_attack_table
from trace_oracle import reference_columns, reference_run

from disopt import adversary, config, engine
from disopt.config import ExperimentConfig, parse_config, preset_document
from disopt.engine import broadcast_phase, matrix_form_update, mean_recursion_residual
from disopt.harness import expand_grid, run_experiment, run_single, sweep
from disopt.objective import FeasibleSet, LocalObjective, make_objective
from disopt.quantizer import UniformQuantizer
from disopt.topology import build_complete, build_from_edge_list

BOX1 = FeasibleSet(lo=np.array([-1.0]), hi=np.array([1.0]))


def _run_doc(**overrides):
    doc = {
        "n": 1,
        "p": 1,
        "topology": {"type": "complete"},
        "roles": ["honest"],
        "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 1.0}},
        "quantizer": None,
        "alpha": 0.5,
        "iterations": 1,
        "seeds": [0],
    }
    doc.update(overrides)
    return doc


def local_updates(topology, iterates, broadcasts, gradients, alpha) -> np.ndarray:
    """Per-agent form of the update, the oracle for the matrix form."""
    n = iterates.shape[0]
    w = topology.weights
    mix = [w[i, i] * broadcasts[i] for i in range(n)]
    for i, j in topology.edges.tolist():
        mix[i] = mix[i] + w[i, j] * broadcasts[j]
        mix[j] = mix[j] + w[j, i] * broadcasts[i]
    h = np.empty_like(iterates)
    for i in range(n):
        h[i] = iterates[i] - broadcasts[i] + mix[i] - alpha * gradients[i]
    return h


def broadcast(iterates, quantizer, full_precision) -> np.ndarray:
    """``broadcast_phase`` into fresh buffers, as a run's round calls it."""
    out, scratch = np.empty((2, *iterates.shape))
    return broadcast_phase(iterates, quantizer, full_precision, out=out, scratch=scratch)


def per_agent_broadcast(iterates, bits, lengths, midpoint, honest, adversary_quantizes):
    """Per-agent form of the broadcast, the oracle for ``broadcast_phase``:
    one scalar-interval quantizer per agent, applied row by row."""
    buffer = iterates.copy()
    saturated = np.zeros(iterates.shape[0], dtype=bool)
    if bits is None:
        return buffer, saturated
    for i, x in enumerate(iterates):
        if honest[i] or adversary_quantizes:
            quant = UniformQuantizer(bits=bits, interval_length=lengths[i], midpoint=midpoint)
            buffer[i] = quant.quantize(x)
            saturated[i] = quant.saturates(x)
    return buffer, saturated


ONE_HONEST = np.array([True])
HONEST_AND_ADVERSARY = np.array([True, False])
QUANTIZED = np.array([[False]])
FULL_PRECISION = np.array([[True]])


def run_saturation(iterates, quant, honest, adversary_quantizes=False) -> int:
    """``saturation_count`` of round 0 of a run started at ``iterates``:
    the broadcast flags as the engine records them, per block."""
    n, p = iterates.shape
    box = FeasibleSet(lo=np.full(p, -8.0), hi=np.full(p, 8.0))
    attacks = {int(i): adversary.AttackPolicy(kind="zero") for i in np.flatnonzero(~honest)}
    plan = engine.plan(
        attacks,
        quant,
        build_complete(n),
        make_objective("quadratic", p, box),
        box,
        0.5,
        1,
        explicit_init=iterates,
        adversary_quantizes=adversary_quantizes,
    )
    result = engine.run(plan, 0)
    return int(result.traces.saturation_count[0])


def test_broadcast_honest_quantized():
    quant = UniformQuantizer(bits=1, interval_length=1.0)
    buffer = broadcast(np.array([[0.3]]), quant, QUANTIZED)
    assert buffer[0, 0] == pytest.approx(0.5)
    assert run_saturation(np.array([[0.3]]), quant, ONE_HONEST) == 0
    assert run_saturation(np.array([[0.7]]), quant, ONE_HONEST) == 1


def test_broadcast_adversary_full_precision():
    quant = UniformQuantizer(bits=1, interval_length=1.0)
    buffer = broadcast(np.array([[0.42]]), quant, FULL_PRECISION)
    assert buffer[0, 0] == 0.42
    # flipping the bandwidth assumption makes the adversary quantize too
    buffer = broadcast(np.array([[0.42]]), quant, QUANTIZED)
    assert buffer[0, 0] == pytest.approx(0.5)
    # an out-of-range adversary saturates only when it quantizes
    iterates = np.array([[0.1], [3.0]])
    assert run_saturation(iterates, quant, HONEST_AND_ADVERSARY) == 0
    assert run_saturation(iterates, quant, HONEST_AND_ADVERSARY, True) == 1


def test_broadcast_exact_mode_passthrough():
    buffer = broadcast(np.array([[0.3]]), None, QUANTIZED)
    assert buffer[0, 0] == 0.3
    assert run_saturation(np.array([[3.0]]), None, ONE_HONEST) == 0


def test_saturation_counts_a_nan_row_but_not_a_full_precision_adversary():
    # a NaN state never survives a run's invariant check, so the block
    # column is filled directly: one round, three agents, the NaN row honest
    quant = UniformQuantizer(bits=2, interval_length=1.0)
    states = np.zeros((2, 3, 1))
    states[0, :, 0] = [np.nan, 0.1, 3.0]
    rows = np.zeros((1, 3, 1))
    for adversary_quantizes, want in ((False, 1), (True, 2)):
        plan = engine.plan(
            {2: adversary.AttackPolicy(kind="zero")}, quant, build_complete(3),
            make_objective("quadratic", 1, BOX1), BOX1, 0.5, 1,
            adversary_quantizes=adversary_quantizes,
        )
        trace = engine.Trace.empty(1, 3, 1)
        engine._record_block(trace, 0, states, rows, rows, rows, rows, rows, plan)
        assert trace.saturation_count[0] == want


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    p=st.integers(min_value=1, max_value=3),
    bits=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    adversary_quantizes=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_broadcast_matches_per_agent_oracle(n, p, bits, adversary_quantizes, seed):
    # per-agent interval lengths, a p-vector midpoint, and iterates that
    # reach past +-2 interval halves, so some rows saturate
    rng = np.random.default_rng(seed)
    lengths = rng.choice([0.25, 0.5, 1.0, 2.0], size=n)
    midpoint = rng.uniform(-0.5, 0.5, size=p)
    iterates = midpoint + rng.uniform(-2.0, 2.0, size=(n, p)) * lengths[:, None]
    honest = rng.random(n) < 0.6
    quant = None
    if bits is not None:
        quant = UniformQuantizer(
            bits=bits, interval_length=lengths[:, None], midpoint=midpoint
        )
    full_precision = ~(honest | adversary_quantizes)[:, None]
    want_buffer, want_saturated = per_agent_broadcast(
        iterates, bits, lengths, midpoint, honest, adversary_quantizes
    )
    # into NaN-filled buffers: a quantizer writes every row of ``out`` and
    # returns it; exact mode returns the iterates themselves, copied nowhere
    out, scratch = np.full((2, n, p), np.nan)
    buffer = broadcast_phase(iterates, quant, full_precision, out=out, scratch=scratch)
    assert buffer is (iterates if bits is None else out)
    assert np.array_equal(buffer, want_buffer)
    if honest.any():  # a run needs an honest agent
        saturated = run_saturation(iterates, quant, honest, adversary_quantizes)
        assert saturated == want_saturated.sum()


def test_single_agent_gradient_step():
    # n=1, exact comm, f = x^2/2, alpha=0.5, x0=1 -> x1 = 0.5
    cfg = parse_config(_run_doc(init=[[1.0]]))
    result = run_single(cfg, 0)
    assert result.final_iterates[0, 0] == pytest.approx(0.5)


def test_self_quantization_cancels_for_isolated_agent():
    # alpha=0: h = x - q + 1*q = x, so the iterate must not move
    doc = _run_doc(
        quantizer={"bits": 1, "interval_length": 1.0, "midpoint": 0.0},
        init=[[0.3]],
    )
    doc["alpha"] = 1e-12  # config requires a positive step size
    cfg = parse_config(doc)
    result = run_single(cfg, 0)
    assert result.final_iterates[0, 0] == pytest.approx(0.3, abs=1e-11)


def test_identical_agents_stay_identical():
    doc = _run_doc(
        n=2,
        roles=["honest", "honest"],
        iterations=25,
        init=[[0.8], [0.8]],
    )
    cfg = parse_config(doc)
    result = run_single(cfg, 0)
    per_agent = result.traces.per_agent_err
    assert np.array_equal(per_agent[:, 0], per_agent[:, 1])


def test_exact_mode_contraction_closed_form():
    doc = _run_doc(n=10, roles=["honest"] * 10, iterations=30)
    cfg = parse_config(doc)
    result = run_single(cfg, 3)
    errors = result.traces.err_all
    k = np.arange(len(errors))
    assert errors == pytest.approx((1 - 0.5) ** k * errors[0], abs=1e-9)


def test_mean_recursion_identity_under_attack():
    doc = _run_doc(
        n=4,
        roles=["honest", "honest", "honest", "adversarial"],
        quantizer={"bits": 2, "interval_length": 1.0, "midpoint": 0.0},
        attack={"kind": "uniform", "range": [0.0, 1.0], "sign": "positive", "seed": 1},
        iterations=50,
    )
    cfg = parse_config(doc)
    result = run_single(cfg, 0)
    residual = mean_recursion_residual(result.traces, cfg.plan.alpha)
    assert residual.shape == (50,) and np.all(residual <= 1e-10)


def test_iterates_stay_feasible():
    doc = _run_doc(
        n=5,
        roles=["honest"] * 4 + ["adversarial"],
        quantizer={"bits": 1, "interval_length": 1.0, "midpoint": 0.0},
        attack={"kind": "constant", "value": [0.6], "seed": 0},
        iterations=40,
    )
    cfg = parse_config(doc)
    result = run_single(cfg, 0)
    assert np.all(result.final_iterates >= -1.0)
    assert np.all(result.final_iterates <= 1.0)


def test_runs_are_bit_identical():
    doc = _run_doc(
        n=6,
        roles=["honest"] * 4 + ["adversarial"] * 2,
        quantizer={"bits": 3, "interval_length": 1.0, "midpoint": 0.0},
        attack={"kind": "uniform", "range": [0.0, 1.0], "sign": "positive", "seed": 2},
        iterations=30,
    )
    cfg = parse_config(doc)
    a, b = run_single(cfg, 5), run_single(cfg, 5)
    assert np.array_equal(a.final_iterates, b.final_iterates)
    assert np.array_equal(a.traces.xi_bar, b.traces.xi_bar)
    assert np.array_equal(a.traces.mean_attack_norm, b.traces.mean_attack_norm)


def _recorded_run(cfg, seed):
    """Run one seed; returns (result, the (K, n, p) attack rows of every
    round, rebuilt from the plan's attack groups as the run draws them)."""
    rows = np.zeros((cfg.iterations, cfg.n, cfg.p))
    rounds = np.arange(cfg.iterations, dtype=np.uint32)
    for policy, agents in cfg.plan.attacks:
        policy = adversary.reseed(policy, seed)
        rows[:, agents] = adversary.attack_table(policy, agents, rounds, cfg.p)
    result = run_single(cfg, seed)
    # the run added exactly these rows
    assert np.array_equal(result.traces.mean_attack, rows.mean(axis=1))
    assert np.array_equal(
        result.traces.mean_attack_norm, np.linalg.norm(rows, axis=2).mean(axis=1)
    )
    return result, rows


def test_per_agent_policies_match_the_per_key_oracle(monkeypatch):
    shared = {"kind": "uniform", "range": [0.1, 0.6], "sign": "positive", "seed": 3}
    doc = _run_doc(
        n=7,
        p=3,
        roles=["honest"] * 2 + ["adversarial"] * 5,
        quantizer={"bits": 2, "interval_length": 1.0, "midpoint": 0.0},
        attack={
            "2": shared,
            "3": {"kind": "uniform", "range": [0.2, 0.9], "sign": "negative", "seed": 11},
            "4": {"kind": "constant", "value": [0.3, 0.2, 0.1], "sign": "negative"},
            "5": {"kind": "zero"},
            "6": dict(shared),  # an equal policy: one group, one table with agent 2's
        },
        iterations=40,
    )
    cfg = parse_config(doc)
    parsed = _parsed_attack(doc)
    assert parsed[2] == parsed[6] and parsed[2] is not parsed[6]
    # one group per distinct nonzero policy, in order of first appearance
    assert [(policy.kind, agents.tolist()) for policy, agents in cfg.plan.attacks] == [
        ("uniform", [2, 6]),
        ("uniform", [3]),
        ("constant", [4]),
    ]
    result, rows = _recorded_run(cfg, 4)
    # the same run with every attack drawn one key at a time
    monkeypatch.setattr(adversary, "attack_table", reference_attack_table)
    want, want_rows = _recorded_run(cfg, 4)
    assert len(rows) == len(want_rows) == 40
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(result.traces.mean_attack, want.traces.mean_attack)
    assert np.array_equal(result.traces.x_bar, want.traces.x_bar)
    assert np.all(rows[0][2] > 0) and np.all(rows[0][3] < 0)
    assert np.array_equal(rows[7][4], [-0.3, -0.2, -0.1])
    assert not rows[7][[0, 1, 5]].any()


def test_zero_iterations_rejected():
    with pytest.raises(Exception):
        parse_config(_run_doc(iterations=0))


def test_nan_state_fails_the_invariant_check():
    # every comparison with NaN is false, so the check must be "not <= tol"
    nan_obj = LocalObjective(
        dimension=1,
        evaluate=lambda x: float("nan"),
        subgradient=lambda x, out=None: np.multiply(x, np.nan, out=out),
        mu=1.0,
        lipschitz=1.0,
        subgrad_bound=1.0,
        x_star=np.zeros(1),
    )
    with pytest.raises(engine.BoundViolationError, match="k=0"):
        plan = engine.plan(
            attacks={},
            quantizer=None,
            topology=build_complete(2),
            objective=nan_obj,
            feasible=BOX1,
            alpha=0.5,
            iterations=3,
        )
        engine.run(plan, 0)


def _parsed_attack(doc) -> dict:
    """The document's agent -> policy map as the parser reads it, zero
    policies included: the roles apart from the plan's masks and groups."""
    errors = {"attack": []}
    attack = config._parse_attack(doc.get("attack"), doc["roles"], doc["p"], errors)
    assert errors == {"attack": []}
    return attack


def _oracle_run(cfg, doc, seed):
    """The per-round reference run of ``run_single(cfg, seed)``, with the
    roles of ``doc``, the document ``cfg`` was parsed from."""
    plan = cfg.plan
    return reference_run(
        _parsed_attack(doc),
        plan.quantizer,
        plan.topology,
        plan.objective,
        plan.feasible,
        float(plan.alpha),
        plan.iterations,
        seed=seed,
        adversary_quantizes=doc.get("adversary_quantizes", False),
    )


def _blocked(monkeypatch, rounds_per_block, n, p):
    """Make runs of n agents in p dimensions, planned after this call,
    reduce every ``rounds_per_block`` rounds; returns the list of block
    sizes seen."""
    sizes = []
    record = engine._record_block

    def counting(trace, start, iterates, *rest):
        sizes.append(len(iterates) - 1)
        return record(trace, start, iterates, *rest)

    per_round = 8 * n * p + engine._ROUND_VIEW_BYTES  # a round's rows and views
    monkeypatch.setattr(engine, "BLOCK_BYTES", per_round * rounds_per_block)
    monkeypatch.setattr(engine, "_record_block", counting)
    return sizes


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    p=st.integers(min_value=1, max_value=17),
    adversaries=st.integers(min_value=0, max_value=3),
    attack=st.sampled_from(["uniform", "constant", "zero", "mixed"]),
    bits=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    adversary_quantizes=st.booleans(),
    rounds_per_block=st.integers(min_value=1, max_value=6),
    blocks=st.integers(min_value=2, max_value=5),
    last=st.integers(min_value=1, max_value=6),
    box=st.sampled_from(["constant", "per-coordinate", "zero lower side"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(  # every kind in one map, over four blocks
    n=5, p=2, adversaries=3, attack="mixed", bits=2, adversary_quantizes=False,
    rounds_per_block=3, blocks=4, last=2, box="constant", seed=7,
)
@example(  # the same against (n, p) tiles
    n=5, p=2, adversaries=3, attack="mixed", bits=2, adversary_quantizes=False,
    rounds_per_block=3, blocks=4, last=2, box="per-coordinate", seed=7,
)
def test_block_columns_match_the_per_round_oracle(
    n, p, adversaries, attack, bits, adversary_quantizes, rounds_per_block, blocks, last, box,
    seed,
):
    # runs span 2-5 blocks, the last one partial whenever last < rounds_per_block;
    # "mixed" is a per-agent map whose adversaries cycle through constant,
    # uniform and zero, so a second group follows the first.  A constant box
    # is clipped against 0-d bounds, a zero side included, and a
    # per-coordinate one against (n, p) tiles (at p = 1 it is constant)
    adversaries = min(adversaries, n - 1)
    last = min(last, rounds_per_block)
    iterations = (blocks - 1) * rounds_per_block + last
    rng = np.random.default_rng(seed)
    sign = str(rng.choice(["positive", "negative"]))
    kinds = ["constant", "uniform", "zero"]
    policies = {
        "uniform": {"kind": "uniform", "range": [0.0, 0.8], "sign": sign, "seed": seed},
        "constant": {
            "kind": "constant",
            "value": rng.uniform(0.05, 0.9, size=p).tolist(),
            "sign": sign,
        },
        "zero": {"kind": "zero"},
    }
    policy = policies.get(attack) or {
        str(n - adversaries + j): policies[kinds[j % 3]] for j in range(adversaries)
    }
    lo, hi = (0.0 if box == "zero lower side" else -1.0), 1.0
    if box == "per-coordinate":
        lo, hi = rng.uniform(-2.0, -0.5, size=p).tolist(), rng.uniform(0.5, 2.0, size=p).tolist()
    doc = _run_doc(
        n=n,
        p=p,
        objective={"name": "quadratic", "box": {"lo": lo, "hi": hi}},
        roles=["honest"] * (n - adversaries) + ["adversarial"] * adversaries,
        quantizer=None if bits is None else {"bits": bits, "interval_length": 1.0},
        adversary_quantizes=adversary_quantizes,
        alpha=float(rng.uniform(0.1, 0.9)),
        iterations=iterations,
    )
    if adversaries:
        doc["attack"] = policy
    with pytest.MonkeyPatch.context() as mp:
        sizes = _blocked(mp, rounds_per_block, n, p)
        cfg = parse_config(doc)
        result = run_single(cfg, seed)
    assert sizes == [rounds_per_block] * (blocks - 1) + [last]
    vector = box == "per-coordinate" and p > 1
    assert [bound.shape for bound in cfg.plan.bounds] == [(n, p) if vector else ()] * 2

    traces, final = _oracle_run(cfg, doc, seed)
    honest = np.array([role == "honest" for role in doc["roles"]])
    want = reference_columns(traces, final, honest, cfg.plan.objective.x_star)
    got = result.traces
    assert len(got) == iterations
    assert sorted(f.name for f in fields(got)) == sorted(want)
    for name, column in want.items():
        assert np.array_equal(getattr(got, name), column), name
    assert np.array_equal(got.x_bar[1:], [t.x_bar_next for t in traces])
    assert np.array_equal(result.final_iterates, final)


def _centred_quadratic(centres) -> LocalObjective:
    """Agent i's f_i(x) = ||x - centres[i]||^2 / 2, honouring ``out``;
    the sum's minimizer is the mean centre."""
    centres = np.asarray(centres, dtype=float)
    return LocalObjective(
        dimension=centres.shape[1],
        evaluate=lambda x: 0.5 * np.sum((x - centres) ** 2, axis=-1),
        subgradient=lambda x, out=None: np.subtract(x, centres, out=out),
        mu=1.0,
        lipschitz=1.0,
        subgrad_bound=2.0 * np.sqrt(centres.shape[1]),
        x_star=centres.mean(axis=0),
    )


@pytest.mark.parametrize("bits", [None, 2])
def test_interleaved_objectives_match_the_per_round_oracle(bits):
    # agents 0, 2, 4 and 1, 3, 5 have two local objectives and agents 6-7
    # share a third one: one network objective with a centre per row
    n, p = 8, 3
    box = FeasibleSet(lo=np.full(p, -1.0), hi=np.full(p, 1.0))
    even, odd, tail = [0.0, 0.0, 0.0], [0.5, -0.25, 0.0], [-0.5, 0.5, 0.25]
    objective = _centred_quadratic([even, odd] * 3 + [tail, tail])
    run = dict(
        attacks={5: adversary.AttackPolicy(kind="uniform", low=0.0, high=0.8, seed=3)},
        quantizer=None if bits is None else UniformQuantizer(bits=bits, interval_length=1.0),
        topology=build_complete(n),
        objective=objective,
        feasible=box,
        alpha=0.4,
        iterations=12,
    )
    result = engine.run(engine.plan(**run), 2)
    traces, final = reference_run(**run, seed=2)
    honest = np.arange(n) != 5
    for name, column in reference_columns(traces, final, honest, objective.x_star).items():
        assert np.array_equal(getattr(result.traces, name), column), name
    assert np.array_equal(result.final_iterates, final)


@pytest.mark.parametrize("n, p", [(engine.RANK_ONE_AGENTS, 3), (150, 1), (150, 3)])
@pytest.mark.parametrize("bits", [None, 2])
@pytest.mark.parametrize("box", ["constant", "per-coordinate"])
def test_rank_one_mixing_matches_the_per_round_oracle(monkeypatch, n, p, bits, box):
    # complete graphs that mix in the rank-one form, over blocks of 3, 3 and
    # 1 rounds, with constant and uniform adversaries that push past the box
    # (a per-coordinate one at p > 1 is clipped against (n, p) tiles); at
    # n = 150 the rows' d - c - 1 take two values
    seed = 5
    rng = np.random.default_rng(n)
    lo, hi = -1.0, 1.0
    if box == "per-coordinate":
        lo, hi = rng.uniform(-2.0, -0.5, size=p).tolist(), rng.uniform(0.5, 2.0, size=p).tolist()
    adversaries = range(4, n, 9)
    policies = (
        {"kind": "constant", "value": rng.uniform(0.05, 0.9, size=p).tolist()},
        {"kind": "uniform", "range": [0.0, 0.8], "sign": "negative", "seed": 3},
    )
    doc = _run_doc(
        n=n,
        p=p,
        objective={"name": "quadratic", "box": {"lo": lo, "hi": hi}},
        roles=["adversarial" if i in adversaries else "honest" for i in range(n)],
        quantizer=None if bits is None else {"bits": bits, "interval_length": 1.0},
        attack={str(agent): policies[j % 2] for j, agent in enumerate(adversaries)},
        alpha=0.4,
        iterations=7,
    )
    sizes = _blocked(monkeypatch, 3, n, p)
    cfg = parse_config(doc)
    result = run_single(cfg, seed)
    assert cfg.plan.rank_one is not None
    vector = box == "per-coordinate" and p > 1
    assert [bound.shape for bound in cfg.plan.bounds] == [(n, p) if vector else ()] * 2
    assert sizes == [3, 3, 1]

    traces, final = _oracle_run(cfg, doc, seed)
    honest = np.array([role == "honest" for role in doc["roles"]])
    want = reference_columns(traces, final, honest, cfg.plan.objective.x_star)
    for name, column in want.items():
        assert np.array_equal(getattr(result.traces, name), column), name
    assert np.array_equal(result.final_iterates, final)


@pytest.mark.parametrize("n, p", [(engine.RANK_ONE_AGENTS, 1), (150, 3)])
def test_rank_one_mixing_is_within_its_rounding_bound_of_the_exact_product(n, p):
    # exact mode (Q = X) with no gradient, so H is W Q alone.  Against W Q
    # in exact rationals, W's entries read as the floats they are, each
    # entry is off by at most (n + 4) eps times the size of its terms,
    # c sum_j |Q_j| + |Q_i|: n - 1 additions in the agent sum and five
    # more roundings, each within eps/2 of its result
    box = FeasibleSet(lo=np.full(p, -1.0), hi=np.full(p, 1.0))
    plan = engine.plan(
        {}, None, build_complete(n), make_objective("quadratic", p, box), box, 0.5, 1
    )
    q = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, p))
    out, scratch = np.full((2, n, p), np.nan)
    rank_one = (*plan.rank_one, np.full(p, np.nan))
    w = plan.topology.weights
    got = matrix_form_update(w, q, q, np.zeros((n, p)), 0.5, out, scratch, rank_one)
    assert got is out

    exact_w = [[Fraction(x) for x in row] for row in w.tolist()]
    exact_q = [[Fraction(x) for x in row] for row in q.tolist()]
    c = float(plan.rank_one[0])
    scale = c * np.abs(q).sum(axis=0) + np.abs(q)
    for i in range(n):
        exact = [sum(exact_w[i][j] * exact_q[j][k] for j in range(n)) for k in range(p)]
        error = [abs(Fraction(got[i, k]) - exact[k]) for k in range(p)]
        bound = (n + 4) * np.finfo(float).eps * scale[i]
        assert all(e <= Fraction(b) for e, b in zip(error, bound)), i


def test_the_rank_one_form_starts_at_a_complete_graph_of_128_agents():
    def plan_of(topology):
        return engine.plan(**_plan_inputs(topology=topology, attacks={}))

    assert engine.RANK_ONE_AGENTS == 128
    below, at = plan_of(build_complete(127)), plan_of(build_complete(128))
    assert below.rank_one is None
    c, column = at.rank_one
    w = at.topology.weights
    assert c.shape == () and c == w[0, 1] and column.shape == (128, 1)
    assert np.array_equal(column[:, 0], np.diag(w) - w[0, 1] - 1.0)
    assert not c.flags.writeable and not column.flags.writeable
    # the rule reads the graph, not how the config wrote it
    listed = build_from_edge_list(128, list(itertools.combinations(range(128), 2)))
    assert plan_of(listed).rank_one is not None
    ring = build_from_edge_list(400, [(i, (i + 1) % 400) for i in range(400)])
    assert plan_of(ring).rank_one is None


def test_an_objective_ignoring_out_fills_the_gradient_rows():
    # its subgradient returns a new array whatever ``out`` is; step passes
    # the gradient buffer as ``out``, whose rows must receive that array,
    # not keep the workspace's stale values
    n, p = 4, 3
    box = FeasibleSet(lo=np.full(p, -1.0), hi=np.full(p, 1.0))
    honouring = _centred_quadratic(np.tile([0.5, -0.25, 0.0], (n, 1)))
    ignoring = replace(honouring, subgradient=lambda x, out=None: honouring.subgradient(x))
    run = dict(
        attacks={},
        quantizer=UniformQuantizer(bits=2, interval_length=1.0),
        topology=build_complete(n),
        objective=ignoring,
        feasible=box,
        alpha=0.4,
        iterations=12,
    )
    result = engine.run(engine.plan(**run), 2)
    traces, final = reference_run(**run, seed=2)
    for name, column in reference_columns(traces, final, np.full(n, True), ignoring.x_star).items():
        assert np.array_equal(getattr(result.traces, name), column), name
    assert np.array_equal(result.final_iterates, final)


def test_saturation_is_tested_once_per_block(monkeypatch):
    # 3 blocks of 4, 4 and 2 rounds: one in_range call each, not one per round
    calls = []
    in_range = UniformQuantizer.in_range

    def counting(self, x):
        calls.append(np.shape(x))
        return in_range(self, x)

    sizes = _blocked(monkeypatch, 4, n=3, p=2)
    cfg = parse_config(
        _run_doc(
            n=3,
            p=2,
            roles=["honest"] * 3,
            objective={"name": "quadratic", "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
            quantizer={"bits": 2, "interval_length": 1.0},
            iterations=10,
        )
    )
    monkeypatch.setattr(UniformQuantizer, "in_range", counting)
    run_single(cfg, 0)
    assert sizes == [4, 4, 2]
    assert calls == [(4, 3, 2), (4, 3, 2), (2, 3, 2)]


def _objective_going_nan(after: int, p: int = 1) -> LocalObjective:
    """f(x) = ||x||^2/2 whose subgradient turns NaN from its call ``after`` on."""
    calls = 0

    def subgradient(x, out=None):
        nonlocal calls
        calls += 1
        return np.multiply(x, np.nan if calls > after else 1.0, out=out)

    return LocalObjective(
        dimension=p,
        evaluate=lambda x: 0.5 * float(x @ x),
        subgradient=subgradient,
        mu=1.0,
        lipschitz=1.0,
        subgrad_bound=1.0,
        x_star=np.zeros(p),
    )


def test_nan_in_a_later_block_raises_at_its_round(monkeypatch):
    # at p = 16 the block means go through einsum, which may keep another
    # NaN than numpy's mean: the run must still raise at the same round
    for p in (1, 16):
        box = FeasibleSet(lo=np.full(p, -1.0), hi=np.full(p, 1.0))

        def nan_run(run):
            # one subgradient call per round
            objective = _objective_going_nan(after=7, p=p)
            return run({}, None, build_complete(2), objective, box, 0.5, 12)

        with pytest.raises(engine.BoundViolationError) as want:
            nan_run(reference_run)
        with monkeypatch.context() as patch:
            sizes = _blocked(patch, 3, n=2, p=p)
            with pytest.raises(engine.BoundViolationError) as got:
                nan_run(lambda *args: engine.run(engine.plan(*args), 0))
        assert "k=7" in str(want.value)
        assert str(got.value) == str(want.value)
        assert sizes == [3, 3, 3]  # rounds 6..8 are the third block


def test_block_memory_does_not_grow_with_iterations():
    # one (K, n, p) array would hold 51.2 MB; the run keeps its (K, n) and
    # (K, p) columns plus a few (rounds, n, p) block buffers of 1 MiB
    n, p, iterations = 50, 64, 2000
    cfg = parse_config(
        _run_doc(
            n=n,
            p=p,
            roles=["honest"] * 45 + ["adversarial"] * 5,
            attack={"kind": "constant", "value": [0.05] * p},
            iterations=iterations,
        )
    )
    tracemalloc.start()
    try:
        result = run_single(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t = result.traces
    columns = sum(getattr(t, f.name).nbytes for f in fields(t))
    assert peak < columns + 12 * engine.BLOCK_BYTES < iterations * n * p * 8 / 2

    # at n = p = 1 a round slot's views outweigh its rows many times over; the
    # workspace a run keeps holds them, and the block size counts them
    cfg = parse_config(_run_doc(iterations=50_000))
    tracemalloc.start()
    try:
        result = run_single(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t = result.traces
    assert peak < sum(getattr(t, f.name).nbytes for f in fields(t)) + 12 * engine.BLOCK_BYTES


def test_a_round_allocates_nothing():
    # a broadcast and a step into preallocated buffers, as the round loop
    # runs them, with either form a plan holds a box side in: 0-d for a
    # constant side, an (n, p) tile otherwise; one (n, p) temporary would be
    # 32 KiB
    n = p = 64
    box = FeasibleSet(lo=np.full(p, -1.0), hi=np.full(p, 1.0))
    quantizer = UniformQuantizer(bits=3, interval_length=1.0)
    objective = make_objective("quadratic", p, box)
    weights = build_complete(n).weights
    full_precision = (np.arange(n) >= 60)[:, None]
    state, sent, attack, next_state, gradient, h_af, xi = np.random.default_rng(0).uniform(
        -1.5, 1.5, size=(7, n, p)
    )
    alpha = np.array(0.5)
    sides = FeasibleSet(lo=np.linspace(-1.5, -0.5, p), hi=np.linspace(0.5, 1.5, p))
    zero_d, tiles = _box_plan(box, n).bounds, _box_plan(sides, n).bounds
    assert [bound.shape for bound in zero_d + tiles] == [(), (), (n, p), (n, p)]
    # and either mixing form: the BLAS product or a complete graph's rank
    # one, its column broadcast to (n, p) rows as a run passes it
    c = weights[0, 1]
    column = np.broadcast_to(np.diag(weights)[:, None] - c - 1.0, (n, p)).copy()
    rank_one = (np.array(c), column, np.empty(p))

    def one_round(bounds, mixing):
        broadcast_phase(state, quantizer, full_precision, sent, xi)
        out = (next_state, gradient, h_af, xi)
        engine.step(state, sent, attack, weights, objective, bounds, alpha, out, mixing)

    for bounds, mixing in ((zero_d, None), (tiles, None), (zero_d, rank_one)):
        one_round(bounds, mixing)  # numpy's first-call set-up is not a round's cost
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            one_round(bounds, mixing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 1024


_REDUCTION_SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1e-160, 1e200, -1e200]
)


def _numpy_python_entries(plan) -> dict:
    """Entries into the functions of numpy's Python files during one run of
    ``plan``, keyed ``file:function`` with the file relative to numpy's
    package directory."""
    root = os.path.dirname(np.__file__) + os.sep
    entries: dict = {}

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(root):
            key = f"{code.co_filename[len(root):]}:{code.co_name}"
            entries[key] = entries.get(key, 0) + 1

    engine.run(plan, 0)  # numpy's first-call set-up is not a run's cost
    sys.setprofile(hook)
    try:
        engine.run(plan, 0)
    finally:
        sys.setprofile(None)
    return entries


def test_a_round_enters_no_numpy_python_wrapper():
    # one block each, so every numpy Python frame left is per run or per
    # block, none per round; at 128 agents the graph mixes in rank one
    for n in (10, engine.RANK_ONE_AGENTS):
        roles = ["honest"] * (n - 3) + ["adversarial"] * 3
        short, long = (
            _numpy_python_entries(
                parse_config(dict(preset_document("fig2a"), n=n, roles=roles, iterations=k)).plan
            )
            for k in (2, 50)
        )
        assert short and short == long, n


def test_the_broadcast_copy_is_numpys_c_copyto():
    assert engine._copyto is np.copyto._implementation
    assert isinstance(engine._copyto, types.BuiltinFunctionType)


def test_the_projection_is_the_clip_ufunc():
    assert isinstance(engine._clip, np.ufunc) and engine._clip.__name__ == "clip"


def test_block_means_of_a_wide_state_go_through_einsum(monkeypatch):
    summed = []

    def einsum(subscripts, x):
        summed.append(x.shape)
        return np.einsum(subscripts, x)

    monkeypatch.setattr(engine, "_einsum", einsum)
    wide, narrow = [(5, 400, 16), (1, 1, 2)], [(5, 400, 1), (5, 400), (1, 1)]
    for shape in wide + narrow:
        engine._means(np.ones(shape))
    assert summed == wide


@pytest.mark.parametrize("p", [1, 16])
def test_the_projection_equals_ndarray_clip_bit_for_bit(monkeypatch, p):
    # the round's inputs with the reduction specials scattered in, against
    # (n, p) bounds holding both signed zeros
    n = 10
    rng = np.random.default_rng(p)
    state, sent, attack = rng.uniform(-2, 2, (3, n, p))
    for x in (state, sent, attack):
        flat = x.reshape(-1)
        hits = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
        flat[hits] = rng.choice(_REDUCTION_SPECIALS, size=hits.size)
    bounds = rng.choice([-1.0, -0.0, 0.0], (n, p)), rng.choice([0.0, -0.0, 1.0], (n, p))
    box = FeasibleSet(lo=np.full(p, -1.0), hi=np.full(p, 1.0))
    objective, weights = make_objective("quadratic", p, box), build_complete(n).weights

    def step_bytes() -> bytes:
        out = np.empty((4, n, p))
        with np.errstate(all="ignore"):
            engine.step(state, sent, attack, weights, objective, bounds, np.array(0.5), out)
        return out.tobytes()

    got = step_bytes()
    with monkeypatch.context() as m:
        m.setattr(engine, "_clip", lambda h, lo, hi, out: h.clip(lo, hi, out=out))
        assert step_bytes() == got
    # the update is -0.0 only where W Q is, which matmul's sums do not give, so
    # -0.0 against a +0.0 bound goes to the projection directly
    h = np.tile(_REDUCTION_SPECIALS, (n, p))
    for lo, hi in ((np.zeros_like(h), np.ones_like(h)), (np.array(0.0), np.array(1.0))):
        got = engine._clip(h, lo, hi, np.empty_like(h))
        assert got.tobytes() == h.clip(lo, hi).tobytes()


def _box_plan(box: FeasibleSet, n: int, iterations: int = 1) -> engine.RunPlan:
    """The plan of an exact-mode run of n honest agents on ``box``."""
    objective = make_objective("quadratic", box.dimension, box)
    return engine.plan({}, None, build_complete(n), objective, box, 0.5, iterations)


def _step_bounds(monkeypatch) -> list:
    """Make every round's ``step`` record a copy of the bounds it is passed."""
    seen = []
    step = engine.step

    def recording(*args):
        seen.append(tuple(bound.copy() for bound in args[5]))
        return step(*args)

    monkeypatch.setattr(engine, "step", recording)
    return seen


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-2.0, 3.0), (-0.5, 5e-324)])
@pytest.mark.parametrize("p", [1, 3])
def test_a_constant_nonzero_box_gives_0d_clip_bounds(monkeypatch, lo, hi, p):
    plan = _box_plan(FeasibleSet(lo=np.full(p, lo), hi=np.full(p, hi)), 4, iterations=3)
    assert [bound.shape for bound in plan.bounds] == [(), ()]
    assert [float(bound) for bound in plan.bounds] == [lo, hi]
    assert not any(bound.flags.writeable for bound in plan.bounds)
    seen = _step_bounds(monkeypatch)
    engine.run(plan, 0)
    assert len(seen) == 3
    for bounds in seen:
        assert [bound.tobytes() for bound in bounds] == [b.tobytes() for b in plan.bounds]


@pytest.mark.parametrize(
    "lo, hi",
    [
        (0.0, 1.0),  # a zero lower side
        (-1.0, -0.0),  # a zero upper side, of either sign
        (-1.0, 0.0),
        ([-1.0, -2.0], [1.0, 2.0]),  # per-coordinate bounds
        ([-1.0, -1.0], [1.0, 2.0]),  # one side constant, the other not
    ],
)
def test_a_zero_or_per_coordinate_box_gives_plan_clip_bounds(monkeypatch, lo, hi):
    # a side whose entries are bit-equal, a zero of either sign included, is
    # 0-d; any other is a read-only (n, p) tile of it; every round clips
    # against the plan's own pair
    n, p = 4, 2
    box = FeasibleSet(lo=np.broadcast_to(lo, p), hi=np.broadcast_to(hi, p))
    plan = _box_plan(box, n, iterations=2)
    want = []
    for side, bound in zip((box.lo, box.hi), plan.bounds):
        constant = side.tobytes() == np.full(p, side[0]).tobytes()
        assert bound.shape == (() if constant else (n, p))
        assert np.broadcast_to(bound, (n, p)).tobytes() == np.tile(side, (n, 1)).tobytes()
        assert not bound.flags.writeable
        want.append(bound.tobytes())
    seen = _step_bounds(monkeypatch)
    engine.run(plan, 0)
    assert len(seen) == 2
    for bounds in seen:
        assert [bound.tobytes() for bound in bounds] == want
        assert [bound.shape for bound in bounds] == [b.shape for b in plan.bounds]


@pytest.mark.parametrize("shape", [(10, 3), (5, 10, 3)])
def test_0d_and_row_clip_bounds_agree_except_at_a_signed_zero(shape):
    # the specials as a round's (n, p) state and as a block's (m, n, p)
    # attack-free update, each at several places
    size = int(np.prod(shape))
    h = np.random.default_rng(size).permutation(np.resize(_REDUCTION_SPECIALS, size))
    h = h.reshape(shape)
    n, p = shape[-2:]

    def clipped(lo, hi):
        zero_d = engine._clip(h, np.array(lo), np.array(hi), np.empty(shape))
        rows = engine._clip(h, np.full((n, p), lo), np.full((n, p), hi), np.empty(shape))
        return zero_d.tobytes(), rows.tobytes()

    for lo, hi in [(-1.0, 1.0), (-2.0, 3.0), (-1e200, 1e-160), (-np.inf, 5e-324)]:
        zero_d, rows = clipped(lo, hi)
        assert zero_d == rows == h.clip(lo, hi).tobytes()
    # a zero entry whose sign differs from a zero bound's: the 0-d bound keeps
    # the entry's zero and the rows give the bound's.  A constant box with a
    # zero side clips through the 0-d form, and no artifact shows the sign:
    # every value written is a norm, a bound or a count
    h = np.full(shape, -0.0)
    assert clipped(0.0, 1.0) == (h.tobytes(), np.zeros(shape).tobytes())
    h = np.zeros(shape)
    assert clipped(-1.0, -0.0) == (h.tobytes(), np.full(shape, -0.0).tobytes())


@pytest.mark.parametrize(
    "p, n, m",
    [
        (p, n, m)
        # both branches of _means (p = 1 and p > 1) around numpy's unroll
        # widths, at most 2**16 entries per round
        for p in (1, 2, 3, 8, 16, 17, 64, 1024)
        for n in (1, 7, 8, 9, 10, 400, 2048)
        for m in (1, 5)
        if n * p <= 1 << 16
    ],
)
def test_block_reductions_equal_numpy_bit_for_bit(m, n, p):
    # magnitudes from subnormal to 1e200, whose square overflows, with signed
    # zeros, infinities and NaN scattered in
    rng = np.random.default_rng([m, n, p])
    x = rng.uniform(-1, 1, (m, n, p)) * 10.0 ** rng.integers(-320, 201, (m, n, p))
    flat = x.reshape(-1)
    hits = rng.choice(flat.size, size=min(flat.size, 12), replace=False)
    flat[hits] = rng.choice(_REDUCTION_SPECIALS, size=hits.size)
    # and entries of one magnitude, where the order of a sum shows in its
    # rounding
    level = rng.uniform(-1, 1, (m, n, p))
    with np.errstate(over="ignore", invalid="ignore"):
        for block in (x, x[:, 0], level):  # (m, n, p) rows and (m, p) means
            assert engine._norms(block).tobytes() == np.linalg.norm(block, axis=-1).tobytes()
        for block in (x, level, np.linalg.norm(x, axis=-1), np.linalg.norm(level, axis=-1)):
            got, want = engine._means(block), block.mean(axis=1)
            if block.ndim == 3 and p > 1:
                # which of two NaNs einsum's sum keeps follows its operand
                # order, which is not add.reduce's
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                got, want = got[~nan], want[~nan]
            assert got.tobytes() == want.tobytes()


def _plan_inputs(**overrides) -> dict:
    n = 3
    inputs = dict(
        attacks={2: adversary.AttackPolicy(kind="uniform", low=0.0, high=0.5, seed=1)},
        quantizer=UniformQuantizer(bits=2, interval_length=1.0),
        topology=build_complete(n),
        objective=make_objective("quadratic", 1, BOX1),
        feasible=BOX1,
        alpha=0.5,
        iterations=4,
    )
    inputs.update(overrides)
    return inputs


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"iterations": 0}, "need at least one iteration, got 0"),
        (
            {"objective": make_objective("quadratic", 2, FeasibleSet(lo=[-1, -1], hi=[1, 1]))},
            "objective dimension 2 != box dimension 1",
        ),
        ({"alpha": 0.0}, "step size must be positive, got 0.0"),
        (
            {"attacks": dict.fromkeys(range(3), adversary.AttackPolicy(kind="zero"))},
            "at least one honest agent is required",
        ),
        ({"explicit_init": np.zeros((3, 2))}, r"explicit init has shape \(3, 2\)"),
        ({"explicit_init": np.full((3, 1), 2.0)}, "explicit initial point outside"),
        ({"attacks": {-1: adversary.AttackPolicy(kind="zero")}}, "agent ids must lie in"),
        ({"attacks": {3: adversary.AttackPolicy(kind="zero")}}, r"agent ids must lie in \[0, 3\), got 3"),
        ({"attacks": {1.0: adversary.AttackPolicy(kind="zero")}}, "must be integers, got 1.0"),
        ({"attacks": {True: adversary.AttackPolicy(kind="zero")}}, "must be integers, got True"),
        (
            {"objective": replace(make_objective("quadratic", 1, BOX1), x_star=[5.0])},
            r"x\* lies outside the box",
        ),
        ({"attacks": {0: None}}, "agent 0's attack must be an AttackPolicy, got None"),
        ({"attacks": {0: "uniform"}}, "agent 0's attack must be an AttackPolicy, got 'uniform'"),
        # a quantizer the first round cannot apply to the (3, 1) state
        (
            {"quantizer": UniformQuantizer(1, np.ones((4, 1)))},
            r"quantizer.step of shape \(4, 1\) does not broadcast to \(3, 1\)",
        ),
        (
            {"quantizer": UniformQuantizer(1, np.ones((3, 2)))},
            r"quantizer.step of shape \(3, 2\) does not broadcast to \(3, 1\)",
        ),
        (
            {"quantizer": UniformQuantizer(1, 1.0, np.zeros(3))},
            r"quantizer.midpoint of shape \(3,\) does not match \(3, 1\)",
        ),
        # a non-finite step once ran, to die at k = 0 with an invariant error
        ({"alpha": np.nan}, "step size must be finite, got nan"),
        ({"alpha": np.inf}, "step size must be finite, got inf"),
        # a constant value of the wrong length once raised only mid-run
        (
            {"attacks": {2: adversary.AttackPolicy(kind="constant", value=(0.1, 0.2))}},
            "agent 2's constant attack has dimension 2, expected 1",
        ),
    ],
)
def test_the_plan_rejects_what_no_run_can_take(overrides, message):
    with pytest.raises(ValueError, match=message):
        engine.plan(**_plan_inputs(**overrides))


def test_a_plan_keeps_its_own_copy_of_the_initial_iterates():
    # a run is deterministic given its plan and seed: changing the caller's
    # array after plan() changes no run, and the plan's copy is read-only
    init = np.array([[0.5], [-0.25], [0.75]])
    plan = engine.plan(**_plan_inputs(explicit_init=init))
    before = [engine.run(plan, seed) for seed in (0, 1)]
    init[...] = 0.0
    assert not plan.explicit_init.flags.writeable
    assert not np.shares_memory(plan.explicit_init, init)
    for seed, want in zip((0, 1), before):
        got = engine.run(plan, seed)
        assert got.final_iterates.tobytes() == want.final_iterates.tobytes()
        for f in fields(got.traces):
            assert getattr(got.traces, f.name).tobytes() == getattr(want.traces, f.name).tobytes()
    assert plan.explicit_init[:, 0].tolist() == [0.5, -0.25, 0.75]


def test_the_plan_is_built_at_parse_time_and_kept(monkeypatch):
    # the plan is the config's one home of its run inputs: a field set by
    # parse_config's one engine.plan call, never rebuilt or replaced by a run
    built = []
    plan_of = engine.plan

    def counting(*args, **kwargs):
        built.append(plan_of(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(engine, "plan", counting)
    cfg = parse_config(
        _run_doc(
            n=3,
            p=2,
            roles=["honest"] * 2 + ["adversarial"],
            attack={"kind": "uniform", "range": [0.0, 0.5]},
            iterations=3,
        )
    )
    points = [c for _, c in expand_grid({"base": _run_doc(), "grid": {"alpha": [0.2, 0.4]}})]
    configs = (cfg, *points)
    assert len(built) == 3 and all(c.plan is plan for c, plan in zip(configs, built))
    assert {f.name for f in fields(ExperimentConfig)} == {"plan", "seeds", "strict", "build_key"}
    assert "topology" in engine.RunPlan._fields and "weights" not in engine.RunPlan._fields
    plan = cfg.plan
    run_single(cfg, 0)
    run_single(cfg, 1)
    assert cfg.plan is plan and len(built) == 3
    # the points of one sweep share the box, the objective and the topology
    first, second = points
    assert first.plan is not second.plan
    assert first.plan.feasible is second.plan.feasible
    assert first.plan.objective is second.plan.objective
    assert first.plan.topology is second.plan.topology
    # O(n + p) and read-only: nothing of shape (n, p) or (K, ...) of its own
    arrays = [v for v in plan._asdict().values() if isinstance(v, np.ndarray)]
    arrays += [agents for _, agents in plan.attacks]
    assert all(not a.flags.writeable and a.size <= 3 + 2 for a in arrays)


def test_threads_running_one_plan_match_sequential_runs():
    plan = engine.plan(**_plan_inputs(iterations=300))
    seeds = [3, 4, 5, 6]
    want = {seed: engine.run(plan, seed) for seed in seeds}
    barrier = threading.Barrier(2)
    got = {}

    def worker(own):
        barrier.wait()
        for seed in own:
            got[seed] = engine.run(plan, seed)

    threads = [threading.Thread(target=worker, args=(seeds[i::2],)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for seed in seeds:
        for f in fields(engine.Trace):
            a, b = getattr(got[seed].traces, f.name), getattr(want[seed].traces, f.name)
            assert a.tobytes() == b.tobytes(), (seed, f.name)
        assert got[seed].final_iterates.tobytes() == want[seed].final_iterates.tobytes()


def _run_bytes(result) -> list:
    traces = result.traces
    return [getattr(traces, f.name).tobytes() for f in fields(traces)] + [
        result.final_iterates.tobytes()
    ]


def test_threads_keep_their_own_workspace():
    # two threads run one plan's seeds at once, switching often, each after
    # a run of the same shape in it; a shared workspace would mix runs
    plan = engine.plan(**_plan_inputs(iterations=300))
    seeds = [3, 4, 5, 6]
    want = {seed: _run_bytes(engine.run(plan, seed)) for seed in seeds}
    barrier = threading.Barrier(2)
    got, kept = {}, []

    def worker(own):
        engine.run(plan, 0)
        barrier.wait()
        for seed in own:
            got[seed] = _run_bytes(engine.run(plan, seed))
        kept.append(engine._spare.workspace[0])  # the states buffer

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seeds[i::2],)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    main = engine._spare.workspace[0]
    assert len(kept) == 2
    pairs = [(kept[0], kept[1]), (kept[0], main), (kept[1], main)]
    assert not any(np.shares_memory(a, b) for a, b in pairs)


def _in_new_thread(function):
    """``function()`` called in a thread of its own, which holds no
    workspace yet."""
    out = []
    thread = threading.Thread(target=lambda: out.append(function()))
    thread.start()
    thread.join()
    return out[0]


def _recording_builds(monkeypatch) -> list:
    """Empty this thread's spare workspace and return the list of the
    (block, n, p) shapes of the workspaces that runs build from now on."""
    builds = []
    new_workspace = engine._new_workspace

    def recording(*shape):
        builds.append(shape)
        return new_workspace(*shape)

    monkeypatch.setattr(engine, "_new_workspace", recording)
    monkeypatch.setattr(engine._spare, "workspace", None, raising=False)
    return builds


def test_runs_reusing_a_workspace_match_fresh_runs(monkeypatch):
    # plans of one shape, over blocks of 3, 3 and 1 rounds, run back to back
    # in one thread, which keeps one workspace for all of them, and one plan
    # that fails mid-run and drops the buffers it dirtied: every run must
    # equal a fresh one, run in a new thread
    n, p, iterations = 5, 2, 7
    sizes = _blocked(monkeypatch, 3, n, p)
    topology = build_complete(n)
    boxes = (
        FeasibleSet(lo=np.full(p, -1.0), hi=np.full(p, 1.0)),
        FeasibleSet(lo=np.array([-0.5, -3.0]), hi=np.array([2.0, 0.25])),
    )
    constant = adversary.AttackPolicy("constant", value=(0.4, 0.1))
    uniform = adversary.AttackPolicy("uniform", sign="negative", low=0.1, high=0.9, seed=5)
    zero = adversary.AttackPolicy("zero")
    attack_sets = (
        {},
        {3: constant, 4: constant},
        {1: uniform, 4: uniform},
        {2: zero},
        {1: constant, 3: uniform, 4: zero},
    )
    objectives = [make_objective("quadratic", p, box) for box in boxes]
    plans = [
        engine.plan(attacks, quantizer, topology, objective, box, 0.3, iterations)
        for box, objective in zip(boxes, objectives)
        for attacks in attack_sets
        for quantizer in (None, UniformQuantizer(bits=2, interval_length=2.0))
    ]
    failing = engine.plan({}, None, topology, _objective_going_nan(4, p), boxes[1], 0.3, iterations)
    assert {plan.block for plan in plans} == {failing.block} == {3}
    want = [
        _in_new_thread(lambda: _run_bytes(engine.run(plan, seed)))
        for seed, plan in enumerate(plans)
    ]
    builds = _recording_builds(monkeypatch)
    half = len(plans) // 2
    got = [_run_bytes(engine.run(plan, seed)) for seed, plan in enumerate(plans[:half])]
    with pytest.raises(engine.BoundViolationError, match="k=4"):
        engine.run(failing, 0)
    got += [_run_bytes(engine.run(plan, seed)) for seed, plan in enumerate(plans[half:], half)]
    assert got == want
    assert builds == [(3, n, p)] * 2  # the failing run took the first and raised
    assert sizes == [3, 3, 1] * (len(plans) + half) + [3, 3] + [3, 3, 1] * (len(plans) - half)


def test_a_seed_loop_builds_one_workspace(monkeypatch, tmp_path):
    built = []
    new_workspace = engine._new_workspace

    def recording(*shape):
        # a new shape drops the thread's last workspace before its build
        assert [ref() for _, ref in built] == [None] * len(built)
        workspace = new_workspace(*shape)
        built.append((shape, weakref.ref(workspace[0])))  # the states buffer
        return workspace

    monkeypatch.setattr(engine, "_new_workspace", recording)
    monkeypatch.setattr(engine._spare, "workspace", None, raising=False)
    cfg = parse_config(preset_document("fig2a", seeds=list(range(20))))
    run_experiment(cfg, tmp_path / "run")
    assert [shape for shape, _ in built] == [(200, 10, 1)]
    # the points of a sweep differ in their plans, not in their shape, and
    # so do later runs of the same shape
    sweep({"base": preset_document("fig2a", seeds=[0, 1]), "grid": {"alpha": [0.3, 0.7]}}, tmp_path)
    engine.run(cfg.plan, 0)
    assert len(built) == 1
    engine.run(parse_config(_run_doc(iterations=7)).plan, 0)
    assert [shape for shape, _ in built] == [(200, 10, 1), (7, 1, 1)]
    assert built[-1][1]() is engine._spare.workspace[0]  # the one kept after the run


def test_a_run_inside_a_run_builds_its_own_workspace(monkeypatch):
    # an objective that runs a plan of the same shape from its first
    # subgradient call: the inner run may not take the outer one's buffers
    inner = engine.plan(**_plan_inputs(iterations=30))
    quadratic = inner.objective
    inner_runs = []

    def subgradient(x, out=None):
        if not inner_runs:
            inner_runs.append(_run_bytes(engine.run(inner, 1)))
        return quadratic.subgradient(x, out=out)

    objective = replace(quadratic, subgradient=subgradient)
    outer = engine.plan(**_plan_inputs(iterations=30, objective=objective))
    want = _in_new_thread(lambda: _run_bytes(engine.run(outer, 0)))
    inner_want = inner_runs.pop()
    built = _recording_builds(monkeypatch)
    assert _run_bytes(engine.run(outer, 0)) == want
    assert inner_runs == [inner_want]
    assert built == [(30, 3, 1)] * 2


def test_step_size_above_one_warns_from_the_run():
    cfg = parse_config(_run_doc(alpha=1.5, iterations=3))
    with pytest.warns(RuntimeWarning, match="projection-error bound assumes alpha <= 1"):
        run_single(cfg, 0)


def test_trace_length_and_clear():
    cfg = parse_config(_run_doc(n=3, roles=["honest"] * 3, iterations=7))
    t = run_single(cfg, 0).traces
    assert len(t) == 7 and t.x_bar.shape == (8, 1) and t.per_agent_err.shape == (8, 3)
    assert t.err_all.shape == t.err_honest.shape == (8,) and t.delta_bar.shape == (7,)
    t.clear()
    assert len(t) == 0 and t.x_bar.shape == (0, 1) and t.per_agent_err.shape == (0, 3)


def test_lemma1_quantities_recorded(preset_runs):
    cfg, results = preset_runs["fig2b"]
    t = results[0].traces
    n = cfg.n
    subgrad_bound = cfg.plan.objective.subgrad_bound
    rhs = np.sqrt(8) * t.delta_bar[10] + np.sqrt(2) * subgrad_bound * cfg.plan.alpha / n
    assert t.lemma1_rhs[10] == pytest.approx(rhs)


def test_attack_free_residual_without_adversaries():
    # agent 0 quantizes 0.49 to 0 but hears 1 from both neighbors, so
    # its first update lands at 0.9 * 0.49 + 2/3 > 1 and is clipped
    doc = _run_doc(
        n=3,
        roles=["honest"] * 3,
        quantizer={"bits": 1, "interval_length": 2.0, "midpoint": 0.0},
        alpha=0.1,
        iterations=3,
        init=[[0.49], [1.0], [1.0]],
    )
    t = run_single(parse_config(doc), 0).traces
    assert t.xi_bar_norm[0] > 0
    assert np.array_equal(t.xi_bar_attack_free_norm, t.xi_bar_norm)


def test_attack_free_residual_excludes_clipped_attack():
    # both agents sit at 0, so the update without the attack stays at 0;
    # the adversary's constant 1.5 is clipped back to 1 by the box [-1, 1]
    doc = _run_doc(
        n=2,
        roles=["honest", "adversarial"],
        attack={"kind": "constant", "value": [1.5], "seed": 0},
        init=[[0.0], [0.0]],
    )
    t = run_single(parse_config(doc), 0).traces
    assert len(t) == 1
    assert t.xi_bar_attack_free_norm[0] == 0.0
    assert t.xi_bar_norm[0] == (1.5 - 1.0) / 2


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    p=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_matrix_form_matches_per_agent_updates(n, p, seed):
    rng = np.random.default_rng(seed)
    if n == 1:
        topo = build_complete(1)
    else:
        edges = [(i - 1, i) for i in range(1, n)]
        extra = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        topo = build_from_edge_list(n, edges + extra)
    X = rng.uniform(-1, 1, (n, p))
    Q = rng.uniform(-1, 1, (n, p))
    G = rng.uniform(-1, 1, (n, p))
    alpha = float(rng.uniform(0.1, 1.0))
    # into NaN-filled buffers, and ``out`` returned
    out, scratch = np.full((2, n, p), np.nan)
    h_matrix = matrix_form_update(topo.weights, X, Q, G, alpha, out=out, scratch=scratch)
    assert h_matrix is out
    h_local = local_updates(topo, X, Q, G, alpha)
    assert np.max(np.abs(h_matrix - h_local)) <= 1e-12
