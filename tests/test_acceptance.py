"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line outside pytest's capture so the
run log shows the verdict for every criterion even when the test passes.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from disopt import engine

from disopt.bounds import (
    admissible_step_window,
    constants,
    lemma1_bound,
    neighborhood_size,
    quantizer_admissible,
    recursion_bound,
    subgradient_admissible,
)
from disopt.config import parse_config, preset_config
from disopt.engine import LEMMA1_TOL, mean_recursion_residual
from disopt.harness import build_bound_report, run_experiment, run_single
from disopt.objective import FeasibleSet, LocalObjective
from disopt.quantizer import UniformQuantizer
from disopt.topology import build_complete, build_from_edge_list


def _report(capsys, num: int | str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {verdict}: {detail}", flush=True)


def test_criterion_1_quantizer_error_bound(capsys):
    """Random in-range sweep never exceeds l / 2**(b+1)."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    violations = 0
    worst_margin = np.inf
    for bits in range(1, 9):
        for length in (0.5, 1.0):
            q = UniformQuantizer(bits=bits, interval_length=length)
            x = rng.uniform(-length / 2, length / 2, 100_000)
            err = np.abs(q.quantization_error(x))
            bound = length / 2 ** (bits + 1)
            violations += int(np.count_nonzero(err > bound))
            worst_margin = min(worst_margin, bound - float(np.max(err)))
    elapsed = time.perf_counter() - start
    passed = violations == 0 and elapsed < 1.0
    _report(
        capsys,
        1,
        passed,
        f"{violations} violations over 16x100000 samples, "
        f"slack >= {worst_margin:.3e}, {elapsed:.2f}s",
    )
    assert violations == 0
    assert elapsed < 1.0


def test_criterion_2_exact_mode_contraction(capsys):
    """With exact communication the mean error follows 0.3**k exactly."""
    start = time.perf_counter()
    cfg = parse_config(
        {
            "n": 10,
            "p": 1,
            "topology": {"type": "complete"},
            "roles": ["honest"] * 10,
            "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 1.0}},
            "quantizer": None,
            "alpha": 0.7,
            "iterations": 30,
            "seeds": [1],
        }
    )
    result = run_single(cfg, 1)
    errors = result.traces.err_all.tolist()
    deviations = [abs(errors[k] - 0.3**k * errors[0]) for k in range(31)]
    # precondition of the closed form: no projection residual anywhere
    assert not result.traces.xi_bar_norm.any()
    worst = max(deviations)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-9 and elapsed < 1.0
    _report(capsys, 2, passed, f"max |err(k) - 0.3^k err(0)| = {worst:.3e} for k <= 30, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_3_mean_recursion_identity(preset_runs, capsys):
    """The mean-iterate bookkeeping identity is exact on every preset step."""
    worst = 0.0
    steps = 0
    for name, (cfg, results) in preset_runs.items():
        for result in results:
            worst = max(worst, float(np.max(mean_recursion_residual(result.traces, cfg.alpha))))
            steps += len(result.traces)
    passed = worst <= 1e-10
    _report(capsys, 3, passed, f"max residual {worst:.3e} over {steps} steps")
    assert worst <= 1e-10


def test_criterion_4_projection_error_dominance(preset_runs, capsys):
    """Lemma 1 and its attack-aware form hold at every unsaturated step.

    Lemma 1 bounds the residual of the attack-free update, so (a) checks
    ``xi_bar_attack_free_norm <= lemma1_rhs``.  ``I - P_X`` is
    nonexpansive, so an attack moves each agent's residual by at most
    ``||e_i(k)||``; (b) checks ``xi_bar_norm <= xi_bar_attack_free_norm
    + mean_i ||e_i(k)||``.  Together they give the attack-aware bound
    ``lemma1_rhs + mean_i ||e_i(k)||`` on the measured residual.  Steps
    where the measured residual exceeds the attack-free bound itself
    (``not lemma1_ok``) are the attack term at work; they are reported,
    not asserted.
    """
    attack_free_violations = []
    attack_term_violations = []
    raw_gaps = []
    saturated_excluded = 0
    steps = 0
    for name, (cfg, results) in preset_runs.items():
        for seed, result in zip(cfg.seeds, results):
            t = result.traces
            steps += len(t)
            unsaturated = t.saturation_count == 0
            saturated_excluded += int(np.sum(~unsaturated))
            attack_term = t.mean_attack_norm
            attack_free_bound = t.lemma1_rhs + LEMMA1_TOL
            attack_aware_bound = t.xi_bar_attack_free_norm + attack_term + LEMMA1_TOL
            for k in np.flatnonzero(unsaturated).tolist():
                if not t.xi_bar_attack_free_norm[k] <= attack_free_bound[k]:
                    attack_free_violations.append(
                        (name, seed, k, t.xi_bar_attack_free_norm[k], t.lemma1_rhs[k])
                    )
                if not t.xi_bar_norm[k] <= attack_aware_bound[k]:
                    attack_term_violations.append(
                        (name, seed, k, t.xi_bar_norm[k], attack_aware_bound[k] - LEMMA1_TOL)
                    )
                if not t.lemma1_ok[k]:
                    raw_gaps.append(
                        (name, seed, k, t.xi_bar_norm[k], t.lemma1_rhs[k], attack_term[k])
                    )
    passed = not attack_free_violations and not attack_term_violations
    unsaturated = steps - saturated_excluded
    _report(
        capsys,
        4,
        passed,
        f"over {unsaturated} unsaturated of {steps} steps "
        f"({saturated_excluded} saturated excluded): "
        f"{len(attack_free_violations)} Lemma 1 violations on the attack-free residual, "
        f"{len(attack_term_violations)} beyond it plus mean ||e_i||; "
        f"raw residual above the attack-free bound at {len(raw_gaps)} step(s)"
        + "".join(
            f", {n} seed {s} k={k}: {x:.6f} > {r:.6f} (attack term {a:.6f})"
            for n, s, k, x, r, a in raw_gaps[:3]
        ),
    )
    assert attack_free_violations == [], (
        "Lemma 1 bound exceeded by the attack-free projection residual"
    )
    assert attack_term_violations == [], (
        "attacked residual exceeds the attack-free residual plus mean ||e_i(k)||"
    )


def test_criterion_5_ordinal_reproduction(preset_runs, capsys):
    """Seed-averaged final honest error orders fig2b < fig2a < fig2c."""
    means = {}
    for name, (cfg, results) in preset_runs.items():
        means[name] = float(np.mean([r.traces.err_honest[-1] for r in results]))
    margin_ab = (means["fig2a"] - means["fig2b"]) / means["fig2a"]
    margin_ac = (means["fig2c"] - means["fig2a"]) / means["fig2c"]
    passed = means["fig2b"] < means["fig2a"] < means["fig2c"] and min(margin_ab, margin_ac) >= 0.10
    _report(
        capsys,
        5,
        passed,
        f"fig2b={means['fig2b']:.4f} < fig2a={means['fig2a']:.4f} < "
        f"fig2c={means['fig2c']:.4f}, margins {margin_ab:.1%} and {margin_ac:.1%}",
    )
    assert means["fig2b"] < means["fig2a"] < means["fig2c"]
    assert margin_ab >= 0.10
    assert margin_ac >= 0.10


def test_criterion_6_golden_values(capsys):
    """Closed-form quantities match frozen hand values to 12 digits."""
    rel = 1e-12
    checks = [
        (constants(1.0, 1.0)[0], 1.0),
        (constants(1.0, 1.0)[1], 1.0),
        (constants(0.5, 1.5)[0], 1.0),
        (constants(0.5, 1.5)[1], 0.75),
        (constants(0.5, 2.0)[0], 0.8),
        (constants(0.5, 2.0)[1], 0.8),
        (admissible_step_window(1.0, 1.0).lower, 0.6666666666666666),
        (admissible_step_window(1.0, 1.0).upper, 1.0),
        (admissible_step_window(1.0, 100.0).lower, 0.33666666666666667),
        (admissible_step_window(1.0, 100.0).upper, 0.019801980198019802),
        (admissible_step_window(2.0, 2.0).lower, 0.3333333333333333),
        (admissible_step_window(2.0, 2.0).upper, 0.5),
        (lemma1_bound(0.25, 0.1, 0.7, 10), 0.7170062761231591),
        (lemma1_bound(0.015625, 1.0, 0.7, 10), 0.14318912319027588),
        (neighborhood_size(1.0, 1, 0.0, 0.0, 0.0), 1.224744871391589),
        (neighborhood_size(1.0, 5, 0.1, 0.7, 1.0), 1.980061644025674),
        (recursion_bound(2, 10.0, 0.9, 1.0, 0.0, 1, 0.0, 0.0), 2.999999999999999),
        (recursion_bound(0, 2.5, 0.7, 1.0, 1.0, 5, 0.1, 0.5), 3.6140362402412354),
        (recursion_bound(10**6, 1.0, 0.7, 1.0, 1.0, 5, 0.1, 0.5), 1.1140362402412354),
    ]
    bool_checks = [
        (quantizer_admissible(1.0, 1), False),
        (quantizer_admissible(1.0, 2), True),
        (quantizer_admissible(0.5, 1), True),
        (subgradient_admissible(0.5832118435198044, 0.7), True),
        (subgradient_admissible(0.5832118435198045, 0.7), False),
    ]
    worst = max(
        abs(got - want) / max(abs(want), 1e-300) for got, want in checks
    )
    bool_ok = all(got is want for got, want in bool_checks)
    passed = worst <= 1e-12 and bool_ok
    _report(
        capsys,
        6,
        passed,
        f"{len(checks)} numeric goldens (worst rel err {worst:.2e}) "
        f"and {len(bool_checks)} threshold flags",
    )
    for got, want in checks:
        assert got == pytest.approx(want, rel=rel)
    assert bool_ok


def test_criterion_7_bound_dominance(capsys):
    """Where every hypothesis holds, the recursion bound dominates the run."""
    cfg = parse_config(
        {
            "n": 10,
            "p": 1,
            "topology": {"type": "complete"},
            "roles": ["honest"] * 10,
            "objective": {"name": "quadratic", "box": {"lo": -0.5, "hi": 0.5}},
            "quantizer": {"bits": 3, "interval_length": 0.5, "midpoint": 0.0},
            "alpha": 0.7,
            "iterations": 200,
            "seeds": list(range(20)),
        }
    )
    results = [run_single(cfg, seed) for seed in cfg.seeds]
    report = build_bound_report(cfg, max(float(r.traces.err_all[0]) for r in results))
    flags = report.admissible
    assert all(flags.values()), f"hypotheses not satisfied: {flags}"
    worst_excess = -np.inf
    violations = 0
    for result in results:
        for k, err in enumerate(result.traces.err_all.tolist()):
            excess = err - report.per_k_bound(k)
            worst_excess = max(worst_excess, excess)
            if excess > 0:
                violations += 1
    passed = violations == 0
    _report(
        capsys,
        7,
        passed,
        f"{violations} violations across 20 seeds x 201 points, "
        f"max err - bound = {worst_excess:.3e}",
    )
    assert violations == 0


SPARSE_AGENTS = 10
SPARSE_GRAPHS = {
    "ring": [[i, (i + 1) % SPARSE_AGENTS] for i in range(SPARSE_AGENTS)],
    "path": [[i, i + 1] for i in range(SPARSE_AGENTS - 1)],
    "star": [[0, i] for i in range(1, SPARSE_AGENTS)],
}


@pytest.mark.parametrize("adversaries", [0, 3])
@pytest.mark.parametrize("graph", sorted(SPARSE_GRAPHS))
def test_criteria_3_4_7_on_sparse_graphs(graph, adversaries, capsys):
    """Criteria 3, 4 and 7 on ring, path and star graphs, not only the
    complete graph the presets use.

    Criterion 7's hypotheses do not involve the graph, so it is checked
    wherever they hold; the raw criterion-4 gap is reported, not asserted.
    """
    n = SPARSE_AGENTS
    doc = {
        "n": n,
        "p": 1,
        "topology": {"type": "edge_list", "edges": SPARSE_GRAPHS[graph]},
        "roles": ["honest"] * (n - adversaries) + ["adversarial"] * adversaries,
        "objective": {"name": "quadratic", "box": {"lo": -0.5, "hi": 0.5}},
        "quantizer": {"bits": 3, "interval_length": 0.5, "midpoint": 0.0},
        "alpha": 0.7,
        "iterations": 200,
        "seeds": list(range(10)),
    }
    if adversaries:
        doc["attack"] = {"kind": "uniform", "range": [0.0, 1.0], "sign": "positive", "seed": 7}
    cfg = parse_config(doc)
    results = [run_single(cfg, seed) for seed in cfg.seeds]
    report = build_bound_report(cfg, max(float(r.traces.err_all[0]) for r in results))
    admissible = all(report.admissible.values())

    worst_identity = 0.0
    attack_free_violations = attack_term_violations = raw_gaps = unsaturated = 0
    bound_violations = 0
    for result in results:
        t = result.traces
        worst_identity = max(
            worst_identity, float(np.max(mean_recursion_residual(t, cfg.alpha)))
        )
        free = t.saturation_count == 0
        unsaturated += int(np.sum(free))
        attack_term = t.mean_attack_norm
        attack_free_violations += int(
            np.sum(free & ~(t.xi_bar_attack_free_norm <= t.lemma1_rhs + LEMMA1_TOL))
        )
        attack_term_violations += int(
            np.sum(free & ~(t.xi_bar_norm <= t.xi_bar_attack_free_norm + attack_term + LEMMA1_TOL))
        )
        raw_gaps += int(np.sum(free & ~t.lemma1_ok))
        if admissible:
            bound_violations += sum(
                err > report.per_k_bound(k) for k, err in enumerate(t.err_all.tolist())
            )
    passed = (
        worst_identity <= 1e-10
        and attack_free_violations == attack_term_violations == bound_violations == 0
    )
    _report(
        capsys,
        f"3/4/7, {graph} graph, {adversaries} adversaries",
        passed,
        f"mean identity residual {worst_identity:.3e}; over {unsaturated} unsaturated steps "
        f"{attack_free_violations} Lemma 1 and {attack_term_violations} attack-aware "
        f"violations, raw residual above the attack-free bound at {raw_gaps} step(s); "
        + (
            f"{bound_violations} recursion-bound violations"
            if admissible
            else f"recursion bound not admissible: {report.admissible}"
        ),
    )
    assert worst_identity <= 1e-10
    assert attack_free_violations == 0
    assert attack_term_violations == 0
    assert bound_violations == 0


def test_criterion_8_deterministic_artifacts(tmp_path, capsys):
    """Re-running a preset with the same seed yields byte-identical CSVs."""
    cfg = preset_config("fig2a", seeds=[0])
    a = run_experiment(cfg, tmp_path / "a", name="fig2a")
    b = run_experiment(cfg, tmp_path / "b", name="fig2a")
    csv_same = a.csv_paths[0].read_bytes() == b.csv_paths[0].read_bytes()
    json_same = a.report_path.read_bytes() == b.report_path.read_bytes()
    passed = csv_same and json_same
    _report(
        capsys,
        8,
        passed,
        f"csv bytes identical: {csv_same}, report bytes identical: {json_same}",
    )
    assert csv_same and json_same


def _heterogeneous_quadratic(curvature, centres, box) -> LocalObjective:
    """Agent i's f_i(x) = (a_i / 2) ||x - c_i||^2: no agent's own minimizer
    c_i is the network's x* = sum_i a_i c_i / sum_i a_i."""
    a, c = curvature[:, None], centres
    corner_distance = np.sqrt(np.sum(np.maximum((box.lo - c) ** 2, (box.hi - c) ** 2), axis=1))
    return LocalObjective(
        dimension=c.shape[1],
        evaluate=lambda x: 0.5 * curvature * np.sum((x - c) ** 2, axis=-1),
        subgradient=lambda x, out=None: np.multiply(a, np.subtract(x, c, out=out), out=out),
        mu=float(curvature.min()),
        lipschitz=float(curvature.max()),
        subgrad_bound=float(np.max(curvature * corner_distance)),
        x_star=curvature @ centres / curvature.sum(),
    )


@pytest.mark.parametrize("bits", [None, 5])
def test_criterion_9_mixing_pulls_every_agent_toward_x_star(bits, capsys):
    """On local objectives with different minimizers, an agent reaches the
    network's x* only by hearing the others: mixing over the complete graph
    or the ring ends with every agent far closer to x* than the same run
    with W = I, where each agent settles at its own minimizer."""
    n, p = 10, 2
    rng = np.random.default_rng(1)
    box = FeasibleSet(lo=np.full(p, -1.0), hi=np.full(p, 1.0))
    objective = _heterogeneous_quadratic(
        rng.uniform(0.5, 2.0, n), rng.uniform(-0.5, 0.5, (n, p)), box
    )
    quantizer = None if bits is None else UniformQuantizer(bits=bits, interval_length=2.0)
    graphs = {
        "complete": build_complete(n),
        "ring": build_from_edge_list(n, [[i, (i + 1) % n] for i in range(n)]),
        "isolated": SimpleNamespace(n=n, weights=np.eye(n)),  # no agent hears another
    }
    worst, violations = {}, 0
    for name, topology in graphs.items():
        plan = engine.plan({}, quantizer, topology, objective, box, 0.3, 400)
        result = engine.run(plan, 0)
        worst[name] = float(result.traces.per_agent_err[-1].max())
        violations += len(result.unsaturated_lemma1_violations)
    mixed_over_isolated = max(worst["complete"], worst["ring"]) / worst["isolated"]
    passed = mixed_over_isolated < 0.6 and violations == 0
    _report(
        capsys,
        f"9, {'exact' if bits is None else f'{bits} bits'}",
        passed,
        "final max per-agent error "
        + ", ".join(f"{name} {err:.3f}" for name, err in worst.items())
        + f"; {violations} unsaturated Lemma 1 violations",
    )
    assert mixed_over_isolated < 0.6
    assert violations == 0
