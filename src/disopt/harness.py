"""Experiment runner: execute configs over seed lists and write artifacts.

One CSV trace per seed, one JSON bound report per scenario, and a CSV
summary for parameter sweeps.  Re-runs of the same config and seed write
the same bytes on one numpy build, OpenBLAS kernel and BLAS thread count;
a complete graph of at least ``engine.RANK_ONE_AGENTS`` agents mixes
without BLAS, so its bytes hold under any kernel and thread count too.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import engine
from .bounds import BoundReport
from .config import PRESETS, ConfigError, ExperimentConfig, parse_config, preset_document
from .config import _object, _range, _rule, check_value, read_document


@dataclass(frozen=True)
class ExperimentArtifacts:
    seeds: tuple
    csv_paths: tuple
    agent_paths: tuple  # one <name>_seed<s>_agents.npy per seed with include_agents, else ()
    report_path: Path | None
    strict_violations: tuple  # (seed, k): the projection-error bound failed unsaturated
    bound_overflow_k: int | None  # first k whose theorem bound is inf


def final_honest_err_stats(final_errors) -> dict:
    """Mean and max of a scenario's final honest-mean errors, one per seed
    (each run's ``traces.err_honest[-1]``)."""
    return {
        "mean_final_honest_err": float(np.mean(final_errors)),
        "max_final_honest_err": float(np.max(final_errors)),
    }


def run_single(config: ExperimentConfig, seed: int) -> engine.RunResult:
    """One deterministic run of a validated config with one seed: the
    config's :class:`engine.RunPlan`, built at parse time, run once."""
    return engine.run(config.plan, seed)


def build_bound_report(config: ExperimentConfig, initial_error: float) -> BoundReport | None:
    """Closed-form report for a scenario whose largest initial error over
    its seeds (each run's ``traces.err_all[0]``) is ``initial_error``;
    None in exact-communication mode."""
    plan, quantizer = config.plan, config.plan.quantizer
    if quantizer is None:
        return None
    objective = plan.objective
    return BoundReport(
        mu=objective.mu,
        lipschitz=objective.lipschitz,
        alpha=float(plan.alpha),
        bits=quantizer.bits,
        interval_length=float(quantizer.interval_length.max()),
        subgrad_bound=objective.subgrad_bound,
        attack_norm=plan.attack_norm,
        initial_error=initial_error,
    )


def _run_seeds(scenarios: list, fold) -> None:
    """Run every seed of each (name, config) scenario, seed-major, handing
    each run to ``fold(index of its scenario, seed, result)`` as it finishes.

    The configs share one seed list (a sweep's points take the base's).
    Each run goes through the module's ``run_single`` name, so a wrapper
    installed there sees every run.  Seed-major, a sweep's points draw
    each seed's keyed attack stream once (:func:`adversary.attack_table`
    keeps the last one), and runs of one shape reuse one workspace
    (:func:`engine.run`).  A run's :class:`engine.BoundViolationError`
    leaves with its ``scenario`` name and ``seed`` set.
    """
    for seed in scenarios[0][1].seeds:
        for index, (name, config) in enumerate(scenarios):
            try:
                result = run_single(config, seed)
            except engine.BoundViolationError as exc:
                exc.scenario, exc.seed = name, seed
                raise
            fold(index, seed, result)


def write_trace_csv(path: Path, result: engine.RunResult, theorem_cells: list | None) -> None:
    """Trace rows k = 0..K, row K being the final state.

    The columns of a state (mean errors, theorem bound) have K+1 values;
    the per-round columns are blank in row K.
    ``theorem_cells`` is the scenario's :meth:`BoundReport.bound_column`
    formatted once for all its seeds (K+1 ``repr`` strings), or None in
    exact-communication mode.
    """
    t = result.traces
    header = [
        "k",
        "err_mean_all",
        "err_mean_honest",
        "delta_bar",
        "xi_bar_norm",
        "lemma1_bound",
        "theorem_bound",
        "saturation_count",
    ]
    # .tolist() yields Python floats, whose repr is the shortest
    # round-trip form; neither it nor a header name ever needs csv quoting
    columns = [
        map(str, range(len(t) + 1)),
        map(repr, t.err_all.tolist()),
        map(repr, t.err_honest.tolist()),
        [*map(repr, t.delta_bar.tolist()), ""],
        [*map(repr, t.xi_bar_norm.tolist()), ""],
        [*map(repr, t.lemma1_rhs.tolist()), ""],
        theorem_cells or itertools.repeat(""),
        [*map(str, t.saturation_count.tolist()), ""],
    ]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for cells in zip(*columns):
            fh.write(",".join(cells) + "\r\n")


def run_experiment(
    config: ExperimentConfig,
    outdir,
    name: str = "experiment",
    include_agents: bool = False,
) -> ExperimentArtifacts:
    """Run every seed of a scenario and write its CSV/JSON artifacts.

    With ``include_agents``, each seed's ``traces.per_agent_err`` also goes
    to ``<name>_seed<s>_agents.npy``: one C-order (K+1, n) float64 array
    in numpy's ``.npy`` format, row k the state entering round k and row K
    the final state, every value bit for bit.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    _run_seeds([(name, config)], lambda _, __, result: results.append(result))
    report = build_bound_report(config, max(float(r.traces.err_all[0]) for r in results))
    theorem_bounds = report.bound_column(config.iterations) if report else None
    theorem_cells = [*map(repr, theorem_bounds)] if theorem_bounds else None

    csv_paths, agent_paths = [], []
    for seed, result in zip(config.seeds, results):
        path = outdir / f"{name}_seed{seed}.csv"
        write_trace_csv(path, result, theorem_cells)
        csv_paths.append(path)
        if include_agents:
            agent_paths.append(outdir / f"{name}_seed{seed}_agents.npy")
            np.save(agent_paths[-1], result.traces.per_agent_err)

    report_path = None
    if report is not None:
        report_path = outdir / f"{name}_bounds.json"
        payload = report.to_dict()
        payload["seeds"] = list(config.seeds)
        payload["mean_final_honest_err"] = final_honest_err_stats(
            [r.traces.err_honest[-1] for r in results]
        )["mean_final_honest_err"]
        with open(report_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return ExperimentArtifacts(
        seeds=config.seeds,
        csv_paths=tuple(csv_paths),
        agent_paths=tuple(agent_paths),
        report_path=report_path,
        strict_violations=tuple(
            (seed, k)
            for seed, result in zip(config.seeds, results)
            for k in result.unsaturated_lemma1_violations
        ),
        bound_overflow_k=next(
            (k for k, bound in enumerate(theorem_bounds or ()) if math.isinf(bound)), None
        ),
    )


# ---- sweeps ----------------------------------------------------------------

_GRID_KEYS = ("bits", "interval_length", "alpha", "attack_high")
_AXIS = _rule(lambda v: isinstance(v, list) and v, "every axis must be a nonempty list")
_BASE = _rule(
    lambda v: isinstance(v, dict) or (isinstance(v, str) and v in PRESETS),
    f"expected a config object or a preset name in {sorted(PRESETS)}",
    lambda v: preset_document(v) if isinstance(v, str) else v,
)


def _apply_point(base: dict, point: dict) -> dict:
    doc = json.loads(json.dumps(base))  # deep copy via round-trip
    quantizer = {k: point[k] for k in ("bits", "interval_length") if k in point}
    if quantizer:
        check_value("base.quantizer", _object, doc.setdefault("quantizer", {})).update(quantizer)
    if "alpha" in point:
        doc["alpha"] = point["alpha"]
    if "attack_high" in point:
        attack = doc.get("attack")
        if not isinstance(attack, dict) or "kind" not in attack:
            raise ConfigError([("grid.attack_high", "base config has no shared attack policy")])
        lo, _ = check_value("base.attack.range", _range, attack.get("range", [0.0, 0.0]))
        attack["range"] = [lo, point["attack_high"]]
    return doc


def expand_grid(grid_doc) -> list:
    """Validate a sweep document (JSON text or parsed) and return
    (point, config) pairs.

    Every grid point is validated before anything runs; an invalid point
    aborts the whole sweep with its field path.  No grid axis changes n,
    p, the graph or the box, so every point shares the first point's
    topology, feasible set and objective.
    """
    grid_doc = read_document(grid_doc)
    if "base" not in grid_doc:
        raise ConfigError([("base", "sweep document needs a 'base' config or preset name")])
    base = check_value("base", _BASE, grid_doc["base"])
    axes = check_value("grid", _object, grid_doc.get("grid", {}))
    unknown = [k for k in axes if k not in _GRID_KEYS]
    if unknown:
        raise ConfigError([(f"grid.{k}", "unknown grid axis") for k in unknown])
    extra = [k for k in grid_doc if k not in ("base", "grid")]
    if extra:
        raise ConfigError([(k, "unknown key") for k in extra])

    names = [k for k in _GRID_KEYS if k in axes]
    value_lists = [check_value(f"grid.{k}", _AXIS, axes[k]) for k in names]
    if not names:
        raise ConfigError([("grid", "empty grid: provide at least one axis")])

    points = []
    for combo in itertools.product(*value_lists):
        point = dict(zip(names, combo))
        doc = _apply_point(base, point)
        try:
            cfg = parse_config(doc, like=points[0][1] if points else None)
        except ConfigError as exc:
            raise ConfigError(
                [(f"grid point {point}: {path}", msg) for path, msg in exc.errors]
            ) from exc
        points.append((point, cfg))
    return points


class SweepSummary(NamedTuple):
    rows: list  # one per grid point, as written to sweep_summary.csv
    strict: bool  # the base config's "strict"
    strict_violations: tuple  # (grid point, seed, k): the projection-error bound failed unsaturated


def sweep(grid_doc, outdir) -> SweepSummary:
    """Run a validated grid and write one summary row per point.

    Each run is folded into its point's summary as it finishes: a point
    keeps one final honest error and one initial error per seed, and its
    unsaturated projection-error bound failures, never a trace.
    """
    points = expand_grid(grid_doc)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    finals = [[] for _ in points]
    initials = [[] for _ in points]
    violations = []

    def fold(index, seed, result):
        finals[index].append(result.traces.err_honest[-1])
        initials[index].append(float(result.traces.err_all[0]))
        violations.extend((points[index][0], seed, k) for k in result.unsaturated_lemma1_violations)

    _run_seeds([(f"grid point {point}", cfg) for point, cfg in points], fold)
    names = sorted({k for point, _ in points for k in point})
    rows = []
    for (point, cfg), final, initial in zip(points, finals, initials):
        report = build_bound_report(cfg, max(initial))
        rows.append(
            {
                **{k: point.get(k, "") for k in names},
                **final_honest_err_stats(final),
                "neighborhood": report.neighborhood if report else "",
            }
        )

    path = outdir / "sweep_summary.csv"
    with open(path, "w", newline="") as fh:
        # csv writes a float as its repr, the shortest round-trip form
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return SweepSummary(rows, points[0][1].strict, tuple(violations))
