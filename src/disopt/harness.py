"""Experiment runner: execute configs over seed lists and write artifacts.

One CSV trace per seed, one JSON bound report per scenario, and a CSV
summary for parameter sweeps.  All outputs are byte-identical across
re-runs of the same config and seed.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine
from .adversary import max_attack_norm
from .bounds import BoundReport
from .config import ConfigError, ExperimentConfig, parse_config, preset_document
from .objective import suite_subgrad_bound


@dataclass(frozen=True)
class ExperimentArtifacts:
    name: str
    seeds: tuple
    csv_paths: tuple
    report_path: Path | None
    results: tuple  # one RunResult per seed
    report: BoundReport | None

    @property
    def strict_violations(self) -> list:
        """(seed, k) pairs where the projection-error bound failed unsaturated."""
        out = []
        for seed, result in zip(self.seeds, self.results):
            out.extend((seed, k) for k in result.unsaturated_lemma1_violations)
        return out


def final_honest_err_stats(results) -> dict:
    """Mean and max over a scenario's seeds of the final honest-mean error."""
    errors = [r.final_err_honest for r in results]
    return {
        "mean_final_honest_err": float(np.mean(errors)),
        "max_final_honest_err": float(np.max(errors)),
    }


def _fmt(value) -> str:
    # shortest round-trip decimal form keeps the CSV deterministic
    return repr(float(value))


def run_single(config: ExperimentConfig, seed: int) -> engine.RunResult:
    """One deterministic run of a validated config with one seed."""
    objectives, x_star = config.objectives
    init = np.asarray(config.init, dtype=float) if config.init is not None else None
    return engine.run(
        attacks=config.attack,
        quantizer=config.quantizer,
        topology=config.topology,
        objectives=objectives,
        feasible=config.feasible_set,
        alpha=config.alpha,
        iterations=config.iterations,
        x_star=x_star,
        seed=seed,
        explicit_init=init,
        adversary_quantizes=config.adversary_quantizes,
    )


def build_bound_report(config: ExperimentConfig, results) -> BoundReport | None:
    """Closed-form report for a scenario; None in exact-communication mode."""
    if config.quantizer_bits is None:
        return None
    objectives, _ = config.objectives
    attack_norm = 0.0
    for agent, policy in config.attack.items():
        attack_norm = max(attack_norm, max_attack_norm(policy, config.p))
    initial_error = max(r.traces.err_all[0] for r in results) if results else 0.0
    return BoundReport(
        mu=min(o.mu for o in objectives),
        lipschitz=max(o.lipschitz for o in objectives),
        alpha=config.alpha,
        bits=config.quantizer_bits,
        interval_length=config.max_interval_length,
        subgrad_bound=suite_subgrad_bound(objectives),
        attack_norm=attack_norm,
        initial_error=initial_error,
    )


def write_trace_csv(
    path: Path,
    result: engine.RunResult,
    theorem_bounds: list | None,
    include_agents: bool = False,
) -> None:
    """Trace rows k = 0..K-1 plus one closing row for the final state.

    ``theorem_bounds`` is the scenario's :meth:`BoundReport.bound_column`
    (K+1 values), or None in exact-communication mode.
    """
    t = result.traces
    n = result.final_iterates.shape[0]
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
    if include_agents:
        header += [f"err_agent_{i}" for i in range(n)]
    rounds = len(t)
    theorem = [_fmt(b) for b in theorem_bounds] if theorem_bounds else [""] * (rounds + 1)
    per_agent = t.per_agent_err.tolist() if include_agents else None
    # .tolist() yields Python floats, whose repr is _fmt's output; neither
    # float reprs nor the header names ever need csv quoting
    columns = zip(
        map(repr, t.err_all.tolist()),
        map(repr, t.err_honest.tolist()),
        map(repr, t.delta_bar.tolist()),
        map(repr, t.xi_bar_norm.tolist()),
        map(repr, t.lemma1_rhs.tolist()),
        theorem,
        map(str, t.saturation_count.tolist()),
    )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k, cells in enumerate(columns):
            row = [str(k), *cells]
            if include_agents:
                row += map(repr, per_agent[k])
            fh.write(",".join(row) + "\r\n")
        row = [
            str(rounds),
            _fmt(result.final_err_all),
            _fmt(result.final_err_honest),
            "",
            "",
            "",
            theorem[rounds],
            "",
        ]
        if include_agents:
            # norm of each agent's vector (a dot product): norm(..., axis=1)
            # differs from it in the last bit at p > 1
            row += [
                _fmt(np.linalg.norm(result.final_iterates[i] - result.x_star))
                for i in range(n)
            ]
        fh.write(",".join(row) + "\r\n")


def run_experiment(
    config: ExperimentConfig,
    outdir,
    name: str = "experiment",
    include_agents: bool = False,
) -> ExperimentArtifacts:
    """Run every seed of a scenario and write its CSV/JSON artifacts."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = [run_single(config, seed) for seed in config.seeds]
    report = build_bound_report(config, results)
    theorem_bounds = report.bound_column(config.iterations) if report else None

    csv_paths = []
    for seed, result in zip(config.seeds, results):
        path = outdir / f"{name}_seed{seed}.csv"
        write_trace_csv(path, result, theorem_bounds, include_agents=include_agents)
        csv_paths.append(path)

    report_path = None
    if report is not None:
        report_path = outdir / f"{name}_bounds.json"
        payload = report.to_dict()
        payload["seeds"] = list(config.seeds)
        payload["mean_final_honest_err"] = final_honest_err_stats(results)[
            "mean_final_honest_err"
        ]
        with open(report_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return ExperimentArtifacts(
        name=name,
        seeds=config.seeds,
        csv_paths=tuple(csv_paths),
        report_path=report_path,
        results=tuple(results),
        report=report,
    )


def run_preset(name: str, outdir, seeds=None, include_agents=False):
    config = parse_config(preset_document(name, seeds=seeds))
    return run_experiment(config, outdir, name=name, include_agents=include_agents)


# ---- sweeps ----------------------------------------------------------------

_GRID_KEYS = ("bits", "interval_length", "alpha", "attack_high")


def _apply_point(base: dict, point: dict) -> dict:
    doc = json.loads(json.dumps(base))  # deep copy via round-trip
    if "bits" in point:
        doc.setdefault("quantizer", {})["bits"] = point["bits"]
    if "interval_length" in point:
        doc.setdefault("quantizer", {})["interval_length"] = point["interval_length"]
    if "alpha" in point:
        doc["alpha"] = point["alpha"]
    if "attack_high" in point:
        if "attack" not in doc or "kind" not in doc["attack"]:
            raise ConfigError(
                [("grid.attack_high", "base config has no shared attack policy")]
            )
        lo = doc["attack"].get("range", [0.0, 0.0])[0]
        doc["attack"]["range"] = [lo, point["attack_high"]]
    return doc


def expand_grid(grid_doc: dict) -> list:
    """Validate a sweep document and return (point, config) pairs.

    Every grid point is validated before anything runs; an invalid point
    aborts the whole sweep with its field path.
    """
    if not isinstance(grid_doc, dict) or "base" not in grid_doc:
        raise ConfigError([("base", "sweep document needs a 'base' config or preset name")])
    base = grid_doc["base"]
    if isinstance(base, str):
        base = preset_document(base)
    axes = grid_doc.get("grid", {})
    unknown = [k for k in axes if k not in _GRID_KEYS]
    if unknown:
        raise ConfigError([(f"grid.{k}", "unknown grid axis") for k in unknown])
    extra = [k for k in grid_doc if k not in ("base", "grid")]
    if extra:
        raise ConfigError([(k, "unknown key") for k in extra])

    names = [k for k in _GRID_KEYS if k in axes]
    value_lists = [axes[k] for k in names]
    if any(not isinstance(v, list) or not v for v in value_lists):
        raise ConfigError([("grid", "every axis must be a nonempty list")])
    combos = list(itertools.product(*value_lists)) if names else []
    if not combos:
        raise ConfigError([("grid", "empty grid: provide at least one axis")])

    points = []
    for combo in combos:
        point = dict(zip(names, combo))
        doc = _apply_point(base, point)
        try:
            cfg = parse_config(doc)
        except ConfigError as exc:
            raise ConfigError(
                [(f"grid point {point}: {path}", msg) for path, msg in exc.errors]
            ) from exc
        points.append((point, cfg))
    return points


def sweep(grid_doc: dict, outdir) -> list:
    """Run a validated grid and write one summary row per point."""
    points = expand_grid(grid_doc)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    names = sorted({k for point, _ in points for k in point})
    rows = []
    for point, cfg in points:
        results = [run_single(cfg, seed) for seed in cfg.seeds]
        report = build_bound_report(cfg, results)
        rows.append(
            {
                **{k: point.get(k, "") for k in names},
                **final_honest_err_stats(results),
                "neighborhood": report.neighborhood if report else "",
            }
        )

    path = outdir / "sweep_summary.csv"
    header = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [_fmt(row[c]) if isinstance(row[c], float) else str(row[c]) for c in header]
            )
    return rows
