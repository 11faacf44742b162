"""Benchmark workloads: the inputs each pass hands to ``disopt.cli.main``.

Every input is generated from the workload seed alone.  At the default
seed, ``paper-presets`` runs the built-in presets by name, so its outputs
can be compared with the golden manifest; at any other seed it runs the
same scenarios, as config files, with a different seed list and attack
stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
NAMES = ("paper-presets", "wide-network", "grid-sweep")

# (honest agents, quantizer bits) for each built-in preset; the rest of the
# scenario is shared and mirrors disopt's preset base document.
PRESETS = {"fig2a": (7, 1), "fig2b": (7, 5), "fig2c": (3, 1)}
PRESET_AGENTS = 10
PRESET_SEEDS = 20
PRESET_ITERATIONS = 200
PRESET_ATTACK_SEED = 7

WIDE_AGENTS = 400
WIDE_DIM = 16
WIDE_ADVERSARY_SHARE = 0.2
WIDE_SEEDS = 6
WIDE_ITERATIONS = 50

SWEEP_SEEDS = 4
SWEEP_ITERATIONS = 100
SWEEP_GRID = {
    "bits": [1, 2, 3],
    "interval_length": [1.0, 2.0],
    "alpha": [0.5, 0.7],
    "attack_high": [0.5, 1.0],
}


@dataclass
class Invocation:
    """One ``disopt.cli.main`` call: its argv (minus ``--out``) and the
    operations it performs (seed runs, plus grid points in a sweep)."""

    argv: list
    name: str
    seeds: list
    points: int = 0

    @property
    def operations(self) -> int:
        return len(self.seeds) * max(self.points, 1) + self.points


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list
    # config or sweep documents a user would parse at set-up, as written files
    documents: list
    # the first scenario's config document, for single-run measurements
    scenario: dict
    # n, p, seeds, iterations and graph, for the provenance block
    shape: dict

    @property
    def operations(self) -> int:
        return sum(inv.operations for inv in self.invocations)


def _distinct_seeds(rng: np.random.Generator, count: int) -> list:
    return sorted(int(s) for s in rng.choice(1_000_000, size=count, replace=False))


def preset_document(name: str, seeds, attack_seed: int, iterations: int) -> dict:
    honest, bits = PRESETS[name]
    return {
        "n": PRESET_AGENTS,
        "p": 1,
        "topology": {"type": "complete"},
        "roles": ["honest"] * honest + ["adversarial"] * (PRESET_AGENTS - honest),
        "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 1.0}},
        "quantizer": {"bits": bits, "interval_length": 1.0, "midpoint": 0.0},
        "attack": {
            "kind": "uniform",
            "range": [0.0, 1.0],
            "sign": "positive",
            "seed": attack_seed,
        },
        "alpha": 0.7,
        "iterations": iterations,
        "seeds": list(seeds),
        "strict": False,
    }


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def paper_presets(seed: int, inputs: Path) -> Workload:
    rng = np.random.default_rng(seed)
    invocations, documents = [], []
    for name in PRESETS:
        if seed == DEFAULT_SEED:
            seeds, attack_seed = list(range(PRESET_SEEDS)), PRESET_ATTACK_SEED
        else:
            seeds = _distinct_seeds(rng, PRESET_SEEDS)
            attack_seed = int(rng.integers(0, 2**31))
        doc = preset_document(name, seeds, attack_seed, PRESET_ITERATIONS)
        path = _write(inputs / f"{name}.json", doc)
        documents.append(path)
        argv = ["preset", name] if seed == DEFAULT_SEED else ["run", str(path)]
        invocations.append(Invocation(argv=argv, name=name, seeds=seeds))
    return Workload(
        name="paper-presets",
        seed=seed,
        invocations=invocations,
        documents=documents,
        scenario=json.loads(documents[0].read_text()),
        shape={
            "scenarios": list(PRESETS),
            "n": PRESET_AGENTS,
            "p": 1,
            "seeds_per_scenario": PRESET_SEEDS,
            "iterations": PRESET_ITERATIONS,
            "graph": "complete",
        },
    )


def wide_network(seed: int, inputs: Path) -> Workload:
    rng = np.random.default_rng(seed)
    n_adv = int(round(WIDE_AGENTS * WIDE_ADVERSARY_SHARE))
    adversaries = set(int(i) for i in rng.choice(WIDE_AGENTS, size=n_adv, replace=False))
    seeds = _distinct_seeds(rng, WIDE_SEEDS)
    doc = {
        "n": WIDE_AGENTS,
        "p": WIDE_DIM,
        "topology": {"type": "complete"},
        "roles": [
            "adversarial" if i in adversaries else "honest" for i in range(WIDE_AGENTS)
        ],
        "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 1.0}},
        "quantizer": None,
        "attack": {
            "kind": "constant",
            "value": [float(v) for v in rng.uniform(0.01, 0.1, size=WIDE_DIM)],
            "sign": "positive",
        },
        "alpha": 0.5,
        "iterations": WIDE_ITERATIONS,
        "seeds": seeds,
    }
    path = _write(inputs / "wide.json", doc)
    return Workload(
        name="wide-network",
        seed=seed,
        invocations=[
            Invocation(argv=["run", str(path), "--per-agent"], name="wide", seeds=seeds)
        ],
        documents=[path],
        scenario=doc,
        shape={
            "scenarios": ["wide"],
            "n": WIDE_AGENTS,
            "p": WIDE_DIM,
            "adversaries": n_adv,
            "seeds_per_scenario": WIDE_SEEDS,
            "iterations": WIDE_ITERATIONS,
            "graph": "complete",
            "attack": "constant",
            "quantizer": None,
        },
    )


def grid_sweep(seed: int, inputs: Path) -> Workload:
    rng = np.random.default_rng(seed)
    if seed == DEFAULT_SEED:
        seeds, attack_seed = list(range(SWEEP_SEEDS)), PRESET_ATTACK_SEED
    else:
        seeds = _distinct_seeds(rng, SWEEP_SEEDS)
        attack_seed = int(rng.integers(0, 2**31))
    base = preset_document("fig2c", seeds, attack_seed, SWEEP_ITERATIONS)
    doc = {"base": base, "grid": SWEEP_GRID}
    path = _write(inputs / "grid.json", doc)
    points = int(np.prod([len(v) for v in SWEEP_GRID.values()]))
    return Workload(
        name="grid-sweep",
        seed=seed,
        invocations=[
            Invocation(argv=["sweep", str(path)], name="sweep", seeds=seeds, points=points)
        ],
        documents=[path],
        scenario=base,
        shape={
            "scenarios": ["fig2c-based grid"],
            "n": PRESET_AGENTS,
            "p": 1,
            "grid": SWEEP_GRID,
            "grid_points": points,
            "seeds_per_scenario": SWEEP_SEEDS,
            "iterations": SWEEP_ITERATIONS,
            "graph": "complete",
        },
    )


GENERATORS = {
    "paper-presets": paper_presets,
    "wide-network": wide_network,
    "grid-sweep": grid_sweep,
}


def make(name: str, seed: int, inputs: Path) -> Workload:
    inputs.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, inputs)
