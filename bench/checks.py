"""Correctness checks on the files one benchmark pass leaves behind.

An operation (a seed run, or a grid point in a sweep) fails when its
invocation raised or exited nonzero, when it wrote a non-finite value, or
when its output misses the reference: the golden manifest for
``paper-presets`` at the default seed, otherwise the first pass of the
same benchmark run, which every later pass must reproduce byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_manifest.json"

# Same slack the engine applies when it sets ``lemma1_ok``.
LEMMA1_SLACK = 1e-12


@dataclass
class PassCheck:
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite_csv(path: Path) -> bool:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            for cell in row:
                if cell and not math.isfinite(float(cell)):
                    return False
    return True


def _finite_json(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return True


def unsaturated_violations(path: Path, seed: int) -> list:
    """(seed, k) rows where the projection-error bound fails unsaturated."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if not row["lemma1_bound"]:
                continue  # closing row of the final state
            over = float(row["xi_bar_norm"]) > float(row["lemma1_bound"]) + LEMMA1_SLACK
            if over and int(row["saturation_count"]) == 0:
                out.append([seed, int(row["k"])])
    return out


def load_golden() -> PassCheck:
    manifest = json.loads(GOLDEN_PATH.read_text())
    return PassCheck(digests=manifest["files"], violations=manifest["violations"])


def check_pass(workload, outdir: Path, statuses: list, reference) -> PassCheck:
    """Count attempted and failed operations of one pass.

    ``statuses`` holds, per invocation, whether ``cli.main`` returned 0
    without raising.  ``reference`` is the golden manifest or an earlier
    pass, or None for the first pass of a run.
    """
    result = PassCheck()
    for inv, ok in zip(workload.invocations, statuses):
        result.attempted += inv.operations
        if not ok:
            result.failed += inv.operations
            result.problems.append(f"{inv.name}: invocation failed")
            continue
        if inv.points:
            _check_sweep(inv, outdir, reference, result)
        else:
            _check_runs(inv, outdir, reference, result)
    return result


def _check_runs(inv, outdir: Path, reference, result: PassCheck) -> None:
    failed = set()
    violations = []
    for seed in inv.seeds:
        path = outdir / f"{inv.name}_seed{seed}.csv"
        if not path.is_file() or not _finite_csv(path):
            failed.add(seed)
            result.problems.append(f"{path.name}: missing or non-finite")
            continue
        result.digests[path.name] = sha256(path)
        violations.extend(unsaturated_violations(path, seed))
    result.violations[inv.name] = violations

    bounds = outdir / f"{inv.name}_bounds.json"
    shared_ok = True
    if bounds.is_file():
        if _finite_json(json.loads(bounds.read_text())):
            result.digests[bounds.name] = sha256(bounds)
        else:
            shared_ok = False
            result.problems.append(f"{bounds.name}: non-finite value")
    if reference is not None:
        for seed in inv.seeds:
            name = f"{inv.name}_seed{seed}.csv"
            if seed not in failed and result.digests.get(name) != reference.digests.get(name):
                failed.add(seed)
                result.problems.append(f"{name}: differs from reference")
        if result.digests.get(bounds.name) != reference.digests.get(bounds.name):
            shared_ok = False
            result.problems.append(f"{bounds.name}: differs from reference")
        if violations != reference.violations.get(inv.name):
            shared_ok = False
            result.problems.append(
                f"{inv.name}: violation list {violations} differs from reference"
            )
    result.failed += len(inv.seeds) if not shared_ok else len(failed)


def _check_sweep(inv, outdir: Path, reference, result: PassCheck) -> None:
    path = outdir / "sweep_summary.csv"
    if not path.is_file():
        result.failed += inv.operations
        result.problems.append("sweep_summary.csv: missing")
        return
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != inv.points:
        result.failed += inv.operations
        result.problems.append(f"sweep_summary.csv: {len(rows)} rows, expected {inv.points}")
        return
    for i, row in enumerate(rows):
        key = f"sweep_summary.csv#{i}"
        result.digests[key] = hashlib.sha256(",".join(row).encode()).hexdigest()
        finite = all(not cell or math.isfinite(float(cell)) for cell in row)
        same = reference is None or reference.digests.get(key) == result.digests[key]
        if not (finite and same):
            result.failed += 1
            result.problems.append(f"{key}: non-finite or differs from reference")
