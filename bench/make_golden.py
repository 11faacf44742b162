"""Regenerate the golden manifest of ``paper-presets`` at the default seed.

Usage: python3 bench/make_golden.py

Runs one pass of the three presets and records the SHA-256 of every seed
CSV and ``_bounds.json`` plus the (seed, k) list of unsaturated
projection-error bound violations per preset.  Regenerate only for a
deliberate change of output bytes, and say so where the change is recorded.
"""

import json
import sys

import run  # sets the BLAS thread variables before numpy loads

from checks import GOLDEN_PATH


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from disopt import cli, harness

    workload = run.workloads.make(
        "paper-presets", run.workloads.DEFAULT_SEED, run.OUT_DIR / "paper-presets" / "inputs"
    )
    result = run.run_pass(cli, workload, run.SeedTimer(harness.run_single), None)
    check = result["check"]
    if check.failed:
        print(f"pass failed: {check.problems}", file=sys.stderr)
        return 1
    manifest = {
        "workload": workload.name,
        "seed": workload.seed,
        "files": dict(sorted(check.digests.items())),
        "violations": check.violations,
    }
    GOLDEN_PATH.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH.name}: {len(manifest['files'])} files, "
          f"violations {manifest['violations']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
