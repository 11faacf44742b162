"""Byte digests of the artifacts the preset golden manifest does not cover.

``bench/golden_manifest.json`` pins the quantized presets at p = 1.  This
file pins, in ``digests.json``, the SHA-256 of every file written by an
exact-mode run at n = 40, p = 16 with constant attacks and
``--per-agent``, and of a 4-point ``sweep_summary.csv``.  A change that
alters no behaviour keeps every digest.
"""

import hashlib
import json
from pathlib import Path

from disopt.cli import EXIT_OK, main
from disopt.config import preset_document

DIGESTS = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())

# interleaved adversaries, both signs, attacks that push past the box
EXACT_DOC = {
    "n": 40,
    "p": 16,
    "topology": {"type": "complete"},
    "roles": ["adversarial" if i in (3, 10, 17, 31) else "honest" for i in range(40)],
    "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 0.5}},
    "quantizer": None,
    "attack": {
        "3": {"kind": "constant", "value": 0.3},
        "10": {"kind": "constant", "value": 0.3},
        "17": {"kind": "constant", "value": 0.8, "sign": "negative"},
        "31": {"kind": "constant", "value": [0.1 * (j + 1) for j in range(16)]},
    },
    "alpha": 0.6,
    "iterations": 30,
    "seeds": [0, 5],
}


def _sweep_doc() -> dict:
    base = preset_document("fig2c")
    base.update(iterations=50, seeds=[0, 1, 2])
    return {"base": base, "grid": {"bits": [1, 2], "alpha": [0.5, 0.7]}}


def _digests(directory: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def test_exact_mode_per_agent_bytes_match_digests(tmp_path):
    config = tmp_path / "exact.json"
    config.write_text(json.dumps(EXACT_DOC))
    out = tmp_path / "out"
    assert main(["run", str(config), "--per-agent", "--out", str(out)]) == EXIT_OK
    assert _digests(out) == DIGESTS["exact"]


def test_sweep_summary_bytes_match_digest(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(_sweep_doc()))
    out = tmp_path / "out"
    assert main(["sweep", str(grid), "--out", str(out)]) == EXIT_OK
    assert _digests(out) == DIGESTS["sweep"]
