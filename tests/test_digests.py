"""Byte digests of the artifacts the preset golden manifest does not cover.

``bench/golden_manifest.json`` pins the quantized presets at p = 1.  This
file pins, in ``digests.json``, the SHA-256 of every file written with
``--per-agent`` by an exact-mode run at n = 40, p = 16 with constant
attacks and by a 3-bit quantized run at n = 12, p = 4 with uniform
attacks, and of a 4-point ``sweep_summary.csv``.  A change that alters no
behaviour keeps every digest.
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

# a quantized p > 1 trace: interleaved adversaries with keyed uniform draws
# of both signs, and a box reaching past the quantization interval, so
# broadcasts saturate
QUANTIZED_DOC = {
    "n": 12,
    "p": 4,
    "topology": {"type": "complete"},
    "roles": ["adversarial" if i in (2, 5, 8, 11) else "honest" for i in range(12)],
    "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 0.5}},
    "quantizer": {"bits": 3, "interval_length": 1.0, "midpoint": [0.0, 0.1, -0.1, 0.2]},
    "attack": {
        "2": {"kind": "uniform", "range": [0.0, 0.6], "seed": 3},
        "5": {"kind": "uniform", "range": [0.1, 0.9], "sign": "negative", "seed": 4},
        "8": {"kind": "uniform", "range": [0.0, 0.6], "seed": 3},
        "11": {"kind": "uniform", "range": [0.0, 0.4], "sign": "negative", "seed": 9},
    },
    "alpha": 0.6,
    "iterations": 40,
    "seeds": [0, 3],
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


def _per_agent_run_digests(tmp_path, name: str, doc: dict) -> dict:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(config), "--per-agent", "--out", str(out)]) == EXIT_OK
    return _digests(out)


def test_exact_mode_per_agent_bytes_match_digests(tmp_path):
    assert _per_agent_run_digests(tmp_path, "exact", EXACT_DOC) == DIGESTS["exact"]


def test_quantized_per_agent_bytes_match_digests(tmp_path):
    assert _per_agent_run_digests(tmp_path, "quantized", QUANTIZED_DOC) == DIGESTS["quantized"]


def test_sweep_summary_bytes_match_digest(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(_sweep_doc()))
    out = tmp_path / "out"
    assert main(["sweep", str(grid), "--out", str(out)]) == EXIT_OK
    assert _digests(out) == DIGESTS["sweep"]
