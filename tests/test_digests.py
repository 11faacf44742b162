"""Byte digests of the artifacts the preset golden manifest does not cover.

``bench/golden_manifest.json`` pins the quantized presets at p = 1.  This
file pins, in ``digests.json``, the SHA-256 of every file written with
``--per-agent`` by an exact-mode run at n = 40, p = 16 with constant
attacks, by a 3-bit quantized run at n = 12, p = 4 with uniform attacks,
and by a 4-bit quantized run at n = 400, p = 4, a complete graph that
mixes in the rank-one form: each seed's CSV and its ``_agents.npy`` of
per-agent errors, and the quantized runs' bound reports.  It also pins a
4-point ``sweep_summary.csv``.  A change that alters no behaviour keeps
every digest.  The rank-one run calls no BLAS, so its bytes must also hold
under another OpenBLAS kernel and thread count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import disopt
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


# a complete graph above engine.RANK_ONE_AGENTS, with quantized honest
# agents, keyed uniform attacks and a box reaching past the interval
WIDE_DOC = {
    "n": 400,
    "p": 4,
    "topology": {"type": "complete"},
    "roles": ["adversarial" if i % 5 == 2 else "honest" for i in range(400)],
    "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 0.5}},
    "quantizer": {"bits": 4, "interval_length": 1.0, "midpoint": [0.0, 0.1, -0.1, 0.2]},
    "attack": {"kind": "uniform", "range": [0.0, 0.6], "seed": 3},
    "alpha": 0.6,
    "iterations": 20,
    "seeds": [0, 7],
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


def test_rank_one_per_agent_bytes_match_digests(tmp_path):
    assert _per_agent_run_digests(tmp_path, "wide", WIDE_DOC) == DIGESTS["wide"]


def test_rank_one_bytes_hold_under_another_blas_kernel_and_thread_count(tmp_path):
    # OpenBLAS reads these when it loads, so the run needs a process of its own
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(WIDE_DOC))
    out = tmp_path / "out"
    src = str(Path(disopt.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = ["run", str(config), "--per-agent", "--out", str(out)]
    subprocess.run(
        [sys.executable, "-m", "disopt.cli", *argv], env=env, check=True, capture_output=True
    )
    assert _digests(out) == DIGESTS["wide"]


def test_sweep_summary_bytes_match_digest(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(_sweep_doc()))
    out = tmp_path / "out"
    assert main(["sweep", str(grid), "--out", str(out)]) == EXIT_OK
    assert _digests(out) == DIGESTS["sweep"]
