"""Preset artifacts are byte-identical to the golden manifest.

``bench/golden_manifest.json`` holds the SHA-256 of every CSV and
``_bounds.json`` that ``disopt preset`` writes for fig2a/fig2b/fig2c, plus
each preset's (seed, k) list of unsaturated projection-error bound
violations.  A refactor that changes no behaviour keeps every digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from disopt.cli import EXIT_OK, EXIT_STRICT, main

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden_manifest.json").read_text()
)


def test_manifest_covers_every_preset_file():
    assert len(MANIFEST["files"]) == 3 * (20 + 1)


@pytest.mark.parametrize(
    "name, violations",
    [("fig2a", []), ("fig2b", []), ("fig2c", [(0, 170)])],
)
def test_preset_bytes_match_golden_manifest(name, violations, tmp_path, capsys):
    code = main(["preset", name, "--strict", "--out", str(tmp_path)])

    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    expected = {k: v for k, v in MANIFEST["files"].items() if k.startswith(f"{name}_")}
    assert written == expected

    # --strict reports exactly the manifest's (seed, k) list
    assert [tuple(v) for v in MANIFEST["violations"][name]] == violations
    assert code == (EXIT_STRICT if violations else EXIT_OK)
    err = capsys.readouterr().err
    if violations:
        assert f"at {len(violations)} unsaturated step(s), e.g. {violations}" in err
    else:
        assert err == ""
