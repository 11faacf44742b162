import json
import tracemalloc

import numpy as np
import pytest

from disopt.cli import EXIT_OK, EXIT_STRICT, EXIT_USAGE, main
from disopt.config import parse_config
from disopt.harness import run_single


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


SMALL_RUN = {
    "n": 3,
    "p": 1,
    "topology": {"type": "complete"},
    "roles": ["honest", "honest", "adversarial"],
    "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 1.0}},
    "quantizer": {"bits": 3, "interval_length": 1.0, "midpoint": 0.0},
    "attack": {"kind": "constant", "value": [0.2], "seed": 0},
    "alpha": 0.7,
    "iterations": 20,
    "seeds": [0, 1],
}


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "small.json", SMALL_RUN)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "small_seed0.csv").exists()
    assert (out / "small_seed1.csv").exists()
    assert (out / "small_bounds.json").exists()
    report = json.loads((out / "small_bounds.json").read_text())
    assert report["bits"] == 3
    assert report["seeds"] == [0, 1]
    assert "wrote" in capsys.readouterr().out


def test_run_per_agent_columns(tmp_path):
    cfg = _write(tmp_path, "small.json", SMALL_RUN)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--per-agent"]) == EXIT_OK
    header = (out / "small_seed0.csv").read_text().splitlines()[0]
    assert "err_agent_0" in header and "err_agent_2" in header


def test_per_agent_closing_row_is_the_final_state(tmp_path):
    # at p > 1 the per-vector norm and norm(..., axis=1) can differ in the
    # last bit (they do for two agents of this run); the closing row has
    # always held the per-vector one
    doc = {
        **SMALL_RUN,
        "n": 5,
        "p": 3,
        "roles": ["honest"] * 3 + ["adversarial"] * 2,
        "attack": {"kind": "uniform", "range": [0.0, 0.4], "seed": 3},
        "seeds": [0],
    }
    cfg = _write(tmp_path, "wide.json", doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--per-agent"]) == EXIT_OK
    last = (out / "wide_seed0.csv").read_text().splitlines()[-1].split(",")

    config = parse_config(doc)
    _, x_star = config.objectives
    final = run_single(config, 0).final_iterates
    honest = np.array([role == "honest" for role in config.roles])
    assert last[0] == str(config.iterations)
    assert last[1:3] == [
        repr(float(np.linalg.norm(final.mean(axis=0) - x_star))),
        repr(float(np.linalg.norm(final[honest].mean(axis=0) - x_star))),
    ]
    assert last[3:6] == ["", "", ""] and last[7] == ""
    assert last[8:] == [repr(float(np.linalg.norm(row - x_star))) for row in final]
    assert last[8:] != list(map(repr, np.linalg.norm(final - x_star, axis=1).tolist()))


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_invalid_config_reports_field_paths(tmp_path, capsys):
    doc = dict(SMALL_RUN, alpha=-1)
    cfg = _write(tmp_path, "bad.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "alpha" in capsys.readouterr().err


def test_config_that_used_to_crash_is_usage_error(tmp_path, capsys):
    # a one-element edge once escaped parsing as a raw IndexError (exit 1)
    doc = dict(SMALL_RUN, topology={"type": "edge_list", "edges": [[0]]})
    cfg = _write(tmp_path, "bad.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "topology.edges" in capsys.readouterr().err


@pytest.mark.parametrize("endpoint", [2**63, 2**64 - 1, 2**70, -(2**70)])
def test_huge_edge_endpoint_is_usage_error(tmp_path, capsys, endpoint):
    # numpy holds endpoints beyond int64 as Python ints or rounded floats:
    # converting them to int64 before the range check raises OverflowError
    # or misreports the value; the self-loop after the bad edge is not reported
    edges = [[0, 1], [1, endpoint], [2, 2]]
    doc = dict(SMALL_RUN, topology={"type": "edge_list", "edges": edges})
    cfg = _write(tmp_path, "huge.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert f"edge (1, {endpoint}) has an endpoint outside [0, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("bits, code", [(1023, EXIT_OK), (1024, EXIT_USAGE), (2000, EXIT_USAGE)])
def test_bits_limit_keeps_the_step_divisor_finite(tmp_path, capsys, bits, code):
    # 2**1024 overflows a float; above the limit the quantizer once
    # raised a raw OverflowError mid-run (exit 1)
    doc = dict(SMALL_RUN, quantizer={"bits": bits, "interval_length": 1.0})
    cfg = _write(tmp_path, "bits.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == code
    assert ("quantizer.bits" in capsys.readouterr().err) == (code == EXIT_USAGE)


@pytest.mark.parametrize("field, value", [("p", 2**31), ("iterations", 2**32 + 1)])
def test_count_limits_reject_before_building_anything(tmp_path, capsys, field, value):
    # a scalar box once expanded to p entries first: 16 GiB at p = 2**31;
    # a round index past 2**32 - 1 would not fit the keyed stream's word
    cfg = _write(tmp_path, "big.json", dict(SMALL_RUN, **{field: value}))
    tracemalloc.start()
    try:
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert f"{field}: must be <=" in capsys.readouterr().err
    assert peak < 2**20


def test_outdir_env_fallback(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "small.json", SMALL_RUN)
    out = tmp_path / "envout"
    monkeypatch.setenv("DISOPT_OUT", str(out))
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (out / "small_seed0.csv").exists()


def test_preset_with_seed_subset(tmp_path):
    out = tmp_path / "out"
    assert main(["preset", "fig2b", "--seeds", "1", "--out", str(out)]) == EXIT_OK
    assert (out / "fig2b_seed0.csv").exists()
    assert not (out / "fig2b_seed1.csv").exists()


def test_preset_zero_seeds_is_usage_error(tmp_path, capsys):
    code = main(["preset", "fig2a", "--seeds", "0", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "--seeds" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == EXIT_USAGE


def test_sweep_writes_summary(tmp_path):
    grid = {
        "base": dict(SMALL_RUN, seeds=[0]),
        "grid": {"bits": [1, 3], "alpha": [0.7]},
    }
    path = _write(tmp_path, "grid.json", grid)
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert len(lines) == 3  # header plus two grid points
    assert lines[0].startswith("alpha,bits")


def test_sweep_invalid_grid_point(tmp_path, capsys):
    grid = {"base": dict(SMALL_RUN, seeds=[0]), "grid": {"alpha": [0.7, -2]}}
    path = _write(tmp_path, "grid.json", grid)
    assert main(["sweep", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "alpha" in capsys.readouterr().err


def test_strict_mode_exit_code(tmp_path):
    # --strict exits 1 on the raw comparison of the attacked residual with
    # Lemma 1's attack-free bound, which fig2c seed 0 still trips at k=170
    out = tmp_path / "out"
    code = main(["preset", "fig2c", "--strict", "--out", str(out)])
    assert code == EXIT_STRICT
    # the artifacts are still written before the failure is reported
    assert (out / "fig2c_seed0.csv").exists()
