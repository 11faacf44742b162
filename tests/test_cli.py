import contextlib
import csv
import hashlib
import io
import json
import math
import re
import tempfile
import tracemalloc
import weakref
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disopt.cli import EXIT_INVARIANT, EXIT_OK, EXIT_STRICT, EXIT_USAGE, _build_parser, main
from disopt.config import MAX_AGENTS, MAX_DIMENSION, parse_config, preset_document
from disopt import adversary, engine, harness
from disopt.config import ConfigError
from disopt.harness import expand_grid, run_experiment, run_single, sweep
from trace_oracle import norms


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


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Example config", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "example.json"
    cfg.write_text(block)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
    assert sorted(path.name for path in out.iterdir()) == [
        "example_bounds.json", "example_seed0.csv", "example_seed1.csv", "example_seed2.csv",
    ]


def test_readme_command_line_matches_the_parser():
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    section = readme.split("## Command line", 1)[1]
    synopsis = section.split("```", 2)[1].split(" disopt ")[1:]
    documented = {line.split()[0]: set(re.findall(r"--[a-z-]+", line)) for line in synopsis}
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    defined = {
        command: {s for a in sub._actions for s in a.option_strings if s.startswith("--")}
        - {"--help"}
        for command, sub in subparsers.items()
    }
    assert documented == defined
    exit_codes = re.search(r"Exit codes: (.*?)\. ", section).group(1)
    for code, meaning in [
        (EXIT_OK, "on success"),
        (EXIT_STRICT, "in strict mode"),
        (EXIT_USAGE, "on usage or config errors"),
        (EXIT_INVARIANT, "when a run fails an invariant check"),
    ]:
        assert f"{code} {meaning}" in exit_codes


def test_run_per_agent_columns(tmp_path):
    cfg = _write(tmp_path, "small.json", SMALL_RUN)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--per-agent"]) == EXIT_OK
    # one column per agent 0..2, one row per state k = 0..K
    agents = np.load(out / "small_seed0_agents.npy")
    assert agents.shape == (SMALL_RUN["iterations"] + 1, 3) and agents.dtype == np.float64
    assert len((out / "small_seed0.csv").read_text().splitlines()[0].split(",")) == 8


def test_per_agent_npy_is_the_traces_per_agent_err_bit_for_bit(tmp_path, capsys):
    # long enough that the engine reduces the trace over several blocks
    doc = {
        **SMALL_RUN,
        "n": 5,
        "p": 3,
        "roles": ["honest"] * 3 + ["adversarial"] * 2,
        "attack": {"kind": "uniform", "range": [0.0, 0.4], "seed": 3},
        "iterations": 1000,
    }
    config = parse_config(doc)
    assert config.plan.block < config.iterations / 3
    cfg = _write(tmp_path, "blocks.json", doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--per-agent"]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    for seed in config.seeds:
        path = out / f"blocks_seed{seed}_agents.npy"
        assert f"wrote {path}" in printed
        want = run_single(config, seed).traces.per_agent_err
        got = np.load(path)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # without --per-agent: the same CSV and JSON bytes, and no .npy
    plain = tmp_path / "plain"
    assert main(["run", str(cfg), "--out", str(plain)]) == EXIT_OK
    names = ["blocks_bounds.json", "blocks_seed0.csv", "blocks_seed1.csv"]
    assert sorted(path.name for path in plain.iterdir()) == names
    assert all((plain / name).read_bytes() == (out / name).read_bytes() for name in names)


def test_a_step_whose_inverse_overflows_runs(tmp_path):
    # 1e-246 / 2**209 is about 1.2e-309: quantize clamps |offset| before it
    # divides by the step, so every cell stays finite
    doc = preset_document("fig2a", seeds=[0, 1])
    doc["quantizer"].update(bits=209, interval_length=1e-246)
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "tiny.json", doc)), "--out", str(out)]) == EXIT_OK
    for seed in (0, 1):
        rows = list(csv.reader((out / f"tiny_seed{seed}.csv").read_text().splitlines()))
        cells = [float(cell) for row in rows[1:] for cell in row if cell]
        assert len(rows) == 202 and all(map(math.isfinite, cells))


def test_runs_after_other_invocations_write_the_golden_bytes(tmp_path, capsys):
    # one process runs a config of another shape, then a preset of fig2c's
    # shape, whose last workspace and keyed stream fig2c's runs find: its
    # files and strict list must be a fresh process's, in any test order
    other = _write(tmp_path, "other.json", dict(SMALL_RUN, iterations=7))
    assert main(["run", str(other), "--out", str(tmp_path / "other")]) == EXIT_OK
    assert main(["preset", "fig2a", "--seeds", "2", "--out", str(tmp_path / "a")]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "c"
    assert main(["preset", "fig2c", "--strict", "--out", str(out)]) == EXIT_STRICT
    manifest = json.loads((Path(__file__).parents[1] / "bench" / "golden_manifest.json").read_text())
    want = {name: digest for name, digest in manifest["files"].items() if name.startswith("fig2c_")}
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert len(want) == 21 and written == want
    assert capsys.readouterr().err == (
        "projection-error bound violated at 1 unsaturated step(s), e.g. [(0, 170)]\n"
    )


def test_invocations_share_one_parser(tmp_path, capsys):
    # a failed parse, a run and a preset in one process, through the one
    # parser built for the first of them
    parser = _build_parser()
    with pytest.raises(SystemExit):
        main(["run", "--no-such-option"])
    config = _write(tmp_path, "small.json", SMALL_RUN)
    assert main(["run", str(config), "--out", str(tmp_path / "r")]) == EXIT_OK
    assert main(["preset", "fig2a", "--seeds", "1", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert _build_parser() is parser
    capsys.readouterr()


def test_per_agent_closing_row_is_the_final_state(tmp_path):
    # every error of a mean is norm(..., axis=-1), and every per-agent error
    # the einsum norm, each the one form of every row
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
    agents = np.load(out / "wide_seed0_agents.npy")

    config = parse_config(doc)
    x_star = config.plan.objective.x_star
    final = run_single(config, 0).final_iterates
    honest = config.plan.honest
    assert last[0] == str(config.iterations)
    assert last[1:3] == [
        repr(float(norms(final.mean(axis=0) - x_star))),
        repr(float(norms(final[honest].mean(axis=0) - x_star))),
    ]
    assert last[3:6] == ["", "", ""] and last[7:] == [""]
    assert len(agents) == config.iterations + 1
    assert agents[-1].tobytes() == norms(final - x_star).tobytes()


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_file_that_is_not_utf8_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(bytes(np.random.default_rng(0).integers(0, 256, 100, dtype=np.uint8)))
    with pytest.raises(UnicodeDecodeError):
        path.read_text(encoding="utf-8")
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {path}: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_a_step_that_underflows_is_usage_error(tmp_path, capsys):
    # 3e-294 / 2**225 rounds to a zero step: this run once divided by 0 (a
    # RuntimeWarning), and its start at the midpoint gave 0/0 = NaN and a
    # BoundViolationError (exit 1)
    quantizer = {"bits": 225, "interval_length": 3e-294}
    doc = dict(SMALL_RUN, quantizer=quantizer, init=[[0.0]] * 3)
    cfg = _write(tmp_path, "tiny.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "quantizer.interval_length: the step" in capsys.readouterr().err


def test_a_bound_column_past_float_range_is_inf(tmp_path, capsys):
    # rho = 3 - 3 * 0.1 = 2.7: rho**(k/2) leaves float range at k = 1,430,
    # which once raised OverflowError after every seed had run (exit 1)
    doc = preset_document("fig2a", seeds=[0, 1])
    doc.update(alpha=0.1, iterations=1500)
    cfg = _write(tmp_path, "slow.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        "theorem bound exceeds float range from k=1430 on; those theorem_bound cells are inf"
    ]
    report = json.loads((tmp_path / "slow_bounds.json").read_text())
    assert report["admissible"]["contractive"] is False
    bounds = [
        row.split(",")[6] for row in (tmp_path / "slow_seed0.csv").read_text().splitlines()[1:]
    ]
    assert all(math.isfinite(float(cell)) for cell in bounds[:1430])
    assert bounds[1430:] == ["inf"] * (1501 - 1430)


# n and p each at their cap: a 7 GiB run workspace
_WIDE = {
    "n": MAX_AGENTS,
    "p": MAX_DIMENSION,
    "roles": ["honest"] * MAX_AGENTS,
    "quantizer": None,
    "attack": None,
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("p", 2**31),
        ("iterations", 2**32 + 1),
        ("n", MAX_AGENTS + 1),
        pytest.param("p", _WIDE, id="n*p"),
    ],
)
def test_count_limits_reject_before_building_anything(tmp_path, capsys, field, value):
    # a scalar box once expanded to p entries first: 16 GiB at p = 2**31;
    # a round index past 2**32 - 1 would not fit the keyed stream's word;
    # n = 20000 once died building a complete graph's (n, n) weights;
    # n and p within their caps once died allocating the workspace (exit 1)
    overrides = value if isinstance(value, dict) else {field: value}
    cfg = _write(tmp_path, "big.json", dict(SMALL_RUN, **overrides))
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
    # --seeds N runs seeds 0..N-1, even past the preset's own seed list
    assert main(["preset", "fig2a", "--seeds", "23", "--out", str(out)]) == EXIT_OK
    assert set(out.glob("fig2a_seed*.csv")) == {out / f"fig2a_seed{s}.csv" for s in range(23)}


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


_SHARED = {"kind": "uniform", "range": [0.0, 1.0]}
_HIGH = {"attack_high": [1.0]}


# each of these once escaped expand_grid as a raw exception (exit 1)
@pytest.mark.parametrize(
    "base, axes, path",
    [
        ("fig9z", {"alpha": [0.5]}, "base"),
        ([1], {"alpha": [0.5]}, "base"),
        (dict(SMALL_RUN, quantizer=None), {"bits": [2]}, "base.quantizer"),
        (dict(SMALL_RUN, attack=dict(_SHARED, range=5)), _HIGH, "base.attack.range"),
        (dict(SMALL_RUN, attack=dict(_SHARED, range=[])), _HIGH, "base.attack.range"),
        (dict(SMALL_RUN, attack=["kind"]), _HIGH, "grid.attack_high"),
        (SMALL_RUN, 5, "grid"),
        # a non-canonical agent id reaches parse_config through a grid point
        (
            dict(SMALL_RUN, attack={"2": {"kind": "zero"}, "02": {"kind": "zero"}}),
            {"alpha": [0.5]},
            "grid point {'alpha': 0.5}: attack.02",
        ),
    ],
)
def test_malformed_sweep_document_is_usage_error(tmp_path, capsys, base, axes, path):
    path_file = _write(tmp_path, "grid.json", {"base": base, "grid": axes})
    assert main(["sweep", str(path_file), "--out", str(tmp_path)]) == EXIT_USAGE
    assert f"  {path}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, errors",
    [
        ({"grid": {"alpha": [0.5]}}, [("base", "sweep document needs a 'base' config or preset name")]),
        (
            {"base": "fig2a", "grid": {"alpha": [0.5]}, "extra": 1, "more": 2},
            [("extra", "unknown key"), ("more", "unknown key")],
        ),
        ({"base": "fig2a", "grid": {"beta": [1], "alpha": [0.5]}}, [("grid.beta", "unknown grid axis")]),
        ({"base": "fig2a", "grid": {}}, [("grid", "empty grid: provide at least one axis")]),
        ({"base": "fig2a"}, [("grid", "empty grid: provide at least one axis")]),
        ({"base": "fig2a", "grid": {"alpha": []}}, [("grid.alpha", "every axis must be a nonempty list")]),
        ({"base": "fig2a", "grid": {"alpha": 0.5}}, [("grid.alpha", "every axis must be a nonempty list")]),
        (["fig2a"], [("<document>", "top level must be an object")]),
    ],
    ids=[
        "no-base", "unknown-key", "unknown-axis", "empty-grid", "no-grid", "empty-axis",
        "scalar-axis", "non-object",
    ],
)
def test_every_sweep_check_reports_its_exact_message(doc, errors):
    with pytest.raises(ConfigError) as excinfo:
        expand_grid(doc)
    assert excinfo.value.errors == errors


@pytest.mark.parametrize("command", ["run", "preset", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
def test_unusable_output_directory_is_usage_error(monkeypatch, tmp_path, capsys, command, below):
    # an existing file (FileExistsError) or a path under one (NotADirectoryError)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    inputs = {
        "run": [str(_write(tmp_path, "small.json", SMALL_RUN))],
        "preset": ["fig2a", "--seeds", "1"],
        "sweep": [str(_write(tmp_path, "grid.json", {"base": SMALL_RUN, "grid": {"bits": [1]}}))],
    }
    seeds = []
    real = harness.run_single
    monkeypatch.setattr(harness, "run_single", lambda c, seed: seeds.append(seed) or real(c, seed))
    assert main([command, *inputs[command], "--out", str(out)]) == EXIT_USAGE
    assert seeds == []  # found before any seed runs
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"cannot write {out}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "seeds, stem",
    [([10**300], "small"), ([0], "s" * 245)],
    ids=["seed", "stem"],
)
def test_an_artifact_that_cannot_be_written_is_usage_error(tmp_path, capsys, seeds, stem):
    # a seed's CSV name, or the bound report's <stem>_bounds.json (257
    # characters here), too long for the file system: one stderr line, exit 2
    config = _write(tmp_path, f"{stem}.json", dict(SMALL_RUN, seeds=seeds, iterations=3))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"cannot write {out}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 16 GiB"), "out of memory: Unable to allocate 16 GiB\n"),
        (MemoryError(), "out of memory\n"),
    ],
)
def test_a_run_out_of_memory_is_usage_error(monkeypatch, tmp_path, capsys, error, line):
    # a run holds all its rounds: 2**32 of them once ended in a raw
    # traceback and exit 1, the strict code
    def exhausted(config, seed):
        raise error

    monkeypatch.setattr(harness, "run_single", exhausted)
    config = _write(tmp_path, "small.json", SMALL_RUN)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("command", ["run", "preset", "sweep"])
def test_a_run_gone_nan_exits_with_the_invariant_code(monkeypatch, tmp_path, capsys, command):
    # seed 1 starts from NaN, so its mean-iterate check fails at k = 0: one
    # stderr line names the scenario, the seed and k, with no traceback
    def initial_iterates(n, feasible, seed, explicit=None):
        return np.full((n, feasible.dimension), np.nan if seed == 1 else 0.0)

    monkeypatch.setattr(engine, "initial_iterates", initial_iterates)
    grid = {"base": SMALL_RUN, "grid": {"bits": [1, 2]}}
    inputs = {
        "run": ([str(_write(tmp_path, "small.json", SMALL_RUN))], "small"),
        "preset": (["fig2a", "--seeds", "2"], "fig2a"),
        "sweep": ([str(_write(tmp_path, "grid.json", grid))], "grid point {'bits': 1}"),
    }
    argv, scenario = inputs[command]
    assert main([command, *argv, "--out", str(tmp_path / "out")]) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        f"invariant violated in {scenario}, seed 1: "
        "mean-iterate bookkeeping identity off by nan at k=0\n"
    )


def test_malformed_sweep_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text('{"base": "fig2a", "grid": ')
    assert main(["sweep", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "  <document>: malformed JSON" in capsys.readouterr().err


def test_sweep_takes_json_text(tmp_path):
    grid = {"base": dict(SMALL_RUN, seeds=[0]), "grid": {"bits": [1, 3]}}
    summary = sweep(json.dumps(grid), tmp_path / "text")
    assert summary == sweep(grid, tmp_path / "dict")
    assert [row["bits"] for row in summary.rows] == [1, 3]


def test_every_seed_runs_through_the_harness_run_single(monkeypatch, tmp_path):
    # a wrapper installed on harness.run_single, as the benchmark's seed
    # timer is, sees each seed of a run and of every grid point once; a
    # sweep runs seed-major, every point's run of seed 0 first
    calls = []
    real = harness.run_single

    def counting(config, seed):
        calls.append(seed)
        return real(config, seed)

    monkeypatch.setattr(harness, "run_single", counting)
    run_experiment(parse_config(SMALL_RUN), tmp_path / "run")
    assert calls == [0, 1]
    calls.clear()
    grid = {"bits": [1, 3], "alpha": [0.5, 0.6, 0.7]}
    rows = sweep({"base": SMALL_RUN, "grid": grid}, tmp_path / "sweep").rows
    assert len(rows) == 6 and calls == [0] * 6 + [1] * 6


def _fig2c_sweep(grid: dict, iterations: int, seeds: list) -> dict:
    base = preset_document("fig2c")
    base.update(iterations=iterations, seeds=seeds)
    return {"base": base, "grid": grid}


def test_a_sweep_draws_each_seeds_stream_once_and_matches_per_point_runs(
    monkeypatch, tmp_path
):
    # no grid axis changes the keyed stream, so P points of S seeds draw S
    # streams; every point's summary is still that of its own run
    seeds = [0, 3, 5]
    doc = _fig2c_sweep(
        {"bits": [1, 2], "interval_length": [1.0, 2.0], "attack_high": [0.5, 1.0]}, 30, seeds
    )
    draws = []  # the derived seed of each keyed stream drawn
    real = adversary._uniform_stream
    monkeypatch.setattr(
        adversary, "_uniform_stream", lambda *key: draws.append(key[0]) or real(*key)
    )
    sweep(doc, tmp_path / "sweep")
    assert len(draws) == len(set(draws)) == len(seeds)

    with open(tmp_path / "sweep" / "sweep_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    points = expand_grid(doc)
    assert len(rows) == len(points) == 8
    for index, ((point, cfg), row) in enumerate(zip(points, rows)):
        out = tmp_path / f"point{index}"
        artifacts = run_experiment(cfg, out)
        report = json.loads(artifacts.report_path.read_text())
        finals = [
            float(path.read_text().splitlines()[-1].split(",")[2])  # err_mean_honest
            for path in artifacts.csv_paths
        ]
        assert {k: float(row[k]) for k in point} == point
        assert float(row["mean_final_honest_err"]) == report["mean_final_honest_err"]
        assert float(row["max_final_honest_err"]) == max(finals)
        assert float(row["neighborhood"]) == report["neighborhood"]


@pytest.mark.parametrize("strict", [True, False])
def test_a_sweep_honours_its_bases_strict_mode(tmp_path, capsys, strict):
    # fig2c seed 0 fails the projection-error bound unsaturated at k = 170,
    # and the one grid point keeps the preset's alpha
    doc = _fig2c_sweep({"alpha": [0.7]}, 200, [0])
    doc["base"]["strict"] = strict
    path = _write(tmp_path, "grid.json", doc)
    code = main(["sweep", str(path), "--out", str(tmp_path / "out")])
    assert code == (EXIT_STRICT if strict else EXIT_OK)
    assert capsys.readouterr().err == (
        "projection-error bound violated at 1 unsaturated step(s), "
        "e.g. [({'alpha': 0.7}, 0, 170)]\n"
    )
    summary = sweep(doc, tmp_path / "again")
    assert summary.strict is strict and summary.strict_violations == (({"alpha": 0.7}, 0, 170),)


def test_at_most_one_keyed_stream_is_alive(monkeypatch, tmp_path):
    # the points of a sweep draw each seed's stream once, and every earlier
    # stream is freed before a new draw; the last one stays, read-only
    streams = []
    real = adversary._uniform_stream

    def recording(*args):
        assert [ref() for ref in streams] == [None] * len(streams)
        stream = real(*args)
        streams.append(weakref.ref(stream))
        return stream

    monkeypatch.setattr(adversary, "_uniform_stream", recording)
    adversary._last_stream.clear()
    sweep(_fig2c_sweep({"alpha": [0.5, 0.7]}, 10, [0, 1]), tmp_path)
    assert len(streams) == 2
    [kept] = adversary._last_stream.values()
    assert streams[0]() is None and kept is streams[1]()


def _sweep_peak(tmp_path, grid: dict) -> int:
    doc = _fig2c_sweep(grid, 200, [0, 1, 2, 3])
    sweep(doc, tmp_path / "warm")  # caches and the heap reach their steady state
    tracemalloc.start()
    try:
        sweep(doc, tmp_path / "out")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sweeps_peak_memory_does_not_grow_with_its_traces(tmp_path):
    # a run is folded into its point's summary as it finishes, so only the
    # ten extra configs add to the peak (~70 kB); holding every run's trace
    # would add ~39 kB for each of the 40 extra runs (1.6 MB)
    two = _sweep_peak(tmp_path, {"bits": [1, 2]})
    twelve = _sweep_peak(
        tmp_path, {"bits": [1, 2, 3], "alpha": [0.5, 0.7], "attack_high": [0.5, 1.0]}
    )
    assert twelve - two < 256 * 1024


def test_a_sweep_builds_one_topology(tmp_path):
    # no grid axis changes n, the graph or the box, so every point takes
    # the first point's topology, box and objective; eight points of a
    # 400-agent complete graph (1.28 MB of weights, as much again of edges)
    # once peaked ~18 MB above one point
    def sweep_doc(points: int) -> dict:
        doc = _fig2c_sweep({"alpha": [0.1 * (i + 1) for i in range(points)]}, 2, [0])
        doc["base"].update(n=400, roles=["honest"] * 200 + ["adversarial"] * 200)
        return doc

    def peak(points: int) -> int:
        tracemalloc.start()
        try:
            sweep(sweep_doc(points), tmp_path / f"sweep{points}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, eight = peak(1), peak(8)
    assert eight - one < 400 * 400 * 8
    configs = [cfg for _, cfg in expand_grid(sweep_doc(8))]
    for name in ("plan.topology", "plan.feasible", "plan.objective"):
        get = attrgetter(name)
        assert all(get(cfg) is get(configs[0]) for cfg in configs), name
    # a separate sweep document builds its own
    assert expand_grid(sweep_doc(1))[0][1].plan.topology is not configs[0].plan.topology


def test_a_point_with_another_box_builds_its_own_topology():
    base = parse_config(SMALL_RUN)
    same = parse_config(SMALL_RUN, like=base)
    shared = [attrgetter(name) for name in ("plan.topology", "plan.feasible", "plan.objective")]
    assert all(get(same) is get(base) for get in shared)
    ring = {"type": "edge_list", "edges": [[0, 1], [1, 2], [2, 0]]}
    # each pair differs in one field that fixes the built inputs: the
    # signed zero of a box bound (compared by repr), n, the edge list
    cases = [
        ({"objective": {"name": "quadratic", "box": {"lo": 0.0, "hi": 1.0}}},
         {"objective": {"name": "quadratic", "box": {"lo": -0.0, "hi": 1.0}}}),
        ({}, {"n": 4, "roles": ["honest"] * 3 + ["adversarial"]}),
        ({"topology": ring}, {"topology": dict(ring, edges=[[0, 1], [1, 2]])}),
    ]
    for like_fields, fields in cases:
        like = parse_config(dict(SMALL_RUN, **like_fields))
        other = parse_config(dict(SMALL_RUN, **fields), like=like)
        assert all(get(other) is not get(like) for get in shared), fields
    assert np.signbit(parse_config(dict(SMALL_RUN, **cases[0][1])).plan.feasible.lo).all()


def test_strict_mode_exit_code(tmp_path):
    # --strict exits 1 on the raw comparison of the attacked residual with
    # Lemma 1's attack-free bound, which fig2c seed 0 still trips at k=170
    out = tmp_path / "out"
    code = main(["preset", "fig2c", "--strict", "--out", str(out)])
    assert code == EXIT_STRICT
    # the artifacts are still written before the failure is reported
    assert (out / "fig2c_seed0.csv").exists()


# 10**U(-320, 50): from subnormal up to the magnitude cap (10.0**50 is a
# hair above it, so the top of the range is a config error)
_MAGNITUDE = st.floats(min_value=-320.0, max_value=50.0).map(lambda e: 10.0**e)


@st.composite
def _accepted_documents(draw) -> dict:
    """Small documents with every real field drawn across float range."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    roles = ["honest"] + draw(st.lists(st.sampled_from(["honest", "adversarial"]),
                                       min_size=n - 1, max_size=n - 1))
    lo, hi = -draw(_MAGNITUDE), draw(_MAGNITUDE)
    doc = {
        "n": n,
        "p": p,
        "roles": roles,
        "objective": {"name": "quadratic", "box": {"lo": lo, "hi": hi}},
        "quantizer": None,
        "alpha": draw(_MAGNITUDE),
        "iterations": draw(st.sampled_from([1, 5, 50, 400, 3000])),
        "seeds": draw(st.sampled_from([[0], [3, 1]])),
        "adversary_quantizes": draw(st.booleans()),
    }
    start = 0.0
    if draw(st.booleans()):
        start = draw(st.floats(lo, hi))
        doc["quantizer"] = {
            "bits": draw(st.integers(1, 1023)),
            "interval_length": draw(_MAGNITUDE),
            "midpoint": start,
        }
    if draw(st.booleans()):  # every agent at the midpoint, a zero offset
        doc["init"] = [[start] * p] * n
    if "adversarial" in roles:
        kind = draw(st.sampled_from(["zero", "constant", "uniform"]))
        attack = {"kind": kind, "sign": draw(st.sampled_from(["positive", "negative"]))}
        if kind == "constant":
            attack["value"] = draw(_MAGNITUDE)
        elif kind == "uniform":
            attack["range"] = sorted([draw(_MAGNITUDE), draw(_MAGNITUDE)])
            attack["seed"] = draw(st.integers(0, 2**32 - 1))
        doc["attack"] = attack
    return doc


def _finite_json_number(text):
    raise AssertionError(f"non-finite JSON number {text}")


@settings(max_examples=60, deadline=None)
@given(doc=_accepted_documents())
# a step above 1 runs with the documented Lemma 1 hypothesis warning
@pytest.mark.filterwarnings("ignore:projection-error bound assumes alpha <= 1")
# a bound column past float range (once an OverflowError, exit 1) and a
# quantizer step that underflows to 0 (once NaN at the midpoint, exit 1)
@example(doc={**SMALL_RUN, "alpha": 0.1, "iterations": 3000})
@example(doc={**SMALL_RUN, "quantizer": {"bits": 225, "interval_length": 3e-294},
              "init": [[0.0]] * 3})
def test_an_accepted_document_runs_to_the_end_or_is_a_config_error(doc):
    try:
        parse_config(doc)
    except ConfigError:
        accepted = False
    else:
        accepted = True
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "doc.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["run", str(path), "--out", str(out)])
        if not accepted:
            assert code == EXIT_USAGE and stderr.getvalue().startswith("config error:")
            return
        assert code == EXIT_OK
        contractive = True
        if doc["quantizer"] is not None:
            report = json.loads(
                (out / "doc_bounds.json").read_text(), parse_constant=_finite_json_number
            )
            contractive = report["admissible"]["contractive"]
        for seed in doc["seeds"]:
            header, *rows = (out / f"doc_seed{seed}.csv").read_text().splitlines()
            names = header.split(",")
            for row in rows:
                for name, cell in zip(names, row.split(",")):
                    if cell and not math.isfinite(float(cell)):
                        assert name == "theorem_bound" and not contractive, (name, cell)
