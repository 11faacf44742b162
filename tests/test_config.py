import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from disopt import config as config_module
from disopt.config import (
    ConfigError,
    PRESETS,
    parse_config,
    preset_config,
    preset_document,
)
from disopt.harness import run_experiment, run_single


def _doc(**overrides):
    doc = {
        "n": 4,
        "p": 2,
        "topology": {"type": "complete"},
        "roles": ["honest", "honest", "honest", "adversarial"],
        "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 1.0}},
        "quantizer": {"bits": 2, "interval_length": 1.0, "midpoint": 0.0},
        "attack": {"kind": "zero"},
        "alpha": 0.7,
        "iterations": 10,
        "seeds": [0, 1],
    }
    doc.update(overrides)
    return doc


def _paths(excinfo):
    return [path for path, _ in excinfo.value.errors]


def test_valid_document_round_trip():
    cfg = parse_config(_doc())
    assert cfg.n == 4 and cfg.p == 2
    assert cfg.roles == ("honest", "honest", "honest", "adversarial")
    assert cfg.quantizer_bits == 2
    assert cfg.interval_lengths == (1.0, 1.0, 1.0, 1.0)
    assert cfg.max_interval_length == 1.0
    assert set(cfg.attack) == {3}
    assert cfg.seeds == (0, 1)
    # parse from JSON text too
    assert parse_config(json.dumps(_doc())) == cfg


def test_all_errors_reported_with_field_paths():
    doc = _doc(n=0, alpha=-1.0, iterations=0)
    doc["bogus"] = True
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    paths = _paths(excinfo)
    assert "n" in paths and "alpha" in paths and "iterations" in paths
    assert "bogus" in paths


def test_unknown_nested_keys_rejected():
    doc = _doc()
    doc["quantizer"]["resolution"] = 8
    doc["topology"]["weights"] = []
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    paths = _paths(excinfo)
    assert "quantizer.resolution" in paths
    assert "topology.weights" in paths


def test_per_agent_alpha_rejected():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_doc(alpha=[0.7, 0.7, 0.7, 0.7]))
    assert any("one scalar" in msg for _, msg in excinfo.value.errors)


def test_roles_length_must_match_n():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_doc(roles=["honest", "adversarial"]))
    assert "roles" in _paths(excinfo)


def test_at_least_one_honest_agent():
    doc = _doc(roles=["adversarial"] * 4)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    assert any("honest" in msg for _, msg in excinfo.value.errors)


def test_attack_required_for_adversaries():
    doc = _doc()
    del doc["attack"]
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    assert "attack" in _paths(excinfo)


def test_attack_not_allowed_on_honest_agent():
    doc = _doc(attack={"0": {"kind": "zero"}, "3": {"kind": "zero"}})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    assert "attack.0" in _paths(excinfo)


def test_per_agent_attack_mapping():
    doc = _doc(
        roles=["honest", "honest", "adversarial", "adversarial"],
        attack={
            "2": {"kind": "constant", "value": [0.1, 0.1]},
            "3": {"kind": "uniform", "range": [0.0, 0.5], "seed": 4},
        },
    )
    cfg = parse_config(doc)
    assert cfg.attack[2].kind == "constant"
    assert cfg.attack[3].high == 0.5


def test_origin_must_be_inside_box():
    doc = _doc(objective={"name": "quadratic", "box": {"lo": 0.5, "hi": 1.0}})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    assert any("origin" in msg for _, msg in excinfo.value.errors)


def test_disconnected_topology_rejected():
    doc = _doc(topology={"type": "edge_list", "edges": [[0, 1], [2, 3]]})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    assert "topology" in _paths(excinfo)


def test_per_agent_interval_lengths():
    doc = _doc()
    doc["quantizer"]["interval_length"] = [1.0, 0.5, 1.0, 2.0]
    cfg = parse_config(doc)
    assert cfg.interval_lengths == (1.0, 0.5, 1.0, 2.0)
    assert cfg.max_interval_length == 2.0
    assert cfg.quantizer.interval_length.tolist() == [[1.0], [0.5], [1.0], [2.0]]


def test_exact_mode_has_no_quantizer():
    cfg = parse_config(_doc(quantizer=None))
    assert cfg.quantizer_bits is None
    assert cfg.quantizer is None
    assert cfg.max_interval_length == 0.0


def test_init_shape_checked():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_doc(init=[[0.0, 0.0]]))
    assert "init" in _paths(excinfo)


def test_malformed_json_text():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config(json.dumps([1, 2, 3]))


def test_presets_are_valid_and_distinct():
    assert set(PRESETS) == {"fig2a", "fig2b", "fig2c"}
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.n == 10 and cfg.p == 1
        assert cfg.iterations == 200
        assert cfg.seeds == tuple(range(20))
        assert cfg.alpha == 0.7
    assert preset_config("fig2a").roles.count("honest") == 7
    assert preset_config("fig2b").quantizer_bits == 5
    assert preset_config("fig2c").roles.count("honest") == 3


def test_preset_seed_override():
    cfg = preset_config("fig2a", seeds=range(3), strict=True)
    assert cfg.seeds == (0, 1, 2)
    assert cfg.strict
    with pytest.raises(KeyError):
        preset_document("fig9z")


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"topology": {"type": "edge_list", "edges": [[0]]}}, "topology.edges"),
        ({"topology": {"type": "edge_list", "edges": [["a", 1]]}}, "topology.edges"),
        ({"alpha": float("nan")}, "alpha"),
        ({"alpha": float("inf")}, "alpha"),
        ({"seeds": [0, 0]}, "seeds"),
        ({"init": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]}, "init"),
        ({"init": [[0.0, 0.0], [0.0], [0.0, 0.0], [0.0, 0.0]]}, "init"),
        ({"objective": {"name": "quadratic", "box": {"lo": "abc"}}}, "objective.box.lo"),
        ({"objective": {"name": "quadratic", "box": {"hi": float("inf")}}}, "objective.box.hi"),
        ({"quantizer": {"bits": 2, "interval_length": "x"}}, "quantizer.interval_length"),
        ({"attack": {"kind": "uniform", "range": [0.0, 1.0], "seed": 1.5}}, "attack.seed"),
        ({"attack": {"3": {"kind": "zero", "seed": "7"}}}, "attack.3.seed"),
        ({"topology": {"type": "edge_list", "edges": [[0, 1], [1, 2**70]]}}, "topology"),
        # booleans and numeric strings are not numbers, in any vector field
        ({"objective": {"name": "quadratic", "box": {"lo": True}}}, "objective.box.lo"),
        ({"objective": {"name": "quadratic", "box": {"hi": [1.0, True]}}}, "objective.box.hi"),
        ({"objective": {"name": "quadratic", "box": {"lo": "-1"}}}, "objective.box.lo"),
        ({"quantizer": {"bits": 2, "interval_length": True}}, "quantizer.interval_length"),
        ({"quantizer": {"bits": 2, "midpoint": False}}, "quantizer.midpoint"),
        ({"quantizer": {"bits": 2, "midpoint": ["0", 0.0]}}, "quantizer.midpoint"),
        ({"attack": {"kind": "uniform", "range": [False, True]}}, "attack.range"),
        ({"attack": {"kind": "constant", "value": [True, 0.1]}}, "attack.value"),
        ({"attack": {"kind": "constant", "value": False}}, "attack.value"),
        ({"init": [[0.0, 0.0], [0.0, True], [0.0, 0.0], [0.0, 0.0]]}, "init"),
        ({"init": [[0.0, 0.0], [0.0, "0.5"], [0.0, 0.0], [0.0, 0.0]]}, "init"),
    ],
)
def test_malformed_values_rejected_at_parse_time(overrides, path):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_doc(**overrides))
    assert _paths(excinfo) == [path]


def test_count_limits_are_inclusive():
    cfg = parse_config(_doc(p=config_module.MAX_DIMENSION, iterations=2**32))
    assert cfg.p == 2**16 and len(cfg.box_lo) == 2**16
    assert cfg.iterations == config_module.MAX_ITERATIONS == 2**32


def test_topology_built_once_per_config(monkeypatch, tmp_path):
    builds = []
    real = config_module.build_complete

    def counting(n):
        builds.append(n)
        return real(n)

    monkeypatch.setattr(config_module, "build_complete", counting)
    cfg = parse_config(_doc(seeds=[0, 1, 2]))
    artifacts = run_experiment(cfg, tmp_path)
    assert builds == [4]
    assert artifacts.seeds == (0, 1, 2)


# Every field of a small valid document, as a path of keys.
_FIELDS = [
    ("n",), ("p",), ("alpha",), ("iterations",), ("seeds",), ("roles",),
    ("strict",), ("adversary_quantizes",), ("init",),
    ("topology",), ("topology", "type"), ("topology", "edges"),
    ("objective",), ("objective", "name"), ("objective", "box"),
    ("objective", "box", "lo"), ("objective", "box", "hi"),
    ("quantizer",), ("quantizer", "bits"), ("quantizer", "interval_length"),
    ("quantizer", "midpoint"),
    ("attack",), ("attack", "2"), ("attack", "2", "kind"), ("attack", "2", "value"),
    ("attack", "3"), ("attack", "3", "kind"), ("attack", "3", "sign"),
    ("attack", "3", "range"), ("attack", "3", "value"), ("attack", "3", "seed"),
]

# 2**64 and 10**400 overflow an index and a float; a count that large
# fails at once instead of sizing a list
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=5)
    | st.sampled_from([2**64, 10**400])
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_JSON)
# a drawn step above 1 runs with the documented Lemma 1 hypothesis warning
@pytest.mark.filterwarnings("ignore:projection-error bound assumes alpha")
# inputs that once crashed: a huge step (mean-iterate tolerance must scale),
# a constant attack of the wrong length, an unhashable kind, a range that
# is not a list, a midpoint far outside the box
@example(field=("alpha",), value=2**64)
@example(field=("attack", "2", "value"), value=[])
@example(field=("attack", "3", "kind"), value=[])
@example(field=("attack", "3", "range"), value={})
@example(field=("quantizer", "midpoint"), value=2**40)
def test_any_one_field_either_rejected_or_runs_finite(field, value):
    doc = _doc(
        n=4,
        p=2,
        iterations=3,
        seeds=[0],
        init=[[0.1, -0.2], [0.0, 0.5], [-0.3, 0.3], [0.2, 0.0]],
        roles=["honest", "honest", "adversarial", "adversarial"],
        topology={"type": "edge_list", "edges": [[0, 1], [1, 2], [2, 3]]},
        attack={
            "2": {"kind": "constant", "value": [0.2, 0.1]},
            "3": {"kind": "uniform", "sign": "positive", "range": [0.0, 1.0], "seed": 7},
        },
    )
    doc["objective"]["box"] = {"lo": -1.0, "hi": 1.0}
    node = doc
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    # keep the run small: a drawn count may not grow the problem
    assume(not (field in {("p",), ("iterations",)} and _is_count(value) and value > 5))
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    for seed in cfg.seeds:
        result = run_single(cfg, seed)
        assert np.all(np.isfinite(result.final_iterates))
        t = result.traces
        for column in (t.err_all, t.err_honest, t.delta_bar, t.xi_bar_norm, t.lemma1_rhs):
            assert np.all(np.isfinite(column))
        assert np.all(np.isfinite(t.per_agent_err))
