import json
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from disopt import adversary
from disopt import config as config_module
from disopt.config import (
    ConfigError,
    PRESETS,
    parse_config,
    preset_config,
    preset_document,
)
from disopt.harness import build_bound_report, run_experiment, run_single


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


def _roles(cfg):
    """The plan's role assignment: its honest ids, quantizing mask and
    (policy, agents) groups."""
    plan = cfg.plan
    groups = [(policy, agents.tolist()) for policy, agents in plan.attacks]
    return plan.honest.tolist(), plan.quantizes.tolist(), groups


def test_valid_document_round_trip():
    cfg = parse_config(_doc())
    assert cfg.n == 4 and cfg.p == 2
    assert cfg.plan.honest.tolist() == [0, 1, 2]
    assert cfg.plan.quantizer.bits == 2
    assert cfg.plan.quantizer.interval_length.tolist() == [[1.0]] * 4
    assert build_bound_report(cfg, 0.0).interval_length == 1.0
    assert cfg.plan.attacks == ()  # agent 3's zero policy is no group
    assert cfg.seeds == (0, 1)
    # parse from JSON text too: configs compare by identity, so compare
    # what each one built and holds
    text = parse_config(json.dumps(_doc()))
    assert text is not cfg and text != cfg
    assert text.plan.topology.edges.tolist() == cfg.plan.topology.edges.tolist()
    assert text.plan.topology.weights.tobytes() == cfg.plan.topology.weights.tobytes()
    for a, b in (
        (text.plan.feasible, cfg.plan.feasible),
        (text.plan.quantizer, cfg.plan.quantizer),
    ):
        assert vars(a).keys() == vars(b).keys()
        assert all(np.array_equal(vars(a)[k], vars(b)[k]) for k in vars(a)), a
    assert text.plan.objective.x_star.tobytes() == cfg.plan.objective.x_star.tobytes()
    assert text.plan.objective.subgrad_bound == cfg.plan.objective.subgrad_bound
    assert _roles(text) == _roles(cfg)
    assert text.plan.explicit_init is cfg.plan.explicit_init is None
    fields = ("plan.alpha", "plan.iterations", "seeds", "strict", "build_key")
    assert all(attrgetter(name)(text) == attrgetter(name)(cfg) for name in fields)
    # a constant attack at p >= 2 compares and hashes by its value
    doc = _doc(
        n=3,
        roles=["honest", "honest", "adversarial"],
        attack={"kind": "constant", "value": [0.5, 0.25]},
    )
    constant = parse_config(doc)
    assert _roles(parse_config(json.dumps(doc))) == _roles(constant)
    assert hash(parse_config(doc).plan.attacks[0][0]) == hash(constant.plan.attacks[0][0])


@pytest.mark.parametrize("lengths", [1.0, [1.0, 0.5, 1.0, 2.0]], ids=["shared", "per-agent"])
def test_the_built_box_and_quantizer_compare_by_identity(lengths):
    # both hold arrays, so a field-by-field == raised ValueError at p = 2,
    # and hash raised TypeError
    doc = _doc()
    doc["quantizer"]["interval_length"] = lengths
    first, second = parse_config(doc), parse_config(doc)
    for a, b in (
        (first.plan.feasible, second.plan.feasible),
        (first.plan.quantizer, second.plan.quantizer),
    ):
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2


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
    groups = [(policy.kind, agents.tolist()) for policy, agents in cfg.plan.attacks]
    assert groups == [("constant", [2]), ("uniform", [3])]
    assert cfg.plan.attacks[1][0].high == 0.5


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
    assert build_bound_report(cfg, 0.0).interval_length == 2.0
    assert cfg.plan.quantizer.interval_length.tolist() == [[1.0], [0.5], [1.0], [2.0]]


@pytest.mark.parametrize(
    "length, bits, message",
    [
        (3e-294, 225, "the step interval_length / 2**225 underflows to 0"),
        ([1.0, 1.0, 2.0**-52, 1.0], 1023, "the step interval_length / 2**1023 underflows to 0"),
        # a step whose inverse overflows is accepted: quantize clamps |offset|
        # before it divides by the step (1e-246 / 2**209 is about 1.2e-309)
        (1e-246, 209, None),
        (1e-246, 200, None),
        (1.0, 1023, None),
        ([1.0, 1.0, 0.5, 1.0], 1023, None),
    ],
)
def test_a_step_the_quantizer_cannot_divide_by_is_a_config_error(length, bits, message):
    doc = _doc()
    doc["quantizer"].update(bits=bits, interval_length=length)
    if message is None:
        assert parse_config(doc).plan.quantizer.bits == bits
        return
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.errors == [("quantizer.interval_length", message)]


def test_exact_mode_has_no_quantizer():
    cfg = parse_config(_doc(quantizer=None))
    assert cfg.plan.quantizer is None
    assert build_bound_report(cfg, 0.0) is None


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
        assert cfg.plan.alpha == 0.7
    assert preset_config("fig2a").plan.honest.tolist() == list(range(7))
    assert preset_config("fig2b").plan.quantizer.bits == 5
    assert preset_config("fig2c").plan.honest.tolist() == list(range(3))


def test_preset_seed_override():
    # strict mode is the document's "strict" key, as in any config
    cfg = parse_config(dict(preset_document("fig2a", seeds=range(3)), strict=True))
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
        # an agent id is canonical: "03" once aliased agent 3 and replaced
        # the policy given under "3"
        *(
            ({"attack": {"3": {"kind": "zero"}, key: {"kind": "uniform"}}}, f"attack.{key}")
            for key in ("03", " 3", "3 ", "+3", "0_3", "-0")
        ),
    ],
)
def test_malformed_values_rejected_at_parse_time(overrides, path):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_doc(**overrides))
    assert _paths(excinfo) == [path]


_DELETE = object()


def _edited(**edits):
    """``_doc()`` with each key set to its value, or removed for ``_DELETE``."""
    doc = _doc(**edits)
    return {key: value for key, value in doc.items() if value is not _DELETE}


_QUANT = {"bits": 2, "interval_length": 1.0, "midpoint": 0.0}


# One document per distinct check, each with the exact (path, message) list
# it reports.
@pytest.mark.parametrize(
    "edits, expected",
    [
        ({"bogus": 1}, [("bogus", "unknown key")]),
        ({"n": _DELETE}, [("n", "required")]),
        ({"n": "4"}, [("n", "expected an integer, got '4'")]),
        ({"iterations": 0}, [("iterations", "must be >= 1, got 0")]),
        ({"p": 2**16 + 1}, [("p", "must be <= 65536, got 65537")]),
        ({"alpha": _DELETE}, [("alpha", "required")]),
        (
            {"alpha": [0.7]},
            [("alpha", "per-agent step sizes are not supported; use one scalar")],
        ),
        ({"alpha": -1}, [("alpha", "must be a number in (0, 1e+50], got -1")]),
        ({"topology": 5}, [("topology", "expected an object")]),
        (
            {"topology": {"type": "edge_list", "edges": [[0]]}},
            [("topology.edges", "expected a list of [i, j] integer pairs")],
        ),
        (
            {"topology": {"type": "ring"}},
            [("topology.type", "expected 'complete' or 'edge_list', got 'ring'")],
        ),
        (
            {"topology": {"type": "edge_list", "edges": [[0, 1], [2, 3]]}},
            [("topology", "graph is disconnected")],
        ),
        ({"roles": _DELETE}, [("roles", "required")]),
        (
            {"roles": ["honest", "x", "honest", "adversarial"]},
            [("roles", "expected a list of 'honest'/'adversarial'")],
        ),
        (
            {"roles": ["honest", "honest", "adversarial"]},
            [("roles", "expected length 4, got 3")],
        ),
        ({"roles": ["adversarial"] * 4}, [("roles", "at least one honest agent is required")]),
        ({"objective": 5}, [("objective", "expected an object")]),
        ({"objective": {"name": "linear"}}, [("objective.name", "unknown objective 'linear'")]),
        ({"objective": {"box": 5}}, [("objective.box", "expected an object")]),
        (
            {"objective": {"box": {"lo": "abc"}}},
            [("objective.box.lo", "expected a number or a list of numbers")],
        ),
        (
            {"objective": {"box": {"lo": [-1.0] * 3}}},
            [("objective.box.lo", "expected length 2, got 3")],
        ),
        (
            {"objective": {"box": {"hi": float("inf")}}},
            [("objective.box.hi", "expected numbers of magnitude at most 1e+50")],
        ),
        (
            {"objective": {"box": {"lo": 0.0, "hi": 0.0}}},
            [("objective.box", "requires lo < hi componentwise")],
        ),
        (
            {"objective": {"box": {"lo": 0.5}}, "quantizer": None},
            [("objective.box", "quadratic objective needs the origin inside the box")],
        ),
        ({"quantizer": 5}, [("quantizer", "expected an object or null")]),
        (
            {"quantizer": dict(_QUANT, bits=0)},
            [("quantizer.bits", "expected an integer in [1, 1023], got 0")],
        ),
        (
            {"quantizer": dict(_QUANT, interval_length=0.0)},
            [("quantizer.interval_length", "interval lengths must be positive, got 0.0")],
        ),
        (
            {"quantizer": dict(_QUANT, midpoint=2.0)},
            [("quantizer.midpoint", "must lie inside objective.box")],
        ),
        ({"attack": _DELETE}, [("attack", "required when adversarial agents are present")]),
        (
            {"attack": 5},
            [("attack", "expected a policy object or a mapping of agent ids")],
        ),
        ({"attack": {}}, [("attack", "missing policy for adversarial agents [3]")]),
        (
            {"attack": {"x": {"kind": "zero"}, "3": {"kind": "zero"}}},
            [("attack.x", "expected an agent id")],
        ),
        (
            {"attack": {"0": {"kind": "zero"}, "3": {"kind": "zero"}}},
            [("attack.0", "not an adversarial agent")],
        ),
        ({"attack": {"3": 5}}, [("attack.3", "expected an object")]),
        ({"attack": {"3": {"seed": 1}}}, [("attack.3.kind", "required")]),
        ({"attack": {"kind": "uniform", "range": 5}}, [("attack.range", "expected [lo, hi]")]),
        (
            {"attack": {"kind": "uniform", "range": [0.0]}},
            [("attack.range", "expected length 2, got 1")],
        ),
        (
            {"attack": {"kind": "zero", "seed": -1}},
            [("attack.seed", "expected a nonnegative integer, got -1")],
        ),
        (
            {"attack": {"kind": "constant", "value": [1.0]}},
            [("attack.value", "expected length 2, got 1")],
        ),
        ({"attack": {"kind": "bogus"}}, [("attack", "unknown attack kind 'bogus'")]),
        ({"seeds": []}, [("seeds", "expected a nonempty list of nonnegative integers")]),
        ({"seeds": [0, 0]}, [("seeds", "seeds must be distinct")]),
        ({"adversary_quantizes": "yes"}, [("adversary_quantizes", "expected a boolean")]),
        ({"strict": 1}, [("strict", "expected a boolean")]),
        ({"init": [[0.0, 0.0]]}, [("init", "expected an (4, 2) array of numbers")]),
        (
            {"init": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]},
            [("init", "every initial point must lie inside objective.box")],
        ),
        # every top-level field wrong: unknown keys first, then table order
        (
            {
                "n": "x",
                "p": True,
                "iterations": None,
                "alpha": [1],
                "topology": 5,
                "bogus": 1,
                "roles": 5,
                "objective": 5,
                "quantizer": 5,
                "attack": 5,
                "seeds": 5,
                "adversary_quantizes": 5,
                "strict": 5,
                "init": "x",
            },
            [
                ("bogus", "unknown key"),
                ("n", "expected an integer, got 'x'"),
                ("p", "expected an integer, got True"),
                ("iterations", "required"),
                ("alpha", "per-agent step sizes are not supported; use one scalar"),
                ("topology", "expected an object"),
                ("roles", "expected a list of 'honest'/'adversarial'"),
                ("objective", "expected an object"),
                ("quantizer", "expected an object or null"),
                ("attack", "expected a policy object or a mapping of agent ids"),
                ("seeds", "expected a nonempty list of nonnegative integers"),
                ("adversary_quantizes", "expected a boolean"),
                ("strict", "expected a boolean"),
                ("init", "expected an (None, None) array of numbers"),
            ],
        ),
        # every nested field wrong, and checks that compare fields
        (
            {
                "topology": {"w": 1, "type": "edge_list", "edges": 5},
                "objective": {"y": 1, "name": "x", "box": {"z": 0, "lo": 1.0, "hi": 0.5}},
                "quantizer": {"r": 1, "bits": 0, "interval_length": -1.0, "midpoint": "m"},
                "attack": {"9": {"kind": "zero"}, "x": 1, "3": {"kind": "zero"}},
                "seeds": [1, 1],
            },
            [
                ("topology.w", "unknown key"),
                ("topology.edges", "expected a list of [i, j] integer pairs"),
                ("objective.y", "unknown key"),
                ("objective.name", "unknown objective 'x'"),
                ("objective.box.z", "unknown key"),
                ("objective.box", "requires lo < hi componentwise"),
                ("quantizer.r", "unknown key"),
                ("quantizer.bits", "expected an integer in [1, 1023], got 0"),
                ("quantizer.interval_length", "interval lengths must be positive, got -1.0"),
                ("quantizer.midpoint", "expected a number or a list of numbers"),
                ("attack.9", "not an adversarial agent"),
                ("attack.x", "expected an agent id"),
                ("seeds", "seeds must be distinct"),
            ],
        ),
        # a check that compares fields reports in its field's place
        (
            {
                "roles": ["honest", "adversarial", "adversarial"],
                "objective": {"name": "x"},
                "quantizer": {"bits": True, "midpoint": 3.0},
                "attack": {"kind": "uniform", "range": [1.0, 0.0]},
                "seeds": "0",
                "strict": None,
            },
            [
                ("roles", "expected length 4, got 3"),
                ("objective.name", "unknown objective 'x'"),
                ("quantizer.bits", "expected an integer in [1, 1023], got True"),
                ("quantizer.midpoint", "must lie inside objective.box"),
                ("attack", "need 0 <= low <= high, got (1.0, 0.0)"),
                ("seeds", "expected a nonempty list of nonnegative integers"),
                ("strict", "expected a boolean"),
            ],
        ),
        # the interval lengths need only n, so invalid roles do not hide them
        (
            {"roles": ["honest"] * 3, "quantizer": dict(_QUANT, interval_length=-1.0)},
            [
                ("roles", "expected length 4, got 3"),
                ("quantizer.interval_length", "interval lengths must be positive, got -1.0"),
            ],
        ),
    ],
)
def test_every_check_reports_its_exact_message(edits, expected):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_edited(**edits))
    assert excinfo.value.errors == expected


# a non-2-D init, or one whose rows do not match a valid p, once escaped as a
# TypeError or ValueError when n was invalid
@pytest.mark.parametrize("init", [0.5, [], [0.5, 0.5], [[0.0, 0.0, 0.0]] * 4])
def test_init_is_a_matrix_even_when_n_is_invalid(init):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_doc(n="4", init=init))
    assert excinfo.value.errors == [
        ("n", "expected an integer, got '4'"),
        ("init", "expected an (None, 2) array of numbers"),
    ]


def test_attack_value_passed_on_while_p_is_invalid_is_still_checked():
    # a value of 10**400 once escaped AttackPolicy as a raw OverflowError
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_doc(p="2", attack={"kind": "constant", "value": [10**400]}))
    assert _paths(excinfo) == ["p", "attack"]


def test_integer_fields_take_numpy_integers_and_keep_python_ints(tmp_path):
    doc = _doc(
        n=np.int64(4),
        quantizer={"bits": np.int64(2), "interval_length": 1.0},
        seeds=[np.int64(0), np.int64(3)],
        topology={"type": "edge_list", "edges": [[np.int64(0), np.int64(1)], [1, 2], [2, 3]]},
        attack={"kind": "uniform", "range": [0.0, 0.5], "seed": np.int64(5)},
    )
    cfg = parse_config(doc)
    values = [cfg.n, cfg.plan.quantizer.bits, *cfg.seeds, cfg.plan.attacks[0][0].seed]
    assert values == [4, 2, 0, 3, 5]
    assert all(type(value) is int for value in values)
    assert cfg.plan.topology.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
    artifacts = run_experiment(cfg, tmp_path)
    assert json.loads(artifacts.report_path.read_text())["bits"] == 2


def test_count_limits_are_inclusive():
    cfg = parse_config(_doc(p=config_module.MAX_DIMENSION, iterations=2**32))
    assert cfg.p == cfg.plan.feasible.dimension == 2**16
    assert cfg.plan.objective.dimension == 2**16
    assert cfg.iterations == config_module.MAX_ITERATIONS == 2**32


def test_state_size_cap_is_inclusive():
    doc = _doc(n=32, p=2**15, roles=["honest"] * 31 + ["adversarial"], quantizer=None)
    assert parse_config(doc).p * 32 == config_module.MAX_STATE
    with pytest.raises(ConfigError) as excinfo:
        parse_config(dict(doc, p=2**15 + 1))
    assert excinfo.value.errors == [
        ("p", "must be <= 32768, got 32769")
    ]


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


def test_a_graph_error_is_reported_with_the_other_errors():
    # the graph was once built after the other errors were raised, so its
    # error came only on a second run
    doc = _doc(alpha=-1, topology={"type": "edge_list", "edges": [[0, 1], [2, 3]]})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    assert excinfo.value.errors == [
        ("alpha", "must be a number in (0, 1e+50], got -1"),
        ("topology", "graph is disconnected"),
    ]


@pytest.mark.parametrize(
    "topology, graph",
    [
        ({"type": "complete"}, "build_complete"),
        ({"type": "edge_list", "edges": [[0, 1], [1, 2], [2, 3]]}, "build_from_edge_list"),
    ],
)
def test_each_component_is_built_once_per_parse(monkeypatch, topology, graph):
    calls = []
    for name in ("build_complete", "build_from_edge_list", "FeasibleSet", "make_objective",
                 "UniformQuantizer"):
        real = getattr(config_module, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(config_module, name, counting)
    first = parse_config(_doc(topology=topology))
    assert calls == [graph, "FeasibleSet", "make_objective", "UniformQuantizer"]
    # a matching ``like`` lends its topology, box and objective
    calls.clear()
    second = parse_config(_doc(topology=topology, alpha=0.3), like=first)
    assert calls == ["UniformQuantizer"]
    for name in ("topology", "feasible", "objective"):
        assert getattr(second.plan, name) is getattr(first.plan, name)


def test_attack_norm_is_bounded_once_per_distinct_policy(monkeypatch, tmp_path):
    # three adversaries share one policy: the plan, built once for all
    # three seeds, evaluates it once, and the report reads the plan's bound
    calls = []
    real = adversary.max_attack_norm

    def counting(policy, p):
        calls.append(policy)
        return real(policy, p)

    monkeypatch.setattr(adversary, "max_attack_norm", counting)
    doc = _doc(
        n=6,
        roles=["honest"] * 3 + ["adversarial"] * 3,
        attack={"kind": "constant", "value": [0.1, 0.2]},
        seeds=[0, 1, 2],
    )
    cfg = parse_config(doc)
    run_experiment(cfg, tmp_path)
    ((shared, agents),) = cfg.plan.attacks
    assert agents.tolist() == [3, 4, 5]
    assert len(calls) == 1 and all(policy is shared for policy in calls)


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
