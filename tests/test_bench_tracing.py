"""The benchmark tracer's patch targets exist, every topology build passes
through the span its topology metrics count, and the tracer leaves disopt
as it found it.

``bench/tracing.py`` is read as it is and never changed here.  It
replaces the functions named by ``_spans()`` with span-recording
wrappers, so a rename under ``src/`` breaks ``bench/run.py --trace 1``;
these tests catch that first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import disopt
from disopt.config import parse_config
from disopt.harness import run_experiment, run_single

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _disopt_bindings() -> dict:
    """Every attribute of every loaded disopt module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "disopt" or name.startswith("disopt.")):
            continue
        for key, value in list(vars(module).items()):
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("disopt"):
                for attr, member in list(vars(value).items()):
                    out[(name, key, attr)] = member
    return out


def test_every_span_target_resolves(tracing):
    spans = tracing._spans()
    assert spans
    missing = [(span, attr) for span, owner, attr in spans if not hasattr(owner, attr)]
    assert missing == []


# quantized broadcasts from the honest agents, a full-precision adversary
SMALL_RUN = {
    "n": 3,
    "p": 1,
    "topology": {"type": "complete"},
    "roles": ["honest", "honest", "adversarial"],
    "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 1.0}},
    "quantizer": {"bits": 2, "interval_length": 1.0},
    "attack": {"kind": "uniform", "range": [0.0, 1.0], "seed": 1},
    "alpha": 0.5,
    "iterations": 4,
}


def _assert_one_span_per_round(recorder, quantizes: bool) -> None:
    # one call each per round: the bench divides by these counts
    # (quantizer.calls, engine.mix_*_per_round), so none may be bypassed;
    # the one objective every agent carries is one subgradient call too
    spans = recorder.totals()["spans"]
    assert spans["harness.run_single"]["count"] == spans["engine.run"]["count"] == 1
    for name in (
        "engine.step",
        "engine.broadcast_phase",
        "engine.matrix_form_update",
        "objective.subgradient",
    ):
        assert spans[name]["count"] == 4, name
    assert spans["quantizer.quantize"]["count"] == (4 if quantizes else 0)
    assert recorder.counters["engine.agent_rounds"] == 3 * 4


def test_install_then_uninstall_restores_every_original(tracing):
    import disopt.engine as engine

    before = _disopt_bindings()
    run = engine.run
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert engine.run is not run
        # a traced run goes through the spans the engine still calls
        disopt.harness.run_single(parse_config(SMALL_RUN), 0)
    finally:
        recorder.uninstall()
    after = _disopt_bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    assert engine.run is run and disopt.harness.run_single is run_single
    _assert_one_span_per_round(recorder, quantizes=True)


@pytest.mark.parametrize(
    "variant, quantizes",
    [({"quantizer": None}, False), ({"adversary_quantizes": True}, True)],
    ids=["exact", "adversary-quantizes"],
)
def test_every_broadcast_mode_makes_each_round_call_once(tracing, variant, quantizes):
    # exact mode sends every iterate as it is, with no quantize call; with
    # adversary_quantizes no row is copied over the quantized broadcast
    recorder = tracing.Recorder()
    recorder.install()
    try:
        disopt.harness.run_single(parse_config({**SMALL_RUN, **variant}), 0)
    finally:
        recorder.uninstall()
    _assert_one_span_per_round(recorder, quantizes)


@pytest.mark.parametrize(
    "topology, n, edges",
    [
        ({"type": "complete"}, 5, 10),
        # a repeated and a reversed pair count once
        ({"type": "edge_list", "edges": [[0, 1], [1, 0], [1, 2], [3, 2], [2, 3], [4, 0]]}, 5, 4),
    ],
)
def test_every_topology_build_is_one_edge_list_span(tracing, topology, n, edges):
    # topology.builds and topology.edges count build_from_edge_list spans;
    # a builder that bypassed it would read 0 there
    doc = {
        "n": n,
        "p": 1,
        "topology": topology,
        "roles": ["honest"] * n,
        "quantizer": None,
        "alpha": 0.5,
        "iterations": 1,
    }
    recorder = tracing.Recorder()
    recorder.install()
    try:
        parse_config(doc)
    finally:
        recorder.uninstall()
    assert recorder.totals()["spans"]["topology.build_from_edge_list"]["count"] == 1
    assert recorder.counters["topology.edges"] == edges


def test_every_bound_column_value_is_one_per_k_bound_span(tracing, tmp_path):
    # bounds.per_k_calls and bounds.per_k_s count these spans: a bound
    # column that bypassed per_k_bound would read 0 there
    doc = {
        "n": 3,
        "p": 1,
        "roles": ["honest", "honest", "adversarial"],
        "quantizer": {"bits": 2, "interval_length": 1.0},
        "attack": {"kind": "uniform", "range": [0.0, 1.0], "seed": 1},
        "alpha": 0.5,
        "iterations": 6,
        "seeds": [0, 1],
    }
    config = parse_config(doc)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        run_experiment(config, tmp_path)
    finally:
        recorder.uninstall()
    assert recorder.totals()["spans"]["bounds.per_k_bound"]["count"] == 6 + 1
