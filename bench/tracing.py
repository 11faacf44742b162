"""Layer spans for the traced benchmark run, recorded from outside disopt.

While a traced pass runs, each public function or method listed by
``_spans`` is replaced, as a module or class attribute, by a wrapper that
records a span (name, start, end, parent span) in memory.  Nothing under
``src/`` knows about it, and :meth:`Recorder.uninstall` puts every
original back.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import array
import functools
import os
import sys
import time
from collections import Counter
from dataclasses import replace

import numpy as np


def _spans():
    from disopt import adversary, cli, config, engine, harness, topology
    from disopt.bounds import BoundReport
    from disopt.objective import FeasibleSet
    from disopt.quantizer import UniformQuantizer

    # (span name, owner, attribute); a span's layer is its name's prefix
    return [
        ("cli.main", cli, "main"),
        ("config.parse_config", config, "parse_config"),
        ("topology.build_complete", topology, "build_complete"),
        ("topology.build_from_edge_list", topology, "build_from_edge_list"),
        ("objective.projection_error", FeasibleSet, "projection_error"),
        ("quantizer.quantize", UniformQuantizer, "quantize"),
        ("quantizer.saturates", UniformQuantizer, "saturates"),
        ("adversary.attack_vector", adversary, "attack_vector"),
        ("engine.run", engine, "run"),
        ("engine.broadcast_phase", engine, "broadcast_phase"),
        ("engine.step", engine, "step"),
        ("engine.matrix_form_update", engine, "matrix_form_update"),
        ("bounds.build_bound_report", harness, "build_bound_report"),
        ("bounds.to_dict", BoundReport, "to_dict"),
        ("bounds.per_k_bound", BoundReport, "per_k_bound"),
        ("harness.run_experiment", harness, "run_experiment"),
        ("harness.expand_grid", harness, "expand_grid"),
        ("harness.sweep", harness, "sweep"),
        ("harness.run_single", harness, "run_single"),
        ("harness.write_trace_csv", harness, "write_trace_csv"),
    ]


def patch(owner, attr: str, replacement) -> list:
    """Point ``owner.attr`` at ``replacement``.

    For a module function, every loaded disopt module that imported the
    same object by name is patched too, so calls through any of those
    names reach the replacement.  Returns (owner, attr, original) triples
    for restoring.
    """
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return [(owner, attr, original)]
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "disopt" or name.startswith("disopt.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Recorder:
    """Spans of one traced pass, kept in flat typed arrays."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, name_of=None, after=None):
        """Span-recording wrapper around ``fn``.

        ``name_of(args, kwargs)`` picks the span name per call; ``after``
        updates counters from the arguments and the result.
        """
        fixed = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(fixed if name_of is None else name_of(args, kwargs))
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # ---- counters updated at span boundaries -------------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def edges(args, kwargs, topo):
            c["topology.edges"] += len(topo.edges)

        def saturated(args, kwargs, flag):
            c["quantizer.saturated"] += bool(flag)

        def csv_bytes(args, kwargs, _):
            c["harness.csv_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])

        def mix(args, kwargs, _):
            weights, iterates = args[0], args[1]
            n, p = iterates.shape
            # computed from array sizes: W @ Q, then three elementwise
            # updates and one scaling; bytes read W, X, Q, G and write H
            c["engine.mix_flops"] += 2 * n * n * p + 4 * n * p
            c["engine.mix_bytes"] += weights.itemsize * (n * n + 4 * n * p)

        def agent_rounds(args, kwargs, result):
            c["engine.agent_rounds"] += result.final_iterates.shape[0] * len(result.traces)

        return {
            "topology.build_from_edge_list": edges,
            "quantizer.saturates": saturated,
            "harness.write_trace_csv": csv_bytes,
            "engine.matrix_form_update": mix,
            "engine.run": agent_rounds,
        }

    def install(self) -> None:
        from disopt import objective

        uniform = self.name_id("adversary.attack_vector.uniform")
        other = self.name_id("adversary.attack_vector.other")

        def draw_kind(args, kwargs):
            policy = args[0] if args else kwargs["policy"]
            return uniform if policy.kind == "uniform" else other

        hooks = self._hooks()
        for span, owner, attr in _spans():
            fn = getattr(owner, attr)
            if span == "adversary.attack_vector":
                wrapper = self.wrap(span, fn, name_of=draw_kind)
            else:
                wrapper = self.wrap(span, fn, after=hooks.get(span))
            self._undo += patch(owner, attr, wrapper)

        # Subgradients are closures stored on LocalObjective instances, so
        # they are wrapped where the suite is built.
        suite = objective.quadratic_suite
        subgradient = functools.partial(self.wrap, "objective.subgradient")

        def traced_suite(*args, **kwargs):
            wrapped = {}
            out = []
            for obj in suite(*args, **kwargs):
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = replace(obj, subgradient=subgradient(obj.subgradient))
                out.append(wrapped[id(obj)])
            return out

        self._undo += patch(objective, "quadratic_suite", traced_suite)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # ---- reduction ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict:
        """Per span name: call count, total duration and total self time,
        plus the time covered by top-level spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered_by_children = np.bincount(
            a["parent"][child], weights=dur[child], minlength=len(dur)
        )
        self_time = dur - covered_by_children
        k = len(self.names)
        count = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_time, minlength=k)
        per_name = {
            name: {"count": int(count[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        return {"spans": per_name, "top_level_s": float(dur[~child].sum())}


def layer_metrics(totals: dict, counters: Counter) -> dict:
    """Per-layer metrics of one traced pass (trace_bytes and bench.* are
    added by the caller)."""
    spans = totals["spans"]

    def count(name):
        return spans.get(name, {}).get("count", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    draws = count("adversary.attack_vector.uniform")
    mixes = count("engine.matrix_form_update")
    return {
        "config.parse_s": own("config.parse_config"),
        "config.parses": count("config.parse_config"),
        "topology.build_s": own("topology.build_from_edge_list") + own("topology.build_complete"),
        "topology.builds": count("topology.build_from_edge_list"),
        "topology.edges": counters["topology.edges"],
        "objective.projection_s": total("objective.projection_error"),
        "objective.projection_calls": count("objective.projection_error"),
        "objective.subgradient_s": total("objective.subgradient"),
        "quantizer.quantize_s": total("quantizer.quantize") + total("quantizer.saturates"),
        "quantizer.calls": count("quantizer.quantize"),
        "quantizer.saturation_frac": ratio(
            counters["quantizer.saturated"], count("quantizer.saturates")
        ),
        "adversary.draw_us": 1e6 * ratio(total("adversary.attack_vector.uniform"), draws),
        "adversary.draws": draws,
        "engine.broadcast_self_s": own("engine.broadcast_phase"),
        "engine.step_self_s": own("engine.step"),
        "engine.mix_s": total("engine.matrix_form_update"),
        "engine.run_self_s": own("engine.run"),
        "engine.us_per_agent_round": 1e6
        * ratio(total("engine.run"), counters["engine.agent_rounds"]),
        "engine.mix_flops_per_round": ratio(counters["engine.mix_flops"], mixes),
        "engine.mix_bytes_per_round": ratio(counters["engine.mix_bytes"], mixes),
        "bounds.report_s": total("bounds.build_bound_report") + total("bounds.to_dict"),
        "bounds.per_k_calls": count("bounds.per_k_bound"),
        "bounds.per_k_s": total("bounds.per_k_bound"),
        "harness.write_csv_s": own("harness.write_trace_csv"),
        "harness.csv_bytes": counters["harness.csv_bytes"],
        "harness.run_single_self_s": own("harness.run_single"),
        "cli.main_self_s": own("cli.main"),
    }


UNITS = {
    "config.parse_s": "s",
    "config.parses": "count",
    "topology.build_s": "s",
    "topology.builds": "count",
    "topology.edges": "count",
    "objective.projection_s": "s",
    "objective.projection_calls": "count",
    "objective.subgradient_s": "s",
    "quantizer.quantize_s": "s",
    "quantizer.calls": "count",
    "quantizer.saturation_frac": "ratio",
    "adversary.draw_us": "us",
    "adversary.draws": "count",
    "engine.broadcast_self_s": "s",
    "engine.step_self_s": "s",
    "engine.mix_s": "s",
    "engine.run_self_s": "s",
    "engine.us_per_agent_round": "us",
    "engine.mix_flops_per_round": "flop",
    "engine.mix_bytes_per_round": "B",
    "engine.trace_bytes_per_round": "B",
    "bounds.report_s": "s",
    "bounds.per_k_calls": "count",
    "bounds.per_k_s": "s",
    "harness.write_csv_s": "s",
    "harness.csv_bytes": "B",
    "harness.run_single_self_s": "s",
    "cli.main_self_s": "s",
    "bench.trace_overhead_frac": "ratio",
    "bench.unattributed_frac": "ratio",
}
