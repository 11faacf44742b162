"""Experiment configuration: JSON schema, validation, and presets.

``parse_config`` validates an entire document and raises a single
:class:`ConfigError` carrying every violation with its field path, in
the order of the field table ``_FIELDS``, so a user can fix a config in
one pass.  A valid document's run inputs are built once, into the
:class:`engine.RunPlan` its config holds.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .adversary import MAX_KEY, AttackPolicy
from .objective import FeasibleSet, make_objective
from .quantizer import UniformQuantizer
from .operand import operand
from .topology import build_complete, build_from_edge_list

HONEST = "honest"
ADVERSARIAL = "adversarial"

# Largest bit count whose step divisor 2**bits is a finite float.
MAX_BITS = sys.float_info.max_exp - 1

# Largest agent count n: a complete graph's (n, n) Metropolis weights are
# 32 MiB at the cap.
MAX_AGENTS = 2**11

# Largest dimension p.  A scalar box, midpoint or constant attack value
# expands to p entries at parse time, so the cap is checked before any
# vector is built; 2**16 keeps one expanded vector near 2 MB.
MAX_DIMENSION = 2**16

# Largest state size n * p: a run's workspace holds at least nine (n, p)
# float arrays, 72 MiB at the cap.
MAX_STATE = 2**20

# Largest iteration count: the keyed attack stream takes each round index
# k < iterations as one 32-bit word.
MAX_ITERATIONS = MAX_KEY + 1

# Largest magnitude of a real-valued field (box, step size, interval
# length, midpoint, attack range and value).  The update multiplies at
# most two of them (alpha times a subgradient of box size), and a norm
# squares the product, so 1e50 keeps every traced quantity finite.
MAX_MAGNITUDE = 1e50


class ConfigError(ValueError):
    """One or more config violations; ``errors`` is a list of (path, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.errors)
        super().__init__(f"invalid experiment config: {lines}")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A validated experiment scenario: its run plan and how to run it.

    ``plan`` is the :class:`engine.RunPlan` of the config's run inputs and
    roles.  ``build_key`` holds the fields that fix its topology, box and
    objective, which ``parse_config``'s ``like`` compares.  Configs compare
    by identity: their components hold arrays.
    """

    plan: engine.RunPlan
    seeds: tuple
    strict: bool
    build_key: tuple = field(default=(), repr=False)

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def p(self) -> int:
        return self.plan.p

    @property
    def iterations(self) -> int:
        return self.plan.iterations


class _Invalid(ValueError):
    """A checker's verdict on one value, reported at the field's path."""


_REQUIRED = object()  # default of a field that must be given and not null


def _is_int(value) -> bool:
    # a numpy integer counts, so a library caller may pass one; a bool does not
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # a JSON true/false or a numeric string is not a number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---- checkers: (value, parsed) -> the value to keep, or raise _Invalid;
# ``parsed`` maps each table path checked so far to its value


def _rule(ok, message, convert=None):
    """``convert(value)``, or the value, if ``ok(value)``; else ``message``."""

    def check(value, parsed):
        if not ok(value):
            raise _Invalid(message.format(value))
        return value if convert is None else convert(value)

    return check


def _integer(lo, hi=math.inf, message=None):
    """An integer in [lo, hi], kept as an int; ``message`` reports any failure."""

    def check(value, parsed):
        if _is_int(value) and lo <= value <= hi:
            return int(value)
        if message:
            raise _Invalid(f"{message}, got {value!r}")
        if not _is_int(value):
            raise _Invalid(f"expected an integer, got {value!r}")
        if value < lo:
            raise _Invalid(f"must be >= {lo}, got {value}")
        raise _Invalid(f"must be <= {hi}, got {value}")

    return check


def _ints(value, lo=-math.inf) -> bool:  # a list of integers >= lo
    return isinstance(value, list) and all(_is_int(v) and v >= lo for v in value)


def _dimension(value, parsed):  # p, capped by n * p <= MAX_STATE while n is valid
    return _integer(1, min(MAX_DIMENSION, MAX_STATE // parsed.get("n", 1)))(value, parsed)


def _step_size(value, parsed):
    if isinstance(value, (list, tuple)):
        raise _Invalid("per-agent step sizes are not supported; use one scalar")
    if not _is_number(value) or not 0 < value <= MAX_MAGNITUDE:  # nan, inf fail too
        raise _Invalid(f"must be a number in (0, {MAX_MAGNITUDE:g}], got {value!r}")
    return float(value)


def _as_vector(value, length):
    """``length`` floats of magnitude at most MAX_MAGNITUDE; a scalar repeats."""
    if np.isscalar(value):
        value = [value] * length
    try:
        vec = tuple(float(v) for v in value)
    except (TypeError, ValueError, OverflowError):
        vec = None
    if vec is None or not all(map(_is_number, value)):
        raise _Invalid("expected a number or a list of numbers")
    if len(vec) != length:
        raise _Invalid(f"expected length {length}, got {len(vec)}")
    if not all(abs(v) <= MAX_MAGNITUDE for v in vec):  # nan and inf fail too
        raise _Invalid(f"expected numbers of magnitude at most {MAX_MAGNITUDE:g}")
    return vec


def _vector(fill=None):
    """p numbers, ``fill`` when null; not checked unless p is valid."""

    def check(value, parsed):
        value = fill if value is None else value
        if value is None or parsed.get("p") is None:
            return None
        return _as_vector(value, parsed["p"])

    return check


def _edges(value, parsed):
    if parsed.get("topology.type") != "edge_list":  # only an edge list reads them
        return None
    if not isinstance(value, list) or not all(_ints(e) and len(e) == 2 for e in value):
        raise _Invalid("expected a list of [i, j] integer pairs")
    return tuple((int(i), int(j)) for i, j in value)


def _seeds(value, parsed):
    if not _ints(value, 0) or not value:
        raise _Invalid("expected a nonempty list of nonnegative integers")
    if len(set(value)) != len(value):
        raise _Invalid("seeds must be distinct")
    return tuple(map(int, value))


_boolean = _rule(lambda v: isinstance(v, bool), "expected a boolean")
_object = _rule(lambda v: isinstance(v, dict), "expected an object")
_object_or_null = _rule(lambda v: v is None or isinstance(v, dict), "expected an object or null")
_range = _rule(lambda v: isinstance(v, list), "expected [lo, hi]", lambda v: _as_vector(v, 2))
_roles = _rule(
    lambda v: isinstance(v, list) and all(r in (HONEST, ADVERSARIAL) for r in v),
    f"expected a list of '{HONEST}'/'{ADVERSARIAL}'",
    tuple,
)
_topology_type = _rule(
    lambda v: v in ("complete", "edge_list"), "expected 'complete' or 'edge_list', got {!r}"
)

# ---- field tables: path -> (checker, default).  A field is read as
# ``parent.get(key, default)`` and checked in table order; a None checker
# leaves it to the rules after the walk.  An object's keys are its rows.

_FIELDS = {
    "n": (_integer(1, MAX_AGENTS), _REQUIRED),
    "p": (_dimension, _REQUIRED),
    "iterations": (_integer(1, MAX_ITERATIONS), _REQUIRED),
    "alpha": (_step_size, _REQUIRED),
    "topology": (_object, {"type": "complete"}),
    "topology.type": (_topology_type, None),
    "topology.edges": (_edges, None),
    "roles": (_roles, _REQUIRED),
    "objective": (_object, {}),
    "objective.name": (_rule(lambda v: v == "quadratic", "unknown objective {!r}"), "quadratic"),
    "objective.box": (_object, {}),
    "objective.box.lo": (_vector(-1.0), None),
    "objective.box.hi": (_vector(1.0), None),
    "quantizer": (_object_or_null, None),
    "quantizer.bits": (_integer(1, MAX_BITS, f"expected an integer in [1, {MAX_BITS}]"), None),
    "quantizer.interval_length": (None, 1.0),  # one per agent, so checked against n
    "quantizer.midpoint": (_vector(0.0), None),
    "attack": (None, None),  # one policy, or a mapping of agent ids to policies
    "seeds": (_seeds, [0]),
    "adversary_quantizes": (_boolean, False),
    "strict": (_boolean, False),
    "init": (None, None),
}

# One attack policy, at "attack" or "attack.<id>"; its first error ends it.
_POLICY_FIELDS = {
    "kind": (None, _REQUIRED),
    "range": (_range, [0.0, 0.0]),
    "seed": (_integer(0, message="expected a nonnegative integer"), 0),
    "value": (_vector(), None),
    "sign": (None, "positive"),
}


def _walk(node, fields, errors, parsed, prefix="", bucket=None, stop=False) -> bool:
    """Check the object ``node`` against a field table, putting each valid
    field's value into ``parsed`` under its path, and each error, at
    ``prefix`` + path, into its row's list in ``errors`` (or ``bucket``'s).
    With ``stop`` the first invalid field ends the walk and returns False."""

    def reject_unknown(path, obj):  # an object's keys must be its rows
        for key in obj:
            row = f"{path}.{key}" if path else f"{key}"
            if row not in fields or row.rpartition(".")[0] != path:  # "a.b" is one key
                errors[bucket or path].append((prefix + row, "unknown key"))

    reject_unknown("", node)
    for path, (check, default) in fields.items():
        parent, _, key = path.rpartition(".")
        obj = parsed.get(parent) if parent else node
        if not isinstance(obj, dict):  # absent or invalid
            continue
        value = obj.get(key, default)
        try:
            if default is _REQUIRED and (value is None or value is _REQUIRED):
                raise _Invalid("required")
            parsed[path] = value = value if check is None else check(value, parsed)
        except _Invalid as exc:
            errors[bucket or path].append((prefix + path, str(exc)))
            if stop:
                return False
            continue
        if check is not None and isinstance(value, dict):  # a checked object
            reject_unknown(path, value)
    return True


def check_value(path, checker, value):
    """``value`` through a table checker, or a ConfigError at ``path``."""
    try:
        return checker(value, {})
    except _Invalid as exc:
        raise ConfigError([(path, str(exc))]) from None


def _parse_attack_policy(doc, path, p, errors):
    policy = {"p": p}  # the length of the value row
    if not isinstance(doc, dict):
        errors["attack"].append((path, "expected an object"))
    elif _walk(doc, _POLICY_FIELDS, errors, policy, path + ".", "attack", stop=True):
        # while p is invalid, a value is passed on unchecked
        (low, high), value = policy["range"], policy["value"] if p else doc.get("value")
        try:
            return AttackPolicy(policy["kind"], policy["sign"], low, high, value, policy["seed"])
        except (TypeError, ValueError, OverflowError) as exc:  # an unhashable kind, 10**400
            errors["attack"].append((path, str(exc)))
    return None


def _parse_attack(doc, roles, p, errors) -> dict:
    """Agent id -> policy, from one shared policy or a mapping of agent ids;
    a policy with an error maps to None, so its agent is not also missing."""
    found = errors["attack"]
    adversaries = [i for i, r in enumerate(roles or ()) if r == ADVERSARIAL]
    if doc is None:
        if adversaries:
            found.append(("attack", "required when adversarial agents are present"))
        return {}
    if not isinstance(doc, dict):
        found.append(("attack", "expected a policy object or a mapping of agent ids"))
        return {}
    if "kind" in doc:
        policy = _parse_attack_policy(doc, "attack", p, errors)
        return {} if policy is None else dict.fromkeys(adversaries, policy)
    attack = {}
    for key, sub in doc.items():
        try:
            agent = int(key)
        except (TypeError, ValueError):
            agent = None
        # "02", " 2" or "+2" would alias agent 2 and shadow its own policy
        if key != str(agent):
            found.append((f"attack.{key}", "expected an agent id"))
        elif roles is not None and (agent not in range(len(roles)) or roles[agent] != ADVERSARIAL):
            found.append((f"attack.{key}", "not an adversarial agent"))
        else:
            attack[agent] = _parse_attack_policy(sub, f"attack.{key}", p, errors)
    missing = [i for i in adversaries if i not in attack]
    if missing:
        found.append(("attack", f"missing policy for adversarial agents {missing}"))
    return attack


def _check_step(step, bits, midpoint, box_lo, box_hi) -> None:
    """The quantizer's smallest step must be positive, and an iterate's
    offset from the midpoint divided by it must stay finite."""
    if step == 0:
        raise _Invalid(f"the step interval_length / 2**{bits} underflows to 0")
    if midpoint and box_lo and box_hi:
        reach = max(max(hi - mid, mid - lo) for lo, mid, hi in zip(box_lo, midpoint, box_hi))
        if reach / step == math.inf:
            raise _Invalid(
                f"the step interval_length / 2**{bits} is too small for objective.box: "
                f"an offset of {reach:g} from the midpoint overflows as a step count"
            )


def read_document(document):
    """A parsed JSON document: ``document`` itself, or its text decoded."""
    if not isinstance(document, str):
        return document
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError([("<document>", f"malformed JSON: {exc}")]) from exc


def parse_config(document, like: ExperimentConfig | None = None) -> ExperimentConfig:
    """Validate a JSON document (text, path contents, or parsed dict) and
    plan its runs with :func:`engine.plan`; raises :class:`ConfigError`.

    When the fields that fix the topology, box and objective (n, p, the
    graph, the objective's name and the box, by ``repr``, so a -0.0 bound
    differs from 0.0) equal ``like``'s ``build_key``, the config shares
    ``like``'s built topology, feasible set and objective.
    """
    document = read_document(document)
    if not isinstance(document, dict):
        raise ConfigError([("<document>", "top level must be an object")])

    errors = {path: [] for path in ("", *_FIELDS)}
    v: dict = {}
    _walk(document, _FIELDS, errors, v)

    def fail(field, message):
        errors[field].append((field, message))

    def inside(vec):  # within the box componentwise
        return all(lo <= x <= hi for lo, x, hi in zip(box_lo, vec, box_hi))

    # ---- rules that compare fields, each filed under its field
    n, p, roles = v.get("n"), v.get("p"), v.get("roles")
    if roles is not None and n is not None and len(roles) != n:
        fail("roles", f"expected length {n}, got {len(roles)}")
        roles = None
    elif roles is not None and HONEST not in roles:
        fail("roles", "at least one honest agent is required")
        roles = None

    box_lo, box_hi = v.get("objective.box.lo"), v.get("objective.box.hi")
    if box_lo and box_hi:
        if not all(lo < hi for lo, hi in zip(box_lo, box_hi)):
            fail("objective.box", "requires lo < hi componentwise")
        elif v.get("objective.name") == "quadratic" and not inside([0] * p):
            fail("objective.box", "quadratic objective needs the origin inside the box")

    lengths = None
    midpoint, bits = v.get("quantizer.midpoint"), v.get("quantizer.bits")
    if v.get("quantizer") is not None and n is not None:
        try:
            lengths = _as_vector(v["quantizer.interval_length"], n)
            if any(length <= 0 for length in lengths):
                raise _Invalid("must be positive")
            if bits is not None:
                _check_step(min(lengths) / 2**bits, bits, midpoint, box_lo, box_hi)
        except _Invalid as exc:
            fail("quantizer.interval_length", str(exc))
    if midpoint and box_lo and box_hi and not inside(midpoint):
        fail("quantizer.midpoint", "must lie inside objective.box")

    attack = _parse_attack(v.get("attack"), roles, p, errors)

    init = v.get("init")
    if init is not None:
        try:
            arr = np.asarray(init, dtype=float)
        except (TypeError, ValueError, OverflowError):  # ragged, non-numeric, 10**400
            arr = None
        if (
            arr is None
            or arr.ndim != 2
            or not all(_is_number(x) for row in init for x in row)
            or arr.shape != (n or len(arr), p or arr.shape[1])  # as far as n and p are known
        ):
            fail("init", f"expected an ({n}, {p}) array of numbers")
        elif box_lo and box_hi and not np.all((arr >= box_lo) & (arr <= box_hi)):
            fail("init", "every initial point must lie inside objective.box")
        else:
            init = operand(arr)

    if any(errors.values()):
        raise ConfigError([error for found in errors.values() for error in found])
    kind, edges, name = v["topology.type"], v["topology.edges"], v["objective.name"]
    key = (n, p, kind, edges, name, repr(box_lo), repr(box_hi))
    if like is not None and key == like.build_key:
        topology, feasible, objective = like.plan.topology, like.plan.feasible, like.plan.objective
    else:
        # a disconnected graph and similar structural errors surface with
        # a field path too
        try:
            topology = build_complete(n) if kind == "complete" else build_from_edge_list(n, edges)
        except ValueError as exc:
            raise ConfigError([("topology", str(exc))]) from exc
        feasible = FeasibleSet(lo=np.array(box_lo), hi=np.array(box_hi))
        objective = make_objective(name, p, feasible)
    quantizer = None
    if bits is not None:
        quantizer = UniformQuantizer(bits, np.array(lengths)[:, None], np.array(midpoint))
    plan = engine.plan(
        attack, quantizer, topology, objective, feasible, v["alpha"], v["iterations"],
        explicit_init=init, adversary_quantizes=v["adversary_quantizes"],
    )
    return ExperimentConfig(plan=plan, seeds=v["seeds"], strict=v["strict"], build_key=key)


# ---- presets ---------------------------------------------------------------

_PRESET_BASE = {
    "n": 10,
    "p": 1,
    "topology": {"type": "complete"},
    "objective": {"name": "quadratic", "box": {"lo": -1.0, "hi": 1.0}},
    "alpha": 0.7,
    "iterations": 200,
    "seeds": list(range(20)),
    "attack": {"kind": "uniform", "range": [0.0, 1.0], "sign": "positive", "seed": 7},
}

PRESETS = {
    # 7 honest agents, 1-bit broadcasts
    "fig2a": {"honest": 7, "bits": 1},
    # 7 honest agents, 5-bit broadcasts
    "fig2b": {"honest": 7, "bits": 5},
    # congested network: 3 honest agents, 1-bit broadcasts
    "fig2c": {"honest": 3, "bits": 1},
}


def preset_document(name: str, seeds=None) -> dict:
    """Raw JSON document for a named preset scenario."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    params = PRESETS[name]
    doc = copy.deepcopy(_PRESET_BASE)
    honest = params["honest"]
    doc["roles"] = [HONEST] * honest + [ADVERSARIAL] * (doc["n"] - honest)
    doc["quantizer"] = {"bits": params["bits"], "interval_length": 1.0, "midpoint": 0.0}
    if seeds is not None:
        doc["seeds"] = list(seeds)
    return doc


def preset_config(name: str, seeds=None) -> ExperimentConfig:
    """The parsed config of a named preset, optionally with other seeds;
    ``KeyError`` for an unknown name."""
    return parse_config(preset_document(name, seeds=seeds))
