"""Experiment configuration: JSON schema, validation, and presets.

``parse_config`` validates an entire document and raises a single
:class:`ConfigError` carrying every violation with its field path, so a
user can fix a config in one pass.  Unknown keys are rejected.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adversary import MAX_KEY, AttackPolicy
from .objective import FeasibleSet, make_objectives
from .quantizer import UniformQuantizer
from .topology import build_complete, build_from_edge_list

HONEST = "honest"
ADVERSARIAL = "adversarial"

# Largest bit count whose step divisor 2**bits is a finite float.
MAX_BITS = sys.float_info.max_exp - 1

# Largest dimension p.  A scalar box, midpoint or constant attack value
# expands to p entries at parse time, so the cap is checked before any
# vector is built; 2**16 keeps one expanded vector near 2 MB.
MAX_DIMENSION = 2**16

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated description of one experiment scenario."""

    n: int
    p: int
    topology_type: str  # "complete" | "edge_list"
    edges: tuple | None
    roles: tuple
    objective_name: str
    box_lo: tuple
    box_hi: tuple
    quantizer_bits: int | None
    interval_lengths: tuple | None  # one per agent; None means exact mode
    quantizer_midpoint: tuple | None
    attack: dict  # agent id -> AttackPolicy
    adversary_quantizes: bool
    alpha: float
    iterations: int
    seeds: tuple
    strict: bool
    init: tuple | None = None

    # ---- components, each built once per config ---------------------------

    @cached_property
    def topology(self):
        if self.topology_type == "complete":
            return build_complete(self.n)
        return build_from_edge_list(self.n, self.edges)

    @cached_property
    def feasible_set(self) -> FeasibleSet:
        return FeasibleSet(lo=np.array(self.box_lo), hi=np.array(self.box_hi))

    @cached_property
    def objectives(self):
        """The pair (per-agent objectives, shared minimizer x*)."""
        return make_objectives(self.objective_name, self.n, self.p, self.feasible_set)

    @cached_property
    def quantizer(self) -> UniformQuantizer | None:
        """The broadcast quantizer, one interval length per agent row;
        None in exact-communication mode."""
        if self.quantizer_bits is None:
            return None
        return UniformQuantizer(
            bits=self.quantizer_bits,
            interval_length=np.array(self.interval_lengths)[:, None],
            midpoint=np.array(self.quantizer_midpoint),
        )

    @property
    def max_interval_length(self) -> float:
        """Single scalar interval length the bound formulas consume."""
        if self.interval_lengths is None:
            return 0.0
        return max(self.interval_lengths)


_TOP_KEYS = {
    "n",
    "p",
    "topology",
    "roles",
    "objective",
    "quantizer",
    "attack",
    "adversary_quantizes",
    "alpha",
    "iterations",
    "seeds",
    "strict",
    "init",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_unknown(doc: dict, allowed, path: str, errors) -> None:
    for key in doc:
        if key not in allowed:
            errors.append((f"{path}{key}", "unknown key"))


def _as_vector(value, p, path, errors, default=None):
    if value is None:
        value = default
    if np.isscalar(value):
        value = [value] * p
    try:
        vec = tuple(float(v) for v in value)
    except (TypeError, ValueError, OverflowError):
        errors.append((path, "expected a number or a list of numbers"))
        return None
    if len(vec) != p:
        errors.append((path, f"expected length {p}, got {len(vec)}"))
        return None
    if not all(abs(v) <= MAX_MAGNITUDE for v in vec):  # nan and inf fail too
        errors.append((path, f"expected numbers of magnitude at most {MAX_MAGNITUDE:g}"))
        return None
    return vec


def _parse_attack_policy(doc, path, p, errors):
    allowed = {"kind", "sign", "range", "value", "seed"}
    if not isinstance(doc, dict):
        errors.append((path, "expected an object"))
        return None
    _reject_unknown(doc, allowed, path + ".", errors)
    kind = doc.get("kind")
    if kind is None:
        errors.append((path + ".kind", "required"))
        return None
    rng = doc.get("range", [0.0, 0.0])
    if not isinstance(rng, list):
        errors.append((path + ".range", "expected [lo, hi]"))
        return None
    bounds = _as_vector(rng, 2, path + ".range", errors)
    if bounds is None:
        return None
    seed = doc.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        errors.append((path + ".seed", f"expected a nonnegative integer, got {seed!r}"))
        return None
    value = doc.get("value")
    if value is not None and p is not None:
        value = _as_vector(value, p, path + ".value", errors)
        if value is None:
            return None
    try:
        return AttackPolicy(
            kind=kind,
            sign=doc.get("sign", "positive"),
            low=bounds[0],
            high=bounds[1],
            value=None if value is None else np.array(value),
            seed=seed,
        )
    except (TypeError, ValueError) as exc:  # TypeError: an unhashable kind
        errors.append((path, str(exc)))
        return None


def parse_config(document) -> ExperimentConfig:
    """Validate a JSON document (text, path contents, or parsed dict)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError([("<document>", f"malformed JSON: {exc}")]) from exc
    if not isinstance(document, dict):
        raise ConfigError([("<document>", "top level must be an object")])

    errors: list = []
    _reject_unknown(document, _TOP_KEYS, "", errors)

    def intval(key, minimum, maximum=None):
        raw = document.get(key)
        if raw is None:
            errors.append((key, "required"))
            return None
        if not isinstance(raw, (int, np.integer)) or isinstance(raw, bool):
            errors.append((key, f"expected an integer, got {raw!r}"))
            return None
        if raw < minimum:
            errors.append((key, f"must be >= {minimum}, got {raw}"))
            return None
        if maximum is not None and raw > maximum:
            errors.append((key, f"must be <= {maximum}, got {raw}"))
            return None
        return int(raw)

    n = intval("n", 1)
    p = intval("p", 1, MAX_DIMENSION)
    iterations = intval("iterations", 1, MAX_ITERATIONS)

    alpha = document.get("alpha")
    if alpha is None:
        errors.append(("alpha", "required"))
    elif isinstance(alpha, (list, tuple)):
        errors.append(("alpha", "per-agent step sizes are not supported; use one scalar"))
        alpha = None
    elif (
        not isinstance(alpha, (int, float))
        or isinstance(alpha, bool)
        or not 0 < alpha <= MAX_MAGNITUDE  # nan and inf fail too
    ):
        errors.append(("alpha", f"must be a number in (0, {MAX_MAGNITUDE:g}], got {alpha!r}"))
        alpha = None
    else:
        alpha = float(alpha)

    # topology
    topo = document.get("topology", {"type": "complete"})
    topo_type, edges = None, None
    if not isinstance(topo, dict):
        errors.append(("topology", "expected an object"))
    else:
        _reject_unknown(topo, {"type", "edges"}, "topology.", errors)
        topo_type = topo.get("type")
        if topo_type == "complete":
            edges = None
        elif topo_type == "edge_list":
            raw = topo.get("edges")
            if isinstance(raw, list) and all(
                isinstance(e, list) and len(e) == 2 and all(_is_int(v) for v in e)
                for e in raw
            ):
                edges = tuple((e[0], e[1]) for e in raw)
            else:
                errors.append(("topology.edges", "expected a list of [i, j] integer pairs"))
        else:
            errors.append(("topology.type", f"expected 'complete' or 'edge_list', got {topo_type!r}"))

    # roles
    roles_raw = document.get("roles")
    roles = None
    if roles_raw is None:
        errors.append(("roles", "required"))
    elif not isinstance(roles_raw, list) or not all(
        r in (HONEST, ADVERSARIAL) for r in roles_raw
    ):
        errors.append(("roles", f"expected a list of '{HONEST}'/'{ADVERSARIAL}'"))
    else:
        roles = tuple(roles_raw)
        if n is not None and len(roles) != n:
            errors.append(("roles", f"expected length {n}, got {len(roles)}"))
            roles = None
        elif HONEST not in roles:
            errors.append(("roles", "at least one honest agent is required"))
            roles = None

    # objective
    obj = document.get("objective", {"name": "quadratic"})
    obj_name, box_lo, box_hi = None, None, None
    if not isinstance(obj, dict):
        errors.append(("objective", "expected an object"))
    else:
        _reject_unknown(obj, {"name", "box"}, "objective.", errors)
        obj_name = obj.get("name", "quadratic")
        if obj_name != "quadratic":
            errors.append(("objective.name", f"unknown objective {obj_name!r}"))
        box = obj.get("box", {"lo": -1.0, "hi": 1.0})
        if not isinstance(box, dict):
            errors.append(("objective.box", "expected an object"))
        else:
            _reject_unknown(box, {"lo", "hi"}, "objective.box.", errors)
            if p is not None:
                box_lo = _as_vector(box.get("lo"), p, "objective.box.lo", errors, -1.0)
                box_hi = _as_vector(box.get("hi"), p, "objective.box.hi", errors, 1.0)
                if box_lo and box_hi:
                    if not all(lo < hi for lo, hi in zip(box_lo, box_hi)):
                        errors.append(("objective.box", "requires lo < hi componentwise"))
                    elif obj_name == "quadratic" and not all(
                        lo <= 0 <= hi for lo, hi in zip(box_lo, box_hi)
                    ):
                        errors.append(
                            ("objective.box", "quadratic objective needs the origin inside the box")
                        )

    # quantizer
    quant = document.get("quantizer")
    bits, lengths, midpoint = None, None, None
    if quant is not None:
        if not isinstance(quant, dict):
            errors.append(("quantizer", "expected an object or null"))
        else:
            _reject_unknown(
                quant, {"bits", "interval_length", "midpoint"}, "quantizer.", errors
            )
            bits = quant.get("bits")
            if (
                not isinstance(bits, (int, np.integer))
                or isinstance(bits, bool)
                or not 1 <= bits <= MAX_BITS
            ):
                errors.append(
                    ("quantizer.bits", f"expected an integer in [1, {MAX_BITS}], got {bits!r}")
                )
                bits = None
            raw_len = quant.get("interval_length", 1.0)
            if roles is not None and n is not None:  # then n == len(roles)
                lengths = _as_vector(raw_len, n, "quantizer.interval_length", errors)
                if lengths is not None and any(l <= 0 for l in lengths):
                    errors.append(("quantizer.interval_length", "must be positive"))
                    lengths = None
            if p is not None:
                midpoint = _as_vector(
                    quant.get("midpoint"), p, "quantizer.midpoint", errors, 0.0
                )
                if midpoint and box_lo and box_hi and not all(
                    lo <= m <= hi for lo, m, hi in zip(box_lo, midpoint, box_hi)
                ):
                    errors.append(("quantizer.midpoint", "must lie inside objective.box"))

    # attack policies
    attack_doc = document.get("attack")
    attack: dict = {}
    adversaries = (
        [i for i, r in enumerate(roles) if r == ADVERSARIAL] if roles is not None else []
    )
    if attack_doc is None:
        if adversaries:
            errors.append(("attack", "required when adversarial agents are present"))
    elif isinstance(attack_doc, dict) and "kind" in attack_doc:
        policy = _parse_attack_policy(attack_doc, "attack", p, errors)
        if policy is not None:
            attack = {i: policy for i in adversaries}
    elif isinstance(attack_doc, dict):
        for key, sub in attack_doc.items():
            try:
                agent = int(key)
            except ValueError:
                errors.append((f"attack.{key}", "expected an agent id"))
                continue
            if roles is not None and (
                agent not in range(len(roles)) or roles[agent] != ADVERSARIAL
            ):
                errors.append((f"attack.{key}", "not an adversarial agent"))
                continue
            # an invalid policy is kept as None: its error already stops
            # the parse, and the agent is not also reported as missing
            attack[agent] = _parse_attack_policy(sub, f"attack.{key}", p, errors)
        missing = [i for i in adversaries if i not in attack]
        if missing:
            errors.append(("attack", f"missing policy for adversarial agents {missing}"))
    else:
        errors.append(("attack", "expected a policy object or a mapping of agent ids"))

    # seeds
    seeds_raw = document.get("seeds", [0])
    if (
        not isinstance(seeds_raw, list)
        or not seeds_raw
        or not all(_is_int(s) and s >= 0 for s in seeds_raw)
    ):
        errors.append(("seeds", "expected a nonempty list of nonnegative integers"))
        seeds = None
    elif len(set(seeds_raw)) != len(seeds_raw):
        errors.append(("seeds", "seeds must be distinct"))
        seeds = None
    else:
        seeds = tuple(seeds_raw)

    adversary_quantizes = document.get("adversary_quantizes", False)
    if not isinstance(adversary_quantizes, bool):
        errors.append(("adversary_quantizes", "expected a boolean"))
    strict = document.get("strict", False)
    if not isinstance(strict, bool):
        errors.append(("strict", "expected a boolean"))

    init = document.get("init")
    if init is not None:
        try:
            arr = np.asarray(init, dtype=float)
        except (TypeError, ValueError, OverflowError):  # ragged, non-numeric, 10**400
            arr = None
        if arr is None or (n is not None and p is not None and arr.shape != (n, p)):
            errors.append(("init", f"expected an ({n}, {p}) array of numbers"))
            init = None
        elif box_lo and box_hi and not np.all((arr >= box_lo) & (arr <= box_hi)):
            errors.append(("init", "every initial point must lie inside objective.box"))
            init = None
        else:
            init = tuple(tuple(row) for row in arr)

    if errors:
        raise ConfigError(errors)

    cfg = ExperimentConfig(
        n=n,
        p=p,
        topology_type=topo_type,
        edges=edges,
        roles=roles,
        objective_name=obj_name,
        box_lo=box_lo,
        box_hi=box_hi,
        quantizer_bits=bits,
        interval_lengths=lengths,
        quantizer_midpoint=midpoint,
        attack=attack,
        adversary_quantizes=adversary_quantizes,
        alpha=alpha,
        iterations=iterations,
        seeds=seeds,
        strict=strict,
        init=init,
    )
    # connectivity and similar structural errors surface with a field path
    # too; the topology built here is the one every run of this config uses
    try:
        cfg.topology
    except ValueError as exc:
        raise ConfigError([("topology", str(exc))]) from exc
    return cfg


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


def preset_document(name: str, seeds=None, strict: bool = False) -> dict:
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
    doc["strict"] = strict
    return doc


def preset_config(name: str, seeds=None, strict: bool = False) -> ExperimentConfig:
    return parse_config(preset_document(name, seeds=seeds, strict=strict))
