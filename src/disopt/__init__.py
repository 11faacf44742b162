"""Deterministic simulator and bound-analysis toolkit for distributed
subgradient optimization with quantized broadcasts and adversarial agents."""

from .adversary import AttackPolicy, attack_table, attack_vector, max_attack_norm
from .bounds import (
    BoundReport,
    admissible_step_window,
    constants,
    lemma1_bound,
    neighborhood_size,
    quantizer_admissible,
    recursion_bound,
    subgradient_admissible,
)
from .config import ConfigError, ExperimentConfig, parse_config, preset_config
from .engine import RunPlan, RunResult, Trace, plan, run
from .harness import run_experiment, sweep
from .objective import FeasibleSet, LocalObjective, quadratic_suite
from .quantizer import UniformQuantizer
from .topology import NetworkTopology, build_complete, build_from_edge_list, validate

__version__ = "0.1.0"

__all__ = [
    "AttackPolicy",
    "BoundReport",
    "ConfigError",
    "ExperimentConfig",
    "FeasibleSet",
    "LocalObjective",
    "NetworkTopology",
    "RunPlan",
    "RunResult",
    "Trace",
    "UniformQuantizer",
    "admissible_step_window",
    "attack_table",
    "attack_vector",
    "build_complete",
    "build_from_edge_list",
    "constants",
    "lemma1_bound",
    "max_attack_norm",
    "neighborhood_size",
    "parse_config",
    "plan",
    "preset_config",
    "quadratic_suite",
    "quantizer_admissible",
    "recursion_bound",
    "run",
    "run_experiment",
    "subgradient_admissible",
    "sweep",
    "validate",
]
