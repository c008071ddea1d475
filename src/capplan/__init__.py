"""capplan: capability models compiled into bounded SMT planning problems.

The pipeline: parse a capability model (provided capabilities with typed
inputs/outputs, one required capability), compute synonymy classes, encode
bounded happenings as an SMT-LIB2 problem, solve by iterative deepening
with any external solver, and either extract a minimal-length plan with
concrete parameter values or explain the failure from an unsat core.
"""

from .encoder import Encoding, build, declare_variables
from .errors import CapPlanError
from .model import (
    CapabilityModel,
    load_model,
    merge_documents,
    parse_model,
    partition_properties,
    serialize_model,
    validate,
)
from .oracle import brute_force_plan, simulate
from .planner import NoPlanFound, Plan, PlannerConfig, explain, extract_plan, plan
from .smtlib import SolverConfig, SolveOutcome, emit, minimize_core, solve
from .synonymy import (
    SynonymyIndex,
    build_index,
    effect_sets,
    synonymous_products,
    synonymous_properties,
)

__all__ = [
    "CapPlanError",
    "CapabilityModel",
    "Encoding",
    "NoPlanFound",
    "Plan",
    "PlannerConfig",
    "SolveOutcome",
    "SolverConfig",
    "SynonymyIndex",
    "brute_force_plan",
    "build",
    "build_index",
    "declare_variables",
    "effect_sets",
    "emit",
    "explain",
    "extract_plan",
    "load_model",
    "merge_documents",
    "minimize_core",
    "parse_model",
    "partition_properties",
    "plan",
    "serialize_model",
    "simulate",
    "solve",
    "synonymous_products",
    "synonymous_properties",
    "validate",
]

__version__ = "0.1.0"
