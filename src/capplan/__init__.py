"""capplan: capability models compiled into bounded SMT planning problems.

The pipeline: parse a capability model (provided capabilities with typed
inputs/outputs, one required capability), compute synonymy classes, encode
bounded happenings as an SMT-LIB2 problem, solve by iterative deepening
with any external solver, and either extract a minimal-length plan with
concrete parameter values or explain the failure from an unsat core.

The public names below load their submodule on first use (PEP 562), so
importing one submodule does not import the rest.  A spawned reference
solver (`python -m capplan.refsolver`) thus loads only itself, which keeps
each solver call's start-up small.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    "Encoding": "encoder",
    "build": "encoder",
    "CapPlanError": "errors",
    "CapabilityModel": "model",
    "load_model": "model",
    "merge_documents": "model",
    "parse_model": "model",
    "validate": "model",
    "brute_force_plan": "oracle",
    "simulate": "oracle",
    "NoPlanFound": "planner",
    "Plan": "planner",
    "PlannerConfig": "planner",
    "explain": "planner",
    "extract_plan": "planner",
    "plan": "planner",
    "SolverConfig": "smtlib",
    "SolveOutcome": "smtlib",
    "emit": "smtlib",
    "minimize_core": "smtlib",
    "solve": "smtlib",
    "SynonymyIndex": "synonymy",
    "build_index": "synonymy",
    "effect_sets": "synonymy",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value
