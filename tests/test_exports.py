import importlib
import subprocess
import sys

import pytest

import capplan
from capplan import encoder, expr, model, planner

# Every public name and the submodule that defines it.
EXPORTS = {
    "CapPlanError": "errors",
    "CapabilityModel": "model",
    "Encoding": "encoder",
    "NoPlanFound": "planner",
    "Plan": "planner",
    "PlannerConfig": "planner",
    "SolveOutcome": "smtlib",
    "SolverConfig": "smtlib",
    "SynonymyIndex": "synonymy",
    "brute_force_plan": "oracle",
    "build": "encoder",
    "build_index": "synonymy",
    "effect_sets": "synonymy",
    "emit": "smtlib",
    "explain": "planner",
    "extract_plan": "planner",
    "load_model": "model",
    "merge_documents": "model",
    "minimize_core": "planner",
    "parse_model": "model",
    "plan": "planner",
    "simulate": "oracle",
    "solve": "smtlib",
    "validate": "model",
}

SLOTTED = (
    expr.Const, expr.Ref, expr.Apply,
    encoder.VariableKey, encoder.Assertion,
    model.TypeDescription, model.InstanceDescription, model.Property,
    model.Product, model.Resource, model.InformationEntity,
    model.CapabilityPort, model.Capability, model.CapabilityModel,
    model.Diagnostic,
    planner.Happening, planner.Plan, planner.BoundOutcome,
    planner.ExplanationElement, planner.Explanation,
)


def _capplan_modules_after(statement):
    script = (f"import sys; {statement}; "
              "print(' '.join(sorted(m for m in sys.modules if m.startswith('capplan'))))")
    completed = subprocess.run([sys.executable, "-c", script], capture_output=True,
                               timeout=60, check=True)
    return completed.stdout.decode().split()


def test_importing_the_solver_loads_no_other_submodule():
    assert _capplan_modules_after("import capplan.refsolver") == [
        "capplan", "capplan.refsolver", "capplan.sexp"]
    assert _capplan_modules_after("import capplan.sexp") == ["capplan", "capplan.sexp"]


def test_public_names_are_unchanged():
    assert sorted(capplan.__all__) == sorted(EXPORTS)
    namespace = {}
    exec("from capplan import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_public_names_are_their_submodules_objects():
    for name, submodule in EXPORTS.items():
        defining = importlib.import_module(f"capplan.{submodule}")
        assert getattr(capplan, name) is getattr(defining, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        capplan.nonexistent


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_value_objects_have_no_instance_dict(cls):
    assert not hasattr(cls.__new__(cls), "__dict__")
