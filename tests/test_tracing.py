"""The benchmark's tracer, benchmarks/tracing.py, wraps planner and smtlib
names by name: a name they drop fails here as well as in the benchmark's
own self-test."""

import importlib.util
from pathlib import Path

import pytest

import fixtures
from capplan import model, oracle, planner, smtlib
from capplan.planner import NoPlanFound, PlannerConfig
from capplan.smtlib import SolverConfig

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict:
    return {owner: dict(vars(owner))
            for owner in (model, oracle, planner, smtlib, smtlib.SmtProcess)}


@pytest.mark.parametrize("incremental, minimize, parent", [
    (True, False, "planner.plan"),
    (False, True, "planner.minimize"),
], ids=("incremental", "minimize"))
def test_session_rendering_is_traced_as_emit(incremental, minimize, parent):
    tracing = _tracing()
    before = _namespaces()
    tracer = tracing.Tracer()
    tracing.install_client(tracer)
    try:
        assert _namespaces() != before
        config = PlannerConfig(solver=SolverConfig(command=fixtures.REFSOLVER_CMD),
                               incremental=incremental, minimize=minimize)
        result = planner.plan(fixtures.inert_goal_model(), 1, config)
    finally:
        tracer.uninstall()
    assert _namespaces() == before
    assert isinstance(result, NoPlanFound) and result.last_core
    spans = tracer.spans
    assert any(name == "smtlib.emit" and spans[up][0] == parent
               for name, _, _, up, _ in spans if up is not None)
