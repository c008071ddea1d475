"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The random suite is solved once per session and shared between the
frame/oracle/differential criteria.
"""

import json
import time
from fractions import Fraction

import pytest

import fixtures
from capplan.cli import main as cli_main
from capplan.encoder import build
from capplan.errors import DomainTooLarge
from capplan.model import validate
from capplan.oracle import brute_force_plan, simulate
from capplan.planner import NoPlanFound, Plan, PlannerConfig, explain, plan
from capplan.smtlib import SolverConfig, emit
from capplan.synonymy import build_index

SUITE_SIZE = 110
SUITE_MAX_BOUND = 2  # up to three happenings


def _config(**overrides):
    solver = SolverConfig(command=fixtures.REFSOLVER_CMD, timeout_seconds=60.0)
    options = {"solver": solver}
    options.update(overrides)
    return PlannerConfig(**options)


def _ok(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def suite():
    """Solve every random model once in default mode."""
    results = []
    for seed in range(SUITE_SIZE):
        model = fixtures.random_model(seed)
        assert validate(model) == []
        index = build_index(model)
        outcome = plan(model, SUITE_MAX_BOUND, _config())
        results.append((seed, model, index, outcome))
    return results


@pytest.fixture(scope="module")
def expanded_suite(suite):
    results = []
    for seed, model, index, _ in suite:
        outcome = plan(model, SUITE_MAX_BOUND, _config(expanded=True))
        results.append(outcome)
    return results


def test_criterion_1_transport_scenario():
    started = time.monotonic()
    model = fixtures.transport_model(product_at=5, agv_at=5, goal=10)
    result = plan(model, 3, _config())
    elapsed = time.monotonic() - started
    assert isinstance(result, Plan)
    assert result.bound_happenings == 1
    assert result.happenings[0].applied == ("Transport",)
    assert result.parameters["TargetPosition"] == Fraction(10)
    verdict = simulate(model, build_index(model), result)
    assert verdict.ok, verdict.violations
    assert elapsed < 5.0
    _ok(1, f"transport plan in {elapsed:.2f}s, TargetPosition=10")


def test_criterion_2_chained_fixture_minimal_bound():
    model = fixtures.drive_transport_model(product_at=3, agv_at=5, goal=10)
    index = build_index(model)
    result = plan(model, 3, _config())
    assert isinstance(result, Plan)
    assert result.bound_happenings == 2
    oracle_plan = brute_force_plan(model, index, 3)
    assert oracle_plan is not None
    assert oracle_plan.bound_happenings == 2
    assert simulate(model, index, result).ok
    _ok(2, "DriveTo+Transport needs exactly 2 happenings, matching the oracle")


def test_criterion_3_unsat_explanations(tmp_path, capsys):
    # (a) nothing affects the goal class: CLI exits 2 for bounds up to 4 and
    # the explanation names a boundary and a frame assertion.
    domain = fixtures.drive_transport_domain(product_at=5)
    domain["capabilities"] = [c for c in domain["capabilities"] if c["id"] == "DriveTo"]
    domain["information"] = [e for e in domain["information"] if e["id"] == "DriveOrder"]
    domain["products"] = [p for p in domain["products"] if p["id"] == "Input_Product"]
    problem = fixtures.transport_problem(goal=10)
    problem["products"][0]["properties"] = problem["products"][0]["properties"][1:]
    problem["capabilities"][0]["inputs"] = []
    domain_path = tmp_path / "inert_domain.json"
    problem_path = tmp_path / "inert_problem.json"
    domain_path.write_text(json.dumps(domain))
    problem_path.write_text(json.dumps(problem))
    solver = " ".join(fixtures.REFSOLVER_CMD)
    code = cli_main(
        ["plan", "--domain", str(domain_path), "--problem", str(problem_path),
         "--max-happenings", "4", "--solver-cmd", solver, "--minimize-core"]
    )
    out = capsys.readouterr().out
    assert code == 2
    document = json.loads(out)
    assert [b["status"] for b in document["bounds"]] == ["unsat"] * 5
    names = {e["name"] for e in document["explanation"]["elements"]}
    assert any(n.startswith(("init.", "goal.")) for n in names)
    assert any(n.startswith(("frame.", "pre.")) for n in names)

    # (b) contradictory boundaries: unsat at every bound; the minimized core
    # is exactly the conflicting initial-condition pair.
    model = fixtures.contradictory_model()
    outcome = plan(model, 4, _config(minimize=True))
    assert isinstance(outcome, NoPlanFound)
    assert outcome.all_unsat
    assert len(outcome.outcomes) == 5
    explanation = explain(outcome, model)
    assert set(explanation.core_names) == {
        "init.CurrentProductPosition",
        "init.RequestedPositionBefore",
    }
    _ok(3, "unsat fixtures exit 2 through bound 4 with boundary+frame cores")


def test_criterion_4_frame_axioms_hold_on_random_suite(suite):
    checked = 0
    sat_models = 0
    for seed, model, index, outcome in suite:
        if not isinstance(outcome, Plan):
            continue
        sat_models += 1
        verdict = simulate(model, index, outcome)
        assert verdict.ok, f"seed {seed}: {verdict.violations}"
        mutexes = set(index.mutexes)
        for t, happening in enumerate(outcome.happenings):
            applied = set(happening.applied)
            for first in sorted(applied):
                for second in sorted(applied):
                    if first < second:
                        assert (first, second) not in mutexes, (
                            f"seed {seed}: mutex pair {first},{second} at {t}"
                        )
            for cls in index.classes:
                before = happening.layer0[cls.class_id]
                after = happening.layer1[cls.class_id]
                if before == after:
                    continue
                checked += 1
                if cls.datatype.value == "Real":
                    movers = index.affecting[cls.class_id, "numeric"]
                else:
                    kind = "positive" if after else "negative"
                    movers = index.affecting[cls.class_id, kind]
                assert set(movers) & applied, (
                    f"seed {seed}: class {cls.class_id} changed at happening {t} "
                    f"with no affecting capability"
                )
    assert len(suite) >= 100
    assert sat_models >= 20
    assert checked >= 20  # the frame check must not be vacuous
    _ok(4, f"{sat_models} sat models, {checked} class changes, zero violations")


def test_criterion_5_oracle_equivalence(suite):
    compared = 0
    for seed, model, index, outcome in suite:
        try:
            oracle_plan = brute_force_plan(model, index, SUITE_MAX_BOUND + 1)
        except DomainTooLarge:
            continue
        compared += 1
        if isinstance(outcome, Plan):
            assert oracle_plan is not None, (
                f"seed {seed}: planner found a plan, oracle did not"
            )
            assert outcome.bound_happenings == oracle_plan.bound_happenings, (
                f"seed {seed}: planner bound {outcome.bound_happenings} vs "
                f"oracle {oracle_plan.bound_happenings}"
            )
        else:
            assert outcome.all_unsat
            assert oracle_plan is None, (
                f"seed {seed}: oracle found a plan, planner did not"
            )
    assert compared >= 80
    _ok(5, f"planner agrees with brute force on {compared} tractable models")


def test_criterion_6_determinism_and_variable_count_law(suite):
    fixtures_models = [
        fixtures.transport_model(),
        fixtures.drive_transport_model(),
        fixtures.satisfied_goal_model(),
    ] + [model for _, model, _, _ in suite[:20]]
    for model in fixtures_models:
        index = build_index(model)
        for bound in range(SUITE_MAX_BOUND + 1):
            encoding = build(model, index, bound)
            assert emit(encoding) == emit(build(model, index, bound))
            expected = 2 * (bound + 1) * len(index.classes) + (bound + 1) * len(
                model.provided
            )
            assert len(encoding.variables) == expected
    _ok(6, f"byte-identical emission and variable-count law on "
           f"{len(fixtures_models)} models x {SUITE_MAX_BOUND + 1} bounds")


def test_criterion_7_expanded_synonyms_differential(suite, expanded_suite):
    for (seed, model, index, default), expanded in zip(suite, expanded_suite):
        if isinstance(default, Plan):
            assert isinstance(expanded, Plan), (
                f"seed {seed}: default sat, expanded unsat"
            )
            assert default.bound_happenings == expanded.bound_happenings, (
                f"seed {seed}: bounds differ"
            )
        else:
            assert isinstance(expanded, NoPlanFound), (
                f"seed {seed}: default unsat, expanded sat"
            )
            assert [o.status for o in default.outcomes] == [
                o.status for o in expanded.outcomes
            ]
    _ok(7, f"class-collapsed and expanded encodings agree on all "
           f"{len(suite)} models")


def test_criterion_8_empty_plan_identity():
    model = fixtures.satisfied_goal_model()
    result = plan(model, 3, _config())
    assert isinstance(result, Plan)
    assert result.bound_happenings == 1
    assert result.happenings[0].applied == ()
    assert simulate(model, build_index(model), result).ok
    _ok(8, "goal holding initially yields a 1-happening plan applying nothing")
