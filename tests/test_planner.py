import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import fixtures
from capplan import expr as ex
from capplan.encoder import build
from capplan.errors import (
    CoresUnavailable,
    IncompleteModel,
    InvalidModel,
    SolverProtocolError,
)
from capplan.model import parse_model
from capplan.oracle import brute_force_plan, simulate
from capplan.planner import (
    NoPlanFound,
    Plan,
    PlannerConfig,
    explain,
    extract_plan,
    minimize_core,
    plan,
)
from capplan.smtlib import SolverConfig, emit, solve
from capplan.synonymy import build_index

F = Fraction


def _config(**overrides):
    solver = SolverConfig(command=fixtures.REFSOLVER_CMD, timeout_seconds=60.0)
    options = {"solver": solver}
    options.update(overrides)
    return PlannerConfig(**options)


def test_transport_plan_single_happening():
    model = fixtures.transport_model()
    result = plan(model, 3, _config())
    assert isinstance(result, Plan)
    assert result.bound_happenings == 1
    assert result.happenings[0].applied == ("Transport",)
    assert result.parameters["TargetPosition"] == F(10)
    assert simulate(model, build_index(model), result).ok


def test_chained_plan_two_happenings():
    model = fixtures.drive_transport_model(product_at=3, agv_at=5, goal=10)
    index = build_index(model)
    result = plan(model, 3, _config())
    assert isinstance(result, Plan)
    assert result.bound_happenings == 2
    assert simulate(model, index, result).ok
    oracle_plan = brute_force_plan(model, index, 3)
    assert oracle_plan.bound_happenings == result.bound_happenings


def test_empty_plan_at_bound_zero():
    model = fixtures.satisfied_goal_model()
    result = plan(model, 3, _config())
    assert isinstance(result, Plan)
    assert result.bound_happenings == 1
    assert result.happenings[0].applied == ()


def test_unreachable_precondition_is_unsat_at_every_bound():
    # Product at 3, AGV at 5, no drive capability: transport can never fire
    # and the frame axioms freeze every position.
    model = fixtures.transport_model(product_at=3, agv_at=5, goal=10)
    result = plan(model, 2, _config())
    assert isinstance(result, NoPlanFound)
    assert result.all_unsat


def test_zero_provided_capabilities_plan():
    doc = {
        "typeDescriptions": [{"id": "td.x", "datatype": "Real"}],
        "products": [
            {
                "id": "P",
                "productTypeId": "T",
                "properties": [
                    {
                        "id": "p.x",
                        "typeDescription": "td.x",
                        "instanceDescriptions": [
                            {"expressionGoal": "requirement", "value": "1"}
                        ],
                    }
                ],
            }
        ],
        "capabilities": [
            {
                "id": "req",
                "kind": "required",
                "inputs": [],
                "outputs": [{"entity": "P", "properties": ["p.x"]}],
            }
        ],
    }
    model = parse_model(doc)
    result = plan(model, 1, _config())
    assert isinstance(result, Plan)
    assert result.bound_happenings == 1
    assert result.happenings[0].applied == ()
    assert result.happenings[0].layer1["p.x"] == F(1)


def test_no_plan_found_with_outcomes():
    model = fixtures.inert_goal_model()
    result = plan(model, 4, _config())
    assert isinstance(result, NoPlanFound)
    assert result.all_unsat
    assert [o.bound for o in result.outcomes] == [0, 1, 2, 3, 4]
    assert all(o.status == "unsat" for o in result.outcomes)
    assert result.last_core


def test_explanation_names_boundary_and_frame():
    model = fixtures.inert_goal_model()
    result = plan(model, 2, _config(minimize=True))
    explanation = explain(result, model)
    families = {e.family for e in explanation.elements}
    assert "init" in families or "goal" in families
    assert "frame" in families or "pre" in families
    by_name = {e.name: e for e in explanation.elements}
    assert by_name["init.CurrentProductPosition"].element_id == "CurrentProductPosition"
    rendered = by_name["init.CurrentProductPosition"].rendering
    assert "CurrentProductPosition@(0,0)" in rendered


def test_explanation_of_contradictory_boundaries():
    model = fixtures.contradictory_model()
    result = plan(model, 1, _config(minimize=True))
    assert isinstance(result, NoPlanFound)
    explanation = explain(result, model)
    assert set(explanation.core_names) == {
        "init.CurrentProductPosition",
        "init.RequestedPositionBefore",
    }


def test_raw_core_of_contradictory_boundaries_is_a_proper_subset():
    model = fixtures.contradictory_model()
    result = plan(model, 1, _config())
    assert isinstance(result, NoPlanFound)
    # last_encoding keeps only the core, so the names of the last unsat
    # bound come from its full encoding.
    names = [a.name for a in build(model, build_index(model), 1).assertions]
    assert set(result.last_core) < set(names)
    assert {"init.CurrentProductPosition",
            "init.RequestedPositionBefore"} <= set(result.last_core)
    restricted = emit(result.last_encoding.restricted(result.last_core))
    assert solve(restricted, _config().solver).is_unsat


def test_last_encoding_keeps_only_the_core():
    model = fixtures.inert_goal_model()
    result = plan(model, 2, _config(minimize=True))
    encoding = result.last_encoding
    assert encoding.bound == 2
    assert [a.name for a in encoding.assertions] == result.last_core
    assert set(encoding.by_name) == set(result.last_core)
    used = set().union(*(ex.references(a.term) for a in encoding.assertions))
    assert set(encoding.variables) == used
    assert encoding.blocks is None


def test_explain_without_core_raises():
    no_plan = NoPlanFound(outcomes=(), all_unsat=False)
    with pytest.raises(CoresUnavailable):
        explain(no_plan, fixtures.transport_model())


def test_invalid_model_is_rejected():
    doc = fixtures.transport_single_doc()
    doc["capabilities"][0]["inputs"] = doc["capabilities"][0]["inputs"][:2]
    model = parse_model(doc)
    with pytest.raises(InvalidModel):
        plan(model, 1, _config())


def test_extract_plan_incomplete_model():
    model = fixtures.transport_model()
    encoding = build(model, build_index(model), 0)
    outcome = solve(emit(encoding), SolverConfig(command=fixtures.REFSOLVER_CMD))
    valuation = dict(outcome.valuation)
    valuation.pop("Transport#t0")
    with pytest.raises(IncompleteModel):
        extract_plan(encoding, valuation)


def test_extract_plan_reports_all_layers():
    model = fixtures.drive_transport_model()
    encoding = build(model, build_index(model), 1)
    outcome = solve(emit(encoding), SolverConfig(command=fixtures.REFSOLVER_CMD))
    assert outcome.is_sat
    extracted = extract_plan(encoding, outcome.valuation)
    assert len(extracted.happenings) == 2
    for happening in extracted.happenings:
        assert set(happening.layer0) == set(encoding.classes)
        assert set(happening.layer1) == set(encoding.classes)
    assert extracted.classes["CurrentProductPosition"] == (
        "CurrentProductPosition",
        "ProductPositionAfter",
        "RequestedPositionAfter",
        "RequestedPositionBefore",
    )


# A fake solver that answers each command it recognises on its own line,
# after `delay` seconds (None: hang), and ignores the rest, so it serves
# both modes.
FAKE_SOLVER = """
import sys, time
answers = {answers!r}
for line in sys.stdin:
    answer = answers.get(line.strip(), "")
    if answer is None:
        time.sleep(60)
    if answer:
        time.sleep({delay})
        print(answer, flush=True)
"""

FAULTS = {
    "unknown": ({"(check-sat)": "unknown"}, 0, "solver returned unknown"),
    "error-then-unknown": ({"(check-sat)": '(error "line 9: no")\nunknown'}, 0,
                           "solver returned unknown"),
    "multiline-error-then-unknown": ({"(check-sat)": '(error "a\nb")\nunknown'}, 0,
                                     "solver returned unknown"),
    "unsupported-option-then-unknown": ({"(set-logic QF_LRA)": "unsupported",
                                         "(check-sat)": "unknown"}, 0,
                                        "solver returned unknown"),
    "hang-on-get-model": ({"(check-sat)": "sat", "(get-model)": None}, 0,
                          "timeout"),
    "hang-on-check-sat": ({"(check-sat)": None}, 0, "timeout"),
    # Each answer alone fits the timeout; the bound's round trip does not.
    "slow-answers": ({"(check-sat)": "sat", "(get-model)": "(model)"}, 0.3,
                     "timeout"),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("incremental", (False, True), ids=("oneshot", "incremental"))
def test_unknown_outcomes_do_not_abort_the_loop(fault, incremental, tmp_path):
    answers, delay, reason = FAULTS[fault]
    timeout = 0.5
    transcript = tmp_path / "transcript.smt2"
    config = _config(incremental=incremental)
    config.solver = SolverConfig(
        command=[sys.executable, "-c",
                 FAKE_SOLVER.format(answers=answers, delay=delay)],
        timeout_seconds=timeout,
        transcript=transcript,
    )
    started = time.monotonic()
    result = plan(fixtures.transport_model(), 2, config)
    elapsed = time.monotonic() - started
    assert isinstance(result, NoPlanFound)
    assert not result.all_unsat
    assert [(o.status, o.reason) for o in result.outcomes] == [("unknown", reason)] * 3
    assert elapsed < 3 * timeout + 1
    # The transcript is written as the run goes, so even a hung solver
    # leaves every bound's request behind.
    assert transcript.read_text().count("(check-sat)") == 3


# A solver that answers from a table and exits once it has answered
# (get-model); the answers carry their own line breaks.
EXITING_SOLVER = """
import sys
answers = {answers!r}
for line in sys.stdin:
    sys.stdout.write(answers.get(line.strip(), ""))
    sys.stdout.flush()
    if line.strip() == "(get-model)":
        break
"""

PIPE_FAULTS = {
    "garbage-status": ({"(check-sat)": "flubber\n"}, SolverProtocolError),
    "model-cut-by-exit": ({"(check-sat)": "sat\n",
                           "(get-model)": "(model\n  (define-fun x () Real"},
                          SolverProtocolError),
    "model-missing-symbols": ({"(check-sat)": "sat\n", "(get-model)": "(model)\n"},
                              IncompleteModel),
}


@pytest.mark.parametrize("fault", PIPE_FAULTS)
@pytest.mark.parametrize("incremental", (False, True), ids=("oneshot", "incremental"))
def test_pipe_faults_raise_the_same_error_in_both_modes(fault, incremental):
    answers, error = PIPE_FAULTS[fault]
    timeout = 0.5
    config = _config(incremental=incremental)
    config.solver = SolverConfig(
        command=[sys.executable, "-c", EXITING_SOLVER.format(answers=answers)],
        timeout_seconds=timeout,
    )
    started = time.monotonic()
    with pytest.raises(error):
        plan(fixtures.transport_model(), 2, config)
    assert time.monotonic() - started < timeout + 1


UNFINISHED_ANSWERS = {
    "unterminated-symbol": {"(check-sat)": "sat",
                            "(get-model)": "(model (define-fun |x () Real 1.0))"},
    "unterminated-string": {"(check-sat)": '"abc'},
}


@pytest.mark.parametrize("fault", UNFINISHED_ANSWERS)
def test_unfinished_answers_are_errors_oneshot_and_timeouts_incremental(fault):
    # A finished one-shot answer can never be completed; a live solver
    # might still complete it, so incremental mode waits for the timeout.
    timeout = 0.5
    command = [sys.executable, "-c",
               FAKE_SOLVER.format(answers=UNFINISHED_ANSWERS[fault], delay=0)]
    oneshot = _config(solver=SolverConfig(command=command, timeout_seconds=timeout))
    with pytest.raises(SolverProtocolError, match="unterminated"):
        plan(fixtures.transport_model(), 2, oneshot)
    incremental = _config(incremental=True,
                          solver=SolverConfig(command=command, timeout_seconds=timeout))
    started = time.monotonic()
    result = plan(fixtures.transport_model(), 2, incremental)
    assert time.monotonic() - started < 3 * timeout + 1
    assert [(o.status, o.reason) for o in result.outcomes] == [("unknown", "timeout")] * 3


def test_division_by_zero_gives_the_same_outcomes_in_both_modes():
    # The reference solver rejects the constraint with an (error ...) line
    # and answers unknown, which neither mode may take for a crash.
    doc = fixtures.transport_single_doc()
    doc["capabilities"][0]["constraints"][1] = {"apply": "eq", "args": [
        {"ref": "ProductPositionAfter"},
        {"apply": "divide", "args": [{"ref": "CurrentProductPosition"},
                                     {"const": "0"}]},
    ]}
    model = parse_model(doc)
    results = [plan(model, 2, _config(incremental=incremental))
               for incremental in (False, True)]
    for result in results:
        assert isinstance(result, NoPlanFound)
        assert [(o.status, o.reason) for o in result.outcomes] == [
            ("unknown", "solver returned unknown")] * 3


def test_incremental_transcript_replays_and_carries_the_seed(tmp_path):
    transcript = tmp_path / "transcript.smt2"
    config = _config(incremental=True)
    config.solver = SolverConfig(command=fixtures.REFSOLVER_CMD, random_seed=7,
                                 transcript=transcript)
    model = fixtures.drive_transport_model(product_at=3)
    assert plan(model, 3, config).bound_happenings == 2
    content = transcript.read_text()
    assert content.startswith("; --- request ---\n(set-option :produce-models true)")
    assert "(set-option :random-seed 7)\n" in content
    assert "; --- response ---\n; unsat\n" in content
    assert content.count("(push 1)") == 2 and content.count("(pop 1)") == 1
    # Responses are comments, so the transcript is the script the solver
    # read: replayed, it draws the recorded responses again.
    recorded = "".join(line[2:] + "\n" for line in content.splitlines()
                       if line.startswith("; ") and not line.startswith("; --- "))
    replayed = subprocess.run(fixtures.REFSOLVER_CMD, input=content,
                              capture_output=True, text=True, check=True)
    assert replayed.stdout == recorded


def test_expanded_mode_agrees_on_transport():
    model = fixtures.drive_transport_model(product_at=3, agv_at=5, goal=10)
    default = plan(model, 3, _config())
    expanded = plan(model, 3, _config(expanded=True))
    assert isinstance(expanded, Plan)
    assert expanded.bound_happenings == default.bound_happenings
    assert simulate(model, build_index(model), expanded).ok


def test_incremental_mode_agrees():
    for build_model, expect_bound in (
        (fixtures.transport_model, 1),
        (lambda: fixtures.drive_transport_model(product_at=3), 2),
    ):
        model = build_model()
        result = plan(model, 3, _config(incremental=True))
        assert isinstance(result, Plan)
        assert result.bound_happenings == expect_bound
    inert = fixtures.inert_goal_model()
    result = plan(inert, 3, _config(incremental=True))
    assert isinstance(result, NoPlanFound)
    assert result.all_unsat
    expanded = plan(fixtures.transport_model(), 3,
                    _config(incremental=True, expanded=True))
    assert isinstance(expanded, Plan)
    assert expanded.bound_happenings == 1


def test_required_capability_constraints_span_init_and_goal():
    # The required capability asks for a relative move: the final position
    # must exceed the initial one by exactly 7, and the initial position
    # must be non-negative.
    doc = fixtures.transport_problem(goal=10)
    properties = doc["products"][0]["properties"]
    properties[1]["instanceDescriptions"] = []  # drop the absolute goal
    doc["capabilities"][0]["constraints"] = [
        {"apply": "eq", "args": [
            {"ref": "RequestedPositionAfter"},
            {"apply": "plus", "args": [{"ref": "RequestedPositionBefore"},
                                       {"const": "7"}]},
        ]},
        {"apply": "geq", "args": [{"ref": "RequestedPositionBefore"},
                                  {"const": "0"}]},
    ]
    from capplan.model import merge_documents

    model = parse_model(merge_documents(fixtures.transport_domain(), doc))
    index = build_index(model)
    encoding = build(model, index, 0)
    assert "goal.constraint.TransportRequest.0" in encoding.by_name
    assert "init.constraint.TransportRequest.1" in encoding.by_name

    result = plan(model, 2, _config())
    assert isinstance(result, Plan)
    assert result.bound_happenings == 1
    assert result.happenings[0].applied == ("Transport",)
    final = result.happenings[-1].layer1["CurrentProductPosition"]
    assert final == F(12)  # 5 + 7
    assert simulate(model, index, result).ok
    oracle_plan = brute_force_plan(model, index, 2)
    assert oracle_plan is not None
    assert oracle_plan.bound_happenings == 1


def test_incremental_matches_oneshot_on_random_models():
    for seed in range(25):
        model = fixtures.random_model(seed)
        oneshot = plan(model, 2, _config())
        incremental = plan(model, 2, _config(incremental=True))
        if isinstance(oneshot, Plan):
            assert isinstance(incremental, Plan), f"seed {seed}"
            assert incremental.bound_happenings == oneshot.bound_happenings
        else:
            assert isinstance(incremental, NoPlanFound), f"seed {seed}"
            assert [o.status for o in incremental.outcomes] == [
                o.status for o in oneshot.outcomes
            ]


def test_minimality_matches_oracle_on_fixtures():
    for builder, bound in (
        (fixtures.transport_model, 3),
        (lambda: fixtures.drive_transport_model(product_at=3), 3),
        (fixtures.satisfied_goal_model, 2),
    ):
        model = builder()
        index = build_index(model)
        result = plan(model, bound, _config())
        oracle_result = brute_force_plan(model, index, bound + 1)
        assert isinstance(result, Plan)
        assert oracle_result is not None
        assert result.bound_happenings == oracle_result.bound_happenings


# -- core minimization in the last bound's process ------------------------------


def _counted(counter, command) -> list:
    """`command`, started through a shell that first appends a line to
    the file `counter`."""
    return ["sh", "-c", 'echo started >> "$0"; exec "$@"', str(counter), *command]


def test_a_minimizing_plan_starts_one_solver_process_per_bound(tmp_path):
    counter = tmp_path / "starts"
    solver = SolverConfig(command=_counted(counter, fixtures.REFSOLVER_CMD),
                          timeout_seconds=60.0)

    def starts(model, max_happenings, **options):
        counter.unlink(missing_ok=True)
        result = plan(model, max_happenings, _config(solver=solver, **options))
        return result, counter.read_text().count("started\n")

    model = fixtures.inert_goal_model()
    result, started = starts(model, 2, minimize=True)
    assert isinstance(result, NoPlanFound) and result.all_unsat
    # Bounds 0 and 1 spawn one process each; the last bound's process goes
    # on to minimize its core, which takes more than one trial.
    assert started == 3
    encoding = build(model, build_index(model), 2)
    raw = solve(emit(encoding), SolverConfig(command=fixtures.REFSOLVER_CMD)).core
    assert len(raw) > 1 and result.last_core == minimize_core(
        encoding, raw, SolverConfig(command=fixtures.REFSOLVER_CMD))
    # A plan found at the last bound comes from that one process too.
    result, started = starts(fixtures.transport_model(), 0, minimize=True)
    assert isinstance(result, Plan)
    assert started == 1
    # Without a plan, one process per bound, none past the last.
    result, started = starts(model, 2)
    assert isinstance(result, NoPlanFound) and started == 3
    # A plan at bound b below the last: the b + 1 processes that solved
    # bounds 0..b, and the one started ahead for bound b + 1, unused.
    chained = fixtures.drive_transport_model(product_at=3, agv_at=5, goal=10)
    for minimize in (True, False):
        result, started = starts(chained, 3, minimize=minimize)
        assert result.bound_happenings == 2 and started == 1 + 2
    # One session across bounds starts no process ahead.
    result, started = starts(model, 2, incremental=True)
    assert isinstance(result, NoPlanFound) and started == 1


# The reference solver behind a wrapper that reads the whole script before
# it starts the solver, so it answers only after EOF, as a solver that
# reads its input as one batch does.
BATCH_SOLVER = """
import subprocess, sys
script = sys.stdin.buffer.read()
answer = subprocess.run(sys.argv[1:], input=script, capture_output=True).stdout
sys.stdout.buffer.write(answer)
"""


def test_a_solver_that_answers_after_eof_gives_the_same_outcomes():
    batch = SolverConfig(command=[sys.executable, "-c", BATCH_SOLVER,
                                  *fixtures.REFSOLVER_CMD], timeout_seconds=60.0)
    for model in (fixtures.transport_model(),
                  fixtures.drive_transport_model(product_at=3, agv_at=5, goal=10),
                  fixtures.inert_goal_model()):
        expected = plan(model, 2, _config())
        result = plan(model, 2, _config(solver=batch))
        assert type(result) is type(expected)
        if isinstance(expected, Plan):
            assert result == expected
        else:
            assert result.outcomes == expected.outcomes
            assert result.last_core == expected.last_core


# Each case: the solver command, given a scratch directory; the model; the
# maximum bound; what plan() returns or raises; and how many solver
# processes it starts, with and without --minimize-core.
ORPHAN_CASES = {
    "sat": (lambda tmp: fixtures.REFSOLVER_CMD, fixtures.transport_model, 0, Plan,
            (1, 1)),
    "unsat": (lambda tmp: fixtures.REFSOLVER_CMD, fixtures.inert_goal_model, 2,
              NoPlanFound, (3, 3)),
    "unknown": (lambda tmp: [sys.executable, "-c", FAKE_SOLVER.format(
        answers={"(check-sat)": "unknown"}, delay=0)], fixtures.inert_goal_model, 2,
        NoPlanFound, (3, 3)),
    "timeout": (lambda tmp: [sys.executable, "-c", FAKE_SOLVER.format(
        answers={"(check-sat)": None}, delay=0)], fixtures.inert_goal_model, 1,
        NoPlanFound, (2, 2)),
    "garbage-status": (lambda tmp: [sys.executable, "-c", EXITING_SOLVER.format(
        answers={"(check-sat)": "flubber\n"})], fixtures.inert_goal_model, 0,
        SolverProtocolError, (1, 1)),
    "exit-mid-minimization": (lambda tmp: fixtures.faulty_refsolver(
        tmp / "check_sats", "exit", 2), fixtures.inert_goal_model, 0,
        SolverProtocolError, (1, None)),
    # The process started ahead for the next bound is never sent a script.
    "plan-below-max": (lambda tmp: fixtures.REFSOLVER_CMD, fixtures.transport_model, 2,
                       Plan, (2, 2)),
    "garbage-status-below-max": (lambda tmp: [sys.executable, "-c", EXITING_SOLVER.format(
        answers={"(check-sat)": "flubber\n"})], fixtures.inert_goal_model, 1,
        SolverProtocolError, (2, 2)),
}
UNUSED_AHEAD = ("plan-below-max", "garbage-status-below-max")


# The minimizing run of each case keeps the case's name; a run without
# minimization, where it means something, is named "<case>-no-minimize".
@pytest.mark.parametrize("case, minimize", [
    pytest.param(case, minimize, id=case if minimize else f"{case}-no-minimize")
    for case, (*_, starts) in ORPHAN_CASES.items()
    for minimize, count in zip((True, False), starts) if count is not None])
def test_no_solver_process_outlives_a_minimizing_plan(case, minimize, monkeypatch,
                                                      tmp_path):
    command, model, max_happenings, expected, starts = ORPHAN_CASES[case]
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    timeout = 0.5 if case == "timeout" else 60.0
    config = _config(minimize=minimize, solver=SolverConfig(
        command=command(tmp_path), timeout_seconds=timeout))
    if issubclass(expected, Exception):
        with pytest.raises(expected):
            plan(model(), max_happenings, config)
    else:
        assert isinstance(plan(model(), max_happenings, config), expected)
    assert len(started) == starts[0 if minimize else 1]
    assert all(process.poll() is not None for process in started)
    if case in UNUSED_AHEAD:
        assert started[-1].returncode == -signal.SIGKILL
