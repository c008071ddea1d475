import json
import re
import shlex
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fixtures
import capplan.planner as planner
import capplan.relax as relax
import capplan.smtlib as smtlib
from capplan.cli import main as cli_main
from capplan.encoder import build
from capplan.errors import SolverLaunchError, SolverProtocolError
from capplan.model import load_model, merge_documents, parse_model
from capplan.oracle import brute_force_plan
from capplan.planner import PlannerConfig, minimize_core, plan
from capplan.smtlib import (
    SmtProcess,
    SolverConfig,
    emit,
    format_value,
    parse_answer,
    parse_value,
    solve,
)
from capplan.synonymy import build_index

GOLDEN = Path(__file__).parent / "golden" / "transport_distinct_n0.smt2"
GOLDEN_CHAINED = GOLDEN.parent / "chained_n2.smt2"
EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def _config(**overrides):
    options = {"command": fixtures.REFSOLVER_CMD, "timeout_seconds": 60.0}
    options.update(overrides)
    return SolverConfig(**options)


def _distinct_encoding(bound=0):
    model = parse_model(
        merge_documents(
            fixtures.transport_distinct_domain(), fixtures.transport_distinct_problem()
        )
    )
    return build(model, build_index(model), bound)


def test_emit_matches_golden_file():
    text = emit(_distinct_encoding())
    assert text == GOLDEN.read_text()
    assert "(declare-const |ProductPositionAfter#t0#l1| Real)" in text
    assert ":named pre.Transport.t0" in text


def test_chained_example_at_bound_2_matches_golden_file():
    # Pins the order across happenings, for a fresh build and for one that
    # reuses the blocks of bounds 0 and 1.
    model = load_model(EXAMPLES / "chained_domain.json",
                       EXAMPLES / "transport_problem.json")
    index = build_index(model)
    golden = GOLDEN_CHAINED.read_text()
    assert emit(build(model, index, 2)) == golden
    encoding = None
    for bound in range(3):
        encoding = build(model, index, bound, previous=encoding)
    assert emit(encoding) == golden


def test_emit_empty_encoding_is_header_and_check_sat():
    model = parse_model({"capabilities": [{"id": "req", "kind": "required"}]})
    encoding = build(model, build_index(model), 0)
    assert emit(encoding) == (
        "(set-option :produce-models true)\n(set-option :produce-unsat-cores true)\n"
        "(set-logic QF_LRA)\n(check-sat)\n(get-model)\n(get-unsat-core)\n"
    )


def test_emit_nonlinear_header():
    doc = fixtures.transport_single_doc()
    doc["capabilities"][0]["constraints"].append(
        {
            "apply": "eq",
            "args": [
                {"apply": "times",
                 "args": [{"ref": "TargetPosition"}, {"ref": "AGVPosition"}]},
                {"ref": "ProductPositionAfter"},
            ],
        }
    )
    model = parse_model(doc)
    text = emit(build(model, build_index(model), 0))
    assert text.splitlines()[2] == "(set-logic QF_NRA)"


@pytest.mark.parametrize("command", ["", "   ", [], "python -c 'x"])
def test_unusable_solver_command_is_rejected(command):
    with pytest.raises(ValueError, match="solver command"):
        SolverConfig(command=command)


def test_solve_single_forced_value():
    text = (
        "(set-option :produce-models true)\n(set-logic QF_LRA)\n"
        "(declare-const x Real)\n(assert (= x 5.0))\n(check-sat)\n(get-model)\n"
    )
    outcome = solve(text, _config())
    assert outcome.is_sat
    assert outcome.valuation == {"x": Fraction(5)}


def test_solve_forced_core():
    text = (
        "(set-option :produce-unsat-cores true)\n(set-logic QF_LRA)\n"
        "(assert (! false :named a0))\n(check-sat)\n(get-unsat-core)\n"
    )
    outcome = solve(text, _config())
    assert outcome.is_unsat
    assert outcome.core == ["a0"]


def test_solve_transport_fixture():
    model = fixtures.transport_model()
    encoding = build(model, build_index(model), 0)
    outcome = solve(emit(encoding), _config())
    assert outcome.is_sat
    assert outcome.valuation["Transport#t0"] is True
    # Every declared variable is present in the parsed valuation.
    assert set(outcome.valuation) == set(encoding.variables)


def test_rational_fidelity():
    text = (
        "(set-option :produce-models true)\n(set-logic QF_LRA)\n"
        "(declare-const x Real)\n(assert (= x (/ 1 3)))\n(check-sat)\n(get-model)\n"
    )
    outcome = solve(text, _config())
    assert outcome.valuation["x"] == Fraction(1, 3)


@given(st.fractions(max_denominator=40,
                    min_value=Fraction(-50), max_value=Fraction(50)))
def test_value_render_parse_round_trip(value):
    import capplan.smtlib as smtlib

    rendered = format_value(value)
    parsed = parse_value(smtlib.parse_sexprs(rendered)[0])
    assert parsed == value


def test_parse_answer_skips_errors_and_wrappers():
    text = (
        'unsat\n(error "model is not available")\n(a1 a2)\n'
    )
    outcome = parse_answer(text)
    assert outcome.core == ["a1", "a2"]
    text = "sat\n(model (define-fun |x#t0#l0| () Real (- (/ 1 2))))\n" \
           '(error "no core")\n'
    outcome = parse_answer(text)
    assert outcome.valuation == {"x#t0#l0": Fraction(-1, 2)}


def test_parse_answer_bare_define_fun_list():
    text = "sat\n((define-fun x () Real 2.0)\n (define-fun b () Bool true))\n"
    outcome = parse_answer(text)
    assert outcome.valuation == {"x": Fraction(2), "b": True}


def test_parse_answer_without_status_is_protocol_error():
    with pytest.raises(SolverProtocolError):
        parse_answer("flubber\n")


def test_unterminated_quoted_symbol_is_protocol_error():
    with pytest.raises(SolverProtocolError, match="unterminated quoted symbol"):
        parse_answer("sat\n(model (define-fun |x () Real 1.0))\n")


def test_multi_megabyte_model_is_read_within_the_timeout():
    # Reading resumes where the previous chunk ended; re-scanning the
    # whole answer at every 64 KB chunk would take over a minute here.
    count = 120_000
    fake = (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == '(check-sat)':\n"
        "        print('sat', flush=True)\n"
        "    elif line.strip() == '(get-model)':\n"
        "        sys.stdout.write('(model\\n' + ''.join(\n"
        f"            f'  (define-fun |v{{i}}| () Real (/ {{i}} 3))\\n' for i in range({count}))\n"
        "            + ')\\n')\n"
        "        sys.stdout.flush()\n"
    )
    process = SmtProcess(_config(command=[sys.executable, "-c", fake], timeout_seconds=30))
    try:
        outcome = process.exchange("(set-logic QF_LRA)\n")
    finally:
        process.close()
    assert outcome.status == "sat"
    assert len(outcome.valuation) == count
    assert outcome.valuation[f"v{count - 1}"] == Fraction(count - 1, 3)


def test_model_split_inside_symbols_and_comments_is_read_whole():
    # Each piece is flushed apart, so the scan resumes inside a quoted
    # symbol and inside a comment, where parentheses do not count.
    pieces = ["(model\n  (define-fun |a)", "(b| () Real 1.0) ; c)", "lose )\n",
              "  (define-fun c () Real (/ 1 2)))\n"]
    fake = (
        "import sys, time\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == '(check-sat)':\n"
        "        print('sat', flush=True)\n"
        "    elif line.strip() == '(get-model)':\n"
        f"        for piece in {pieces!r}:\n"
        "            sys.stdout.write(piece)\n"
        "            sys.stdout.flush()\n"
        "            time.sleep(0.05)\n"
    )
    process = SmtProcess(_config(command=[sys.executable, "-c", fake], timeout_seconds=10))
    try:
        outcome = process.exchange("(set-logic QF_LRA)\n")
    finally:
        process.close()
    assert outcome.valuation == {"a)(b": Fraction(1), "c": Fraction(1, 2)}


def test_solver_launch_error():
    with pytest.raises(SolverLaunchError):
        solve("(check-sat)\n", _config(command=["/nonexistent/solver"]))


def test_timeout_maps_to_unknown():
    slow = [sys.executable, "-c", "import time; time.sleep(5)"]
    outcome = solve("(check-sat)\n", _config(command=slow, timeout_seconds=0.3))
    assert outcome.status == "unknown"
    assert outcome.reason == "timeout"


# 216 KB of declarations: more than a pipe holds, so writing the check
# blocks until the solver reads.
LARGE_CHECK = "".join(f"(declare-const x{i} Real)\n" for i in range(8000))


def _large_check(command, timeout, session):
    """The outcome of LARGE_CHECK, through an SmtProcess exchange or one
    solve() script, its wall time, and whether the session's process
    was closed."""
    config = _config(command=command, timeout_seconds=timeout)
    started = time.monotonic()
    if not session:
        outcome = solve(LARGE_CHECK + "(check-sat)\n(get-unsat-core)\n", config)
        return outcome, time.monotonic() - started, True
    process = SmtProcess(config)
    try:
        outcome = process.exchange(LARGE_CHECK)
        return outcome, time.monotonic() - started, process.closed
    finally:
        process.close()


@pytest.mark.parametrize("session", (True, False), ids=("session", "oneshot"))
def test_a_large_check_to_a_solver_that_never_reads_times_out(session):
    outcome, elapsed, closed = _large_check(fixtures.NEVER_READS_CMD, 1.0, session)
    assert (outcome.status, outcome.reason) == ("unknown", "timeout")
    assert elapsed < 1.0 + 1
    assert closed


@pytest.mark.parametrize("session", (True, False), ids=("session", "oneshot"))
def test_a_large_check_to_a_solver_that_floods_before_reading_is_answered(session):
    outcome, elapsed, _ = _large_check(fixtures.FLOODS_BEFORE_READING_CMD, 3.0, session)
    assert (outcome.status, outcome.core) == ("unsat", [])
    assert elapsed < 3.0


def test_solver_exit_is_a_protocol_error():
    process = SmtProcess(_config(command=[sys.executable, "-c", "pass"]))
    process.proc.wait()
    try:
        with pytest.raises(SolverProtocolError):
            process.exchange("(set-logic QF_LRA)\n")
    finally:
        process.close()


def test_core_validity_restriction_stays_unsat():
    model = fixtures.contradictory_model()
    encoding = build(model, build_index(model), 0)
    outcome = solve(emit(encoding), _config())
    assert outcome.is_unsat and outcome.core
    restricted = encoding.restricted(outcome.core)
    again = solve(emit(restricted), _config())
    assert again.is_unsat


def test_minimize_core_on_contradictory_boundaries():
    model = fixtures.contradictory_model()
    encoding = build(model, build_index(model), 0)
    outcome = solve(emit(encoding), _config())
    minimal = minimize_core(encoding, outcome.core, _config())
    assert set(minimal) == {
        "init.CurrentProductPosition",
        "init.RequestedPositionBefore",
    }
    # Minimality: dropping any member makes the rest satisfiable.
    for name in minimal:
        rest = [n for n in minimal if n != name]
        assert solve(emit(encoding.restricted(rest)), _config()).is_sat


def test_transcript_capture(tmp_path):
    path = tmp_path / "transcript.smt2"
    model = fixtures.transport_model()
    encoding = build(model, build_index(model), 0)
    solve(emit(encoding), _config(transcript=path))
    content = path.read_text()
    assert "; --- request ---" in content
    assert "(check-sat)" in content
    assert "; sat" in content

    # A persistent process writes the same format as the exchange happens,
    # before it is closed.
    path = tmp_path / "incremental.smt2"
    script = "(set-logic QF_LRA)\n(declare-const x Real)\n(assert (= x 5.0))\n"
    process = SmtProcess(_config(transcript=path))
    try:
        outcome = process.exchange(script)
        content = path.read_text()
    finally:
        process.close()
    assert outcome.valuation == {"x": Fraction(5)}
    assert content == (
        "; --- request ---\n" + script + "(check-sat)\n"
        "; --- response ---\n; sat\n"
        "; --- request ---\n(get-model)\n"
        "; --- response ---\n; (model\n;   (define-fun x () Real 5.0)\n; )\n"
    )


# -- core minimization in one session ---------------------------------------


def _reference_minimize(encoding, core):
    """Deletion-based minimization by one one-shot script per trial: what
    minimize_core must compute.  The reference solver answers each script
    in this process, as it would through a pipe, without a spawn per
    trial."""
    kept = [name for name in core if name in encoding.by_name]
    for name in list(kept):
        if name not in kept:
            continue
        trial = [n for n in kept if n != name]
        outcome = parse_answer(fixtures.run_inprocess(emit(encoding.restricted(trial))))
        if outcome.is_unsat:
            kept = [n for n in trial if outcome.core is None or n in outcome.core]
    order = [a.name for a in encoding.assertions]
    return sorted(kept, key=order.index)


@pytest.fixture(scope="module")
def no_plan_models():
    """(label, model, last bound) of every no-plan model: the random
    fixtures without a plan of at most three happenings (bound 2), the
    contradictory model, the inert-goal model and the parked-AGV model."""
    models = [(f"random {seed}", fixtures.random_model(seed), 2) for seed in range(110)]
    models = [(label, model, bound) for label, model, bound in models
              if brute_force_plan(model, build_index(model), bound + 1) is None]
    return models + [("contradictory", fixtures.contradictory_model(), 1),
                     ("inert goal", fixtures.inert_goal_model(), 2),
                     ("parked AGV", fixtures.parked_agv_model(), 2)]


@pytest.fixture(scope="module")
def no_plan_cores(no_plan_models):
    """(label, encoding, raw core, minimize_core's result in a fresh
    session) at the last unsat bound of every no-plan model."""
    cases = []
    for label, model, bound in no_plan_models:
        encoding = build(model, build_index(model), bound)
        outcome = parse_answer(fixtures.run_inprocess(emit(encoding)))
        assert outcome.is_unsat and outcome.core, label
        minimal = minimize_core(encoding, outcome.core, _config())
        cases.append((label, encoding, outcome.core, minimal))
    return cases


def test_minimize_core_equals_the_one_shot_deletion_loop(no_plan_cores):
    assert len(no_plan_cores) > 50
    for label, encoding, core, minimal in no_plan_cores:
        assert minimal == _reference_minimize(encoding, core), label


def test_minimized_cores_are_minimal(no_plan_cores):
    for label, encoding, _, minimal in no_plan_cores:
        assert parse_answer(fixtures.run_inprocess(
            emit(encoding.restricted(minimal)))).is_unsat, label
        for name in minimal:
            rest = [n for n in minimal if n != name]
            text = emit(encoding.restricted(rest))
            assert parse_answer(fixtures.run_inprocess(text)).is_sat, (label, name)


def test_plan_minimizes_in_the_last_bounds_process_to_the_same_cores(
        no_plan_models, no_plan_cores, monkeypatch):
    # A minimizing run checks every bound, and minimizes, in one session
    # through the pipe; a plain one-shot run of the same model, whose
    # scripts are answered in this process, gives the same outcome at every
    # bound, raw core included.
    def answered_here(text, config, process=None):
        if process is not None:
            smtlib.reap(process)
        return parse_answer(fixtures.run_inprocess(text))

    minimizing = PlannerConfig(solver=_config(), minimize=True)
    assert sum(label.startswith("random") for label, *_ in no_plan_models) == 71
    for (label, model, bound), (_, _, _, minimal) in zip(no_plan_models, no_plan_cores):
        result = plan(model, bound, minimizing)
        with monkeypatch.context() as patch:
            patch.setattr(planner, "solve", answered_here)
            oneshot = plan(model, bound, PlannerConfig(solver=_config()))
        assert result.outcomes == oneshot.outcomes, label
        assert result.last_core == minimal, label


def test_minimize_core_starts_one_solver_process(monkeypatch):
    # One process and one check-sat per trial; each trial asserts its
    # members in encoding order, whatever the order of the core.
    model = fixtures.inert_goal_model()
    encoding = build(model, build_index(model), 2)
    core = solve(emit(encoding), _config()).core
    calls = {"__init__": [], "send": [], "check_sat": []}
    for method, seen in calls.items():
        original = getattr(SmtProcess, method)

        def recorded(self, *args, _original=original, _seen=seen):
            _seen.append(args)
            return _original(self, *args)

        monkeypatch.setattr(SmtProcess, method, recorded)
    monkeypatch.setattr(planner, "solve", None)  # no one-shot solve either
    assert minimize_core(encoding, core[::-1], _config()) == core
    assert len(calls["__init__"]) == 1
    assert len(calls["check_sat"]) == len(core)
    order = [a.name for a in encoding.assertions]
    trials = [re.findall(r":named (\S+)\)\)", text)
              for (text,) in calls["send"] if "(push 1)" in text]
    assert len(trials) == len(core)
    assert all(names == sorted(names, key=order.index) for names in trials)


def _sessions(transcript: str) -> list:
    """The transcript cut at each script header, one piece per solver
    process."""
    opening = "; --- request ---\n(set-option :produce-models true)\n"
    return [opening + piece for piece in transcript.split(opening)[1:]]


def _recorded(transcript: str) -> str:
    """The responses a transcript holds, as the solver wrote them."""
    return "".join(line[2:] + "\n" for line in transcript.splitlines()
                   if line.startswith("; ") and not line.startswith("; --- "))


def test_minimization_transcript_is_one_session_that_replays(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    # A random model without a plan whose relaxed goal is reachable, so
    # that every bound is solved.
    model_path.write_text(json.dumps(fixtures.random_model_doc(10)))
    transcript = tmp_path / "transcript.smt2"
    solver = " ".join(shlex.quote(part) for part in fixtures.REFSOLVER_CMD)
    code = cli_main(["plan", "--model", str(model_path), "--max-happenings", "2",
                     "--solver-cmd", solver, "--minimize-core",
                     "--transcript", str(transcript)])
    core = json.loads(capsys.readouterr().out)["explanation"]["core"]
    assert code == 2
    # Every bound and every trial is checked in one session, which is sent
    # the script header and each declaration once.
    [session] = _sessions(transcript.read_text())
    # One check per bound first: its one-shot script's declarations not
    # sent before and its assertions, under (push 1), after the (pop 1)
    # of the bound before.
    model = fixtures.random_model(10)
    index = build_index(model)
    relevant = relax.relevant_capabilities(model, index)
    expected, declared = [], set()
    for bound in range(3):
        script = emit(build(model, index, bound, relevant=relevant)).splitlines()
        assertions = next(i for i, line in enumerate(script)
                          if line.startswith("(assert "))
        lines = ["(pop 1)"] if bound else [
            line for line in script[:assertions] if not line.startswith("(declare-")]
        lines += [line for line in script[:assertions]
                  if line.startswith("(declare-") and line not in declared]
        declared.update(script[:assertions])
        lines += ["(push 1)", *script[assertions:-3], "(check-sat)"]
        expected.append("\n".join(lines) + "\n")
    requests = [piece.split("; --- response ---\n")[0]
                for piece in session.split("; --- request ---\n")[1:]]
    # Each bound is answered unsat and asked for its core; the trials follow.
    assert requests[:6:2] == expected and requests[1:6:2] == ["(get-unsat-core)\n"] * 3
    checks = [text for text in requests if text.endswith("(check-sat)\n")]
    assert len(checks) - 3 >= len(core) > 1
    assert session.count("(push 1)") == len(checks)
    assert session.count("(pop 1)") == len(checks) - 1
    assert session.count("(set-logic ") == 1
    # No bound has a model to read, and a trial's is never read, so none
    # is asked for.
    assert "(get-model)" not in session
    replayed = subprocess.run(fixtures.REFSOLVER_CMD, input=session,
                              capture_output=True, text=True, check=True)
    assert replayed.stdout == _recorded(session)


def test_minimize_core_goes_on_after_a_hung_trial(tmp_path, monkeypatch):
    model = fixtures.inert_goal_model()
    encoding = build(model, build_index(model), 2)
    core = solve(emit(encoding), _config()).core
    counter = tmp_path / "check_sats"
    command = fixtures.faulty_refsolver(counter, "hang", 2)
    processes = []
    original = SmtProcess.__init__

    def recorded(self, config):
        processes.append(self)
        original(self, config)

    monkeypatch.setattr(SmtProcess, "__init__", recorded)
    started = time.monotonic()
    minimal = minimize_core(encoding, core, _config(command=command, timeout_seconds=1.0))
    assert time.monotonic() - started < 10
    # The hung trial counts as not unsat; the next trial started a fresh
    # process, and every trial was checked.
    assert len(processes) == 2
    assert processes[0].proc.returncode == -signal.SIGKILL
    assert int(counter.read_text()) == len(core)
    assert solve(emit(encoding.restricted(minimal)), _config()).is_unsat


def test_a_hung_last_bound_leaves_minimization_to_a_fresh_process(tmp_path, monkeypatch):
    # Bounds 0 and 1 are unsat; the last bound's check-sat, the third,
    # hangs, so bound 1's core is minimized in a fresh session, to the
    # core the fresh session gives it directly.
    model = fixtures.parked_agv_model()
    encoding = build(model, build_index(model), 1)
    core = solve(emit(encoding), _config()).core
    expected = minimize_core(encoding, core, _config())
    processes = []
    original = SmtProcess.__init__

    def recorded(self, config):
        processes.append(self)
        original(self, config)

    monkeypatch.setattr(SmtProcess, "__init__", recorded)
    command = fixtures.faulty_refsolver(tmp_path / "check_sats", "hang", 3)
    config = PlannerConfig(solver=_config(command=command, timeout_seconds=2.0),
                           minimize=True)
    result = plan(model, 2, config)
    assert [(o.status, o.reason) for o in result.outcomes] == [
        ("unsat", None), ("unsat", None), ("unknown", "timeout")]
    assert result.last_core == expected and len(expected) > 1
    assert len(processes) == 2
    assert processes[0].proc.returncode == -signal.SIGKILL
    assert processes[1].proc.returncode == 0


def test_an_unknown_last_bound_leaves_minimization_in_its_process(tmp_path, monkeypatch):
    # As above, but the third check-sat is answered unknown: the process
    # every bound was checked in is still open, so bound 1's core is
    # minimized in it, to the core a fresh session gives it, and no second
    # process starts.
    model = fixtures.parked_agv_model()
    encoding = build(model, build_index(model), 1)
    core = solve(emit(encoding), _config()).core
    expected = minimize_core(encoding, core, _config())
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    counter = tmp_path / "check_sats"
    command = fixtures.faulty_refsolver(counter, "unknown", 3)
    result = plan(model, 2, PlannerConfig(solver=_config(command=command), minimize=True))
    assert [(o.status, o.reason) for o in result.outcomes] == [
        ("unsat", None), ("unsat", None), ("unknown", smtlib.SOLVER_UNKNOWN)]
    assert result.last_core == expected and len(expected) > 1
    assert len(started) == 1
    assert int(counter.read_text()) == 3 + len(core)


def test_incremental_minimization_is_the_minimizing_session(
        no_plan_models, no_plan_cores, tmp_path, monkeypatch):
    # With --incremental too, a minimizing run checks every bound with the
    # whole encoding pushed, so nothing is asserted outside (push 1) and
    # the trials go on in the same session: the outcomes are a
    # minimize-only run's, and the cores one-shot minimization's.
    cases = [(label, model, bound, minimal)
             for (label, model, bound), (*_, minimal) in zip(no_plan_models, no_plan_cores)
             if label == "inert goal"
             or label.startswith("random ") and int(label.split()[1]) < 20]
    assert len(cases) > 5
    sessions = []
    original = SmtProcess.__init__

    def recorded(self, config):
        sessions.append(self)
        original(self, config)

    monkeypatch.setattr(SmtProcess, "__init__", recorded)
    for i, (label, model, bound, minimal) in enumerate(cases):
        expected = plan(model, bound, PlannerConfig(solver=_config(), minimize=True))
        sessions.clear()
        transcript = tmp_path / f"{i}.smt2"
        config = PlannerConfig(solver=_config(transcript=transcript),
                               incremental=True, minimize=True)
        result = plan(model, bound, config)
        assert result.last_core == minimal, label
        assert result.outcomes == expected.outcomes, label
        assert len(sessions) == 1, label
        [session] = _sessions(transcript.read_text())
        depth = 0
        for line in session.splitlines():
            depth += (line == "(push 1)") - (line == "(pop 1)")
            assert depth == 1 or not line.startswith("(assert "), label


def test_solver_exiting_mid_session_is_a_protocol_error(tmp_path, capsys):
    model = fixtures.random_model(0)
    encoding = build(model, build_index(model), 0)
    core = solve(emit(encoding), _config()).core
    assert len(core) > 2
    command = fixtures.faulty_refsolver(tmp_path / "check_sats", "exit", 2)
    with pytest.raises(SolverProtocolError):
        minimize_core(encoding, core, _config(command=command))
    # Through the CLI: bound 0 is check-sat 1, the session's trials come
    # after it, and the solver exits at the second.
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(fixtures.random_model_doc(0)))
    command = fixtures.faulty_refsolver(tmp_path / "cli_check_sats", "exit", 3)
    code = cli_main(["plan", "--model", str(model_path), "--max-happenings", "0",
                     "--solver-cmd", " ".join(shlex.quote(part) for part in command),
                     "--minimize-core"])
    assert code == 3
    assert "solver" in capsys.readouterr().err
