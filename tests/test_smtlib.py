import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fixtures
from capplan.encoder import build
from capplan.errors import SolverLaunchError, SolverProtocolError
from capplan.model import load_model, merge_documents, parse_model
from capplan.smtlib import (
    SmtProcess,
    SolverConfig,
    emit,
    format_value,
    minimize_core,
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
