import json
import shlex
import sys

import pytest

import fixtures
from capplan.cli import main
from capplan.planner import GOAL_UNREACHABLE

SOLVER = " ".join(shlex.quote(part) for part in fixtures.REFSOLVER_CMD)


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, doc in (
        ("domain", fixtures.transport_domain()),
        ("problem", fixtures.transport_problem()),
        ("chain_domain", fixtures.drive_transport_domain()),
        ("single", fixtures.transport_single_doc()),
        ("lamp", fixtures.lamp_doc()),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_round_trip(docs, capsys, tmp_path):
    out_path = tmp_path / "plan.json"
    code, out, _ = run(
        [
            "plan",
            "--domain", docs["domain"],
            "--problem", docs["problem"],
            "--max-happenings", "3",
            "--solver-cmd", SOLVER,
            "--output", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    document = json.loads(out_path.read_text())
    assert document["boundHappenings"] == 1
    assert document["happenings"][0]["applied"] == ["Transport"]
    assert document["parameters"]["TargetPosition"] == "10"
    # The emitted plan document passes the oracle check subcommand.
    code, out, _ = run(
        ["check", "--plan", str(out_path), "--domain", docs["domain"],
         "--problem", docs["problem"]],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_plan_single_document_via_model_flag(docs, capsys):
    code, out, _ = run(
        ["plan", "--model", docs["single"], "--max-happenings", "2",
         "--solver-cmd", SOLVER],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["boundHappenings"] == 1


def test_plan_no_plan_exit_code_and_explanation(docs, capsys, tmp_path):
    inert_domain = tmp_path / "inert_domain.json"
    # Keep only DriveTo so nothing can move the product position.
    domain = fixtures.drive_transport_domain(product_at=5)
    domain["capabilities"] = [c for c in domain["capabilities"] if c["id"] == "DriveTo"]
    domain["information"] = [e for e in domain["information"] if e["id"] == "DriveOrder"]
    domain["products"] = [p for p in domain["products"] if p["id"] == "Input_Product"]
    inert_domain.write_text(json.dumps(domain))
    problem = fixtures.transport_problem(goal=10)
    problem["products"][0]["properties"] = problem["products"][0]["properties"][1:]
    problem["capabilities"][0]["inputs"] = []
    problem_path = tmp_path / "inert_problem.json"
    problem_path.write_text(json.dumps(problem))

    code, out, _ = run(
        ["plan", "--domain", str(inert_domain), "--problem", str(problem_path),
         "--max-happenings", "2", "--solver-cmd", SOLVER, "--minimize-core"],
        capsys,
    )
    assert code == 2
    document = json.loads(out)
    assert document["noPlan"] is True
    assert document["allBoundsUnsat"] is True
    # Nothing writes the goal class: the relaxed planning graph levels off
    # without the goal, so only the last bound is solved, and its core
    # is the explanation.
    assert document["goalUnreachable"] is True
    assert document["bounds"] == [
        {"bound": 0, "status": "unsat", "reason": GOAL_UNREACHABLE},
        {"bound": 1, "status": "unsat", "reason": GOAL_UNREACHABLE},
        {"bound": 2, "status": "unsat"}]
    names = {e["name"] for e in document["explanation"]["elements"]}
    assert any(n.startswith(("init.", "goal.")) for n in names)
    assert any(n.startswith(("frame.", "pre.")) for n in names)
    assert all(e["happening"] <= 2 for e in document["explanation"]["elements"])


def test_a_no_plan_document_says_whether_the_goal_is_unreachable(docs, capsys):
    def no_plan(*argv):
        code, out, _ = run(["plan", *argv, "--solver-cmd", SOLVER], capsys)
        assert code == 2
        return json.loads(out)

    # With the AGV parked away from the product there is no plan, but only
    # the solver can tell: every bound is solved.
    parked = docs["dir"] / "parked.json"
    parked.write_text(json.dumps(fixtures.transport_domain(agv_at=7)))
    document = no_plan("--domain", str(parked), "--problem", docs["problem"],
                       "--max-happenings", "1")
    assert document["goalUnreachable"] is False
    assert document["bounds"] == [{"bound": 0, "status": "unsat"},
                                  {"bound": 1, "status": "unsat"}]
    # Without SwitchOn nothing turns the lamp on.  At bound 0 nothing is
    # skipped, and the flag alone says that no longer plan exists either.
    dark = fixtures.lamp_doc()
    dark["capabilities"] = dark["capabilities"][1:]
    path = docs["dir"] / "dark.json"
    path.write_text(json.dumps(dark))
    document = no_plan("--model", str(path), "--max-happenings", "0")
    assert document["goalUnreachable"] is True
    assert document["bounds"] == [{"bound": 0, "status": "unsat"}]


def test_garbled_solver_answer_exits_3(docs, capsys, tmp_path):
    fake = tmp_path / "garbled_solver.py"
    fake.write_text(
        "import sys\n"
        "sys.stdin.read()\n"
        "print('sat')\n"
        "print('(model (define-fun |x () Real 1.0))')\n"
    )
    solver = f"{shlex.quote(sys.executable)} {shlex.quote(str(fake))}"
    code, _, err = run(
        ["plan", "--model", docs["single"], "--max-happenings", "1",
         "--solver-cmd", solver],
        capsys,
    )
    assert code == 3
    assert "unterminated quoted symbol" in err


def test_a_solver_that_dies_under_minimize_core_is_quoted(docs, capsys):
    # The solver writes a line to stderr and exits 1 before it answers;
    # the session every bound of a minimizing run is checked in quotes it.
    dying = "import sys; sys.stderr.write('solver-side failure 42\\n'); sys.exit(1)"
    solver = f"{shlex.quote(sys.executable)} -c {shlex.quote(dying)}"
    code, _, err = run(
        ["plan", "--model", docs["single"], "--max-happenings", "1",
         "--minimize-core", "--solver-cmd", solver],
        capsys,
    )
    assert code == 3
    assert "solver-side failure 42" in err


def test_dump_smt_deterministic(docs, capsys):
    argv = ["dump-smt", "--domain", docs["domain"], "--problem", docs["problem"],
            "--bound", "1"]
    code, first, _ = run(argv, capsys)
    assert code == 0
    assert "(declare-const |Transport#t1| Bool)" in first
    code, second, _ = run(argv, capsys)
    assert first == second


def test_dump_smt_prints_the_script_plan_sends(docs, capsys, tmp_path):
    # Blink cannot reach the goal: it is fixed false, with no mutex.
    domain = tmp_path / "distractor.json"
    domain.write_text(json.dumps(fixtures.with_distractor(fixtures.transport_domain())))
    argv = ["dump-smt", "--domain", str(domain), "--problem", docs["problem"],
            "--bound", "1"]
    code, script, _ = run(argv, capsys)
    assert code == 0
    assert "(declare-const |Blink#t1| Bool)" in script
    assert [line for line in script.splitlines() if "Blink" in line
            and not line.startswith("(declare-const ")] == [
        f"(assert (! (not |Blink#t{t}|) :named pruned.Blink.t{t}))" for t in range(2)]
    # The script a one-shot plan() sends for bound 0, where the plan is, as
    # its transcript records it.
    transcript = tmp_path / "transcript.smt2"
    code, _, _ = run(["plan", "--domain", str(domain), "--problem", docs["problem"],
                      "--max-happenings", "1", "--solver-cmd", SOLVER,
                      "--transcript", str(transcript)], capsys)
    assert code == 0
    requests = [piece.split("; --- response ---")[0]
                for piece in transcript.read_text().split("; --- request ---\n")[1:]]
    argv[-1] = "0"
    assert requests[0] == run(argv, capsys)[1]


def test_dump_smt_empty_model(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"capabilities": [{"id": "req", "kind": "required"}]}))
    code, out, _ = run(["dump-smt", "--model", str(path), "--bound", "0"], capsys)
    assert code == 0
    assert "(set-logic QF_LRA)" in out
    assert "(check-sat)" in out
    assert "declare-const" not in out


def test_validate_clean_and_diagnostics(docs, capsys, tmp_path):
    code, out, _ = run(
        ["validate", "--domain", docs["domain"], "--problem", docs["problem"]],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["diagnostics"] == []

    broken = fixtures.transport_single_doc()
    broken["capabilities"][0]["inputs"] = broken["capabilities"][0]["inputs"][:2]
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps(broken))
    code, out, _ = run(["validate", "--model", str(broken_path)], capsys)
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["code"] == "ConstraintReference"


def test_validate_explain_synonymy(docs, capsys):
    code, out, _ = run(
        ["validate", "--domain", docs["domain"], "--problem", docs["problem"],
         "--explain-synonymy"],
        capsys,
    )
    assert code == 0
    document = json.loads(out)
    classes = {c["classId"]: c["members"] for c in document["classes"]}
    assert classes["CurrentProductPosition"] == [
        "CurrentProductPosition",
        "ProductPositionAfter",
        "RequestedPositionAfter",
        "RequestedPositionBefore",
    ]


def test_check_reports_violations(docs, capsys, tmp_path):
    bad_plan = {
        "boundHappenings": 1,
        "happenings": [
            {
                "applied": ["Transport"],
                "layer0": {"CurrentProductPosition": "5", "TargetPosition": "10",
                           "AGVPosition": "7"},
                "layer1": {"CurrentProductPosition": "10", "TargetPosition": "10",
                           "AGVPosition": "7"},
            }
        ],
    }
    plan_path = tmp_path / "bad_plan.json"
    plan_path.write_text(json.dumps(bad_plan))
    code, out, _ = run(
        ["check", "--plan", str(plan_path), "--domain", docs["domain"],
         "--problem", docs["problem"]],
        capsys,
    )
    assert code == 1
    kinds = {v["kind"] for v in json.loads(out)["violations"]}
    assert "PreconditionFailed" in kinds or "InitMismatch" in kinds


TRANSPORT_PLAN = {
    "applied": ["Transport"],
    "layer0": {"CurrentProductPosition": "5", "TargetPosition": "10",
               "AGVPosition": "5"},
    "layer1": {"CurrentProductPosition": "10", "TargetPosition": "10",
               "AGVPosition": "5"},
}
LAMP_PLAN = {
    "applied": ["SwitchOn"],
    "layer0": {"lamp.on": False},
    "layer1": {"lamp.on": True},
}


TRANSPORT = (("--domain", "domain"), ("--problem", "problem"))


@pytest.mark.parametrize("model, happening, layer, cid, value, datatype", [
    (TRANSPORT, TRANSPORT_PLAN, "layer0", "AGVPosition", True, "Real"),
    (TRANSPORT, TRANSPORT_PLAN, "layer1", "CurrentProductPosition", True, "Real"),
    ((("--model", "lamp"),), LAMP_PLAN, "layer1", "lamp.on", "1", "Boolean"),
], ids=["real-given-true-before", "real-given-true-after", "boolean-given-1"])
def test_check_reports_a_value_of_the_wrong_type(docs, capsys, tmp_path, model,
                                                  happening, layer, cid, value,
                                                  datatype):
    happening = json.loads(json.dumps(happening))
    happening[layer][cid] = value
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"happenings": [happening]}))
    model_args = [arg for option, key in model for arg in (option, docs[key])]
    code, out, err = run(["check", "--plan", str(plan_path), *model_args], capsys)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "violations": [
        {"kind": "Structure", "happening": 0, "element": cid,
         "message": f"{layer} value of {cid} is not {datatype}"},
    ]}


def test_usage_error_missing_solver(docs, capsys):
    code, _, _ = run(
        ["plan", "--domain", docs["domain"], "--max-happenings", "1"], capsys
    )
    assert code == 64


def test_usage_error_negative_bound(docs, capsys):
    code, _, _ = run(
        ["plan", "--domain", docs["domain"], "--problem", docs["problem"],
         "--max-happenings", "-1", "--solver-cmd", SOLVER],
        capsys,
    )
    assert code == 64


def test_dump_smt_negative_bound_is_a_usage_error(docs, capsys):
    code, out, err = run(
        ["dump-smt", "--domain", docs["domain"], "--problem", docs["problem"],
         "--bound", "-1"],
        capsys,
    )
    assert code == 64
    assert out == ""
    assert err == "--bound must be >= 0\n"


@pytest.mark.parametrize("option", [
    ["--solver-cmd", ""],
    ["--solver-cmd", "python -c 'x"],
    ["--solver-cmd", SOLVER, "--timeout", "0"],
], ids=["empty-command", "unbalanced-quote", "zero-timeout"])
def test_unusable_solver_options_are_usage_errors(docs, capsys, option):
    code, out, err = run(
        ["plan", "--domain", docs["domain"], "--problem", docs["problem"],
         "--max-happenings", "1", *option],
        capsys,
    )
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("plan_doc", [
    [1],
    {"happenings": [1]},
    {"happenings": {"applied": []}},
    {"happenings": [{"applied": "Transport"}]},
    {"happenings": [{"applied": [], "layer0": []}]},
    {"happenings": [], "parameters": ["TargetPosition"]},
    {"happenings": [], "classes": ["AGVPosition"]},
    {"happenings": [], "classes": {"AGVPosition": 1}},
    {"happenings": [{"applied": [1]}]},
    {"boundHappenings": "x", "happenings": []},
    {"boundHappenings": -1, "happenings": []},
    {"boundHappenings": True, "happenings": []},
], ids=["list-document", "number-happening", "object-happenings", "string-applied",
        "list-layer", "list-parameters", "list-classes", "number-class",
        "number-applied-entry", "string-bound", "negative-bound", "boolean-bound"])
def test_malformed_plan_document_exits_65(docs, capsys, tmp_path, plan_doc):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan_doc))
    code, _, err = run(
        ["check", "--plan", str(plan_path), "--domain", docs["domain"],
         "--problem", docs["problem"]],
        capsys,
    )
    assert code == 65
    assert "must be" in err


def test_non_string_port_property_exits_65(capsys, tmp_path):
    doc = fixtures.transport_single_doc()
    doc["capabilities"][0]["inputs"][0]["properties"] = [["x"]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["validate", "--model", str(path)], capsys)
    assert code == 65
    assert "is not a string" in err


def test_boolean_plan_document_round_trip(capsys, tmp_path):
    model_path = tmp_path / "lamp.json"
    model_path.write_text(json.dumps(fixtures.lamp_doc()))
    plan_path = tmp_path / "lamp_plan.json"
    code, out, _ = run(
        ["plan", "--model", str(model_path), "--max-happenings", "2",
         "--solver-cmd", SOLVER, "--output", str(plan_path)],
        capsys,
    )
    assert code == 0
    document = json.loads(plan_path.read_text())
    assert document["happenings"][0]["applied"] == ["SwitchOn"]
    assert document["happenings"][0]["layer1"]["lamp.on"] is True
    code, out, _ = run(
        ["check", "--plan", str(plan_path), "--model", str(model_path)], capsys
    )
    assert code == 0


def test_missing_input_file(capsys):
    code, _, err = run(
        ["validate", "--model", "/nonexistent/model.json"], capsys
    )
    assert code == 66


def test_malformed_model_document(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"capabilities": "not-a-list"}')
    code, _, err = run(["validate", "--model", str(path)], capsys)
    assert code == 65


def test_text_format_output(docs, capsys):
    code, out, _ = run(
        ["validate", "--domain", docs["domain"], "--problem", docs["problem"],
         "--format", "text"],
        capsys,
    )
    assert code == 0
    assert "diagnostics" in out
