import io
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from fixtures import run_inprocess
from fm_reference import satisfied
from capplan.refsolver import EQ, LE, LT, NE, Lin, SexpReader, feasible


def run_script(text: str) -> str:
    completed = subprocess.run(
        fixtures.REFSOLVER_CMD, input=text.encode(), capture_output=True, timeout=60
    )
    return completed.stdout.decode()


# -- linear arithmetic core -----------------------------------------------------


def _c(op, coeffs, const, tag):
    return (op, Lin(coeffs, Fraction(const)), frozenset((tag,)))


def test_feasible_simple_equalities():
    status, model = feasible(
        [_c(EQ, {"x": 1}, -5, 1), _c(EQ, {"y": 1, "x": -1}, 0, 2)]
    )
    assert status == "sat"
    assert model["x"] == 5 and model["y"] == 5


def test_feasible_conflicting_bounds_report_origins():
    status, origins = feasible(
        [_c(EQ, {"x": 1}, -5, 1), _c(LT, {"x": 1}, -3, 2), _c(LE, {"y": 1}, 0, 3)]
    )
    assert status == "unsat"
    assert origins == {1, 2}


def test_feasible_strict_window():
    status, origins = feasible(
        [_c(LT, {"x": -1}, 1, 1), _c(LT, {"x": 1}, -1, 2)]
    )  # x > 1 and x < 1
    assert status == "unsat"
    status, model = feasible(
        [_c(LT, {"x": -1}, 0, 1), _c(LT, {"x": 1}, -1, 2)]
    )  # 0 < x < 1
    assert status == "sat"
    assert 0 < model["x"] < 1


def test_feasible_disequality_splitting():
    constraints = [
        _c(LE, {"x": -1}, 5, 1),  # x >= 5
        _c(LE, {"x": 1}, -5, 2),  # x <= 5
        _c(NE, {"x": 1}, -5, 3),  # x != 5
    ]
    status, origins = feasible(constraints)
    assert status == "unsat"
    assert origins == {1, 2, 3}
    status, model = feasible(constraints[:1] + [constraints[2]])
    assert status == "sat"
    assert model["x"] != 5


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([EQ, LE, LT, NE]),
            st.integers(-3, 3),
            st.integers(-3, 3),
            st.integers(-2, 2),
            st.integers(-4, 4),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_feasible_models_satisfy_their_systems(rows):
    constraints = [
        (op, Lin({"x": Fraction(a), "y": Fraction(b), "z": Fraction(d)},
                 Fraction(c)), frozenset((i,)))
        for i, (op, a, b, d, c) in enumerate(rows)
    ]
    result = feasible(constraints)
    if result[0] != "sat":
        # Spot-check infeasibility claims on a small grid: no rational point
        # with small coordinates may satisfy the whole system.
        for point in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 1, 0),
                      (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))):
            model = dict(zip("xyz", map(Fraction, point)))
            assert not all(satisfied(op, term, model)
                           for op, term, _ in constraints)
        return
    model = result[1]
    for op, term, _ in constraints:
        assert satisfied(op, term, model)


# -- full solver ----------------------------------------------------------------


def test_forced_value_and_model():
    out = run_script(
        "(set-logic QF_LRA)\n(declare-const x Real)\n"
        "(assert (= x 5.0))\n(check-sat)\n(get-model)\n"
    )
    assert out.startswith("sat")
    assert "(define-fun x () Real 5.0)" in out


def test_asserted_false_gives_named_core():
    out = run_script(
        "(set-option :produce-unsat-cores true)\n(set-logic QF_LRA)\n"
        "(assert (! false :named a0))\n(check-sat)\n(get-unsat-core)\n"
    )
    lines = out.splitlines()
    assert lines[0] == "unsat"
    assert "(a0)" in out


def test_boolean_structure_and_implications():
    out = run_inprocess(
        "(declare-const a Bool)(declare-const b Bool)"
        "(assert (=> a b))(assert a)(check-sat)(get-model)"
    )
    assert out.startswith("sat")
    assert "(define-fun a () Bool true)" in out
    assert "(define-fun b () Bool true)" in out


def test_boolean_equality_is_iff():
    out = run_inprocess(
        "(declare-const a Bool)(declare-const b Bool)"
        "(assert (= a b))(assert (not b))(check-sat)(get-model)"
    )
    assert out.startswith("sat")
    assert "(define-fun a () Bool false)" in out


def test_rational_values_round_trip():
    out = run_inprocess(
        "(declare-const x Real)(assert (= x (/ 1 3)))(check-sat)(get-model)"
    )
    assert "(define-fun x () Real (/ 1 3))" in out
    out = run_inprocess(
        "(declare-const x Real)(assert (= x (- 2.5)))(check-sat)(get-model)"
    )
    assert "(define-fun x () Real (- 2.5))" in out


def test_unconstrained_variables_get_defaults():
    out = run_inprocess(
        "(declare-const x Real)(declare-const b Bool)(check-sat)(get-model)"
    )
    assert out.startswith("sat")
    assert "(define-fun x () Real 0.0)" in out
    assert "(define-fun b () Bool false)" in out


def test_nonlinear_reports_unknown():
    out = run_inprocess(
        "(declare-const x Real)(declare-const y Real)"
        "(assert (= (* x y) 1.0))(check-sat)"
    )
    assert out.strip().splitlines()[-1] == "unknown"


def test_push_pop():
    out = run_inprocess(
        "(declare-const x Real)"
        "(assert (<= x 4.0))"
        "(push 1)(assert (! (= x 5.0) :named g))(check-sat)(pop 1)"
        "(push 1)(assert (= x 4.0))(check-sat)"
    )
    assert out.splitlines() == ["unsat", "sat"]


def test_quoted_symbols():
    out = run_inprocess(
        "(declare-const |pos#t0#l0| Real)"
        "(assert (= |pos#t0#l0| 2.0))(check-sat)(get-model)"
    )
    assert "(define-fun |pos#t0#l0| () Real 2.0)" in out


class _Lines:
    """A stream that serves the given lines one readline at a time."""

    def __init__(self, lines):
        self.lines = lines
        self.served = 0

    def readline(self):
        if self.served == len(self.lines):
            return ""
        self.served += 1
        return self.lines[self.served - 1]


def test_quoted_symbols_strings_and_comments_across_line_breaks():
    # `;` inside a quoted symbol starts no comment, `|`, `(` and `"` inside a
    # comment start nothing, and `""` inside a string is an escaped quote.
    stream = _Lines([
        "(declare-const |a ; b\n",
        'c| Real) ; a | comment ( " \n',
        "(assert (! (> |a ; b\n",
        'c| 1.0) :named n)) (echo "x""\n',
        'y")\n',
    ])
    reader = SexpReader(stream)
    assert reader.read() == ["declare-const", "|a ; b\nc|", "Real"]
    # A complete command is returned before the next line is read.
    assert stream.served == 2
    assert reader.read() == ["assert", ["!", [">", "|a ; b\nc|", "1.0"], ":named", "n"]]
    assert stream.served == 4
    assert reader.read() == ["echo", '"x""\ny"']
    assert reader.read() is None


@pytest.mark.parametrize("script, answers", [
    ("(check-sat))\n(check-sat)\n", ["sat", '(error "unbalanced )")', "sat"]),
    ('(check-sat)\n(echo "open\n', ["sat", '(error "unterminated string")']),
    ("(check-sat)\n(declare-const |open Real)\n",
     ["sat", '(error "unterminated quoted symbol")']),
])
def test_reading_errors_answer_an_error_and_reading_goes_on(script, answers):
    completed = subprocess.run(fixtures.REFSOLVER_CMD, input=script.encode(),
                               capture_output=True, timeout=60)
    assert completed.stdout.decode().splitlines() == answers
    assert completed.returncode == 0
    assert completed.stderr == b""


def test_disequality_via_not_equals():
    out = run_inprocess(
        "(declare-const x Real)"
        "(assert (not (= x 0.0)))(assert (<= x 0.0))(check-sat)(get-model)"
    )
    lines = out.splitlines()
    assert lines[0] == "sat"
    assert "(- " in out  # strictly below zero


def test_chained_transport_script_is_solved():
    # Two happenings: drive the AGV to the product, then transport it.
    from capplan.encoder import build
    from capplan.smtlib import emit
    from capplan.synonymy import build_index

    model = fixtures.drive_transport_model()
    index = build_index(model)
    text0 = emit(build(model, index, 0))
    text1 = emit(build(model, index, 1))
    assert run_script(text0).startswith("unsat")
    assert run_script(text1).startswith("sat")


def _station_chain(stations: int):
    """A part moved along `stations` stations at positions 1, 3, 5, ...;
    move_i needs it at station i and leaves it at station i+1.  Every move
    writes the one position class, so moves are mutex and the shortest
    plan applies one per happening."""
    from capplan.model import parse_model

    def product(entity, goal, value):
        return {"id": entity, "productTypeId": "Part", "properties": [{
            "id": f"{entity}.v", "typeDescription": "td.pos",
            "instanceDescriptions": [
                {"expressionGoal": goal, "relation": "eq", "value": str(value)}
            ],
        }]}

    def port(entity):
        return {"entity": entity, "properties": [f"{entity}.v"]}

    products = [product("Part.state", "actualValue", 1)]
    capabilities = []
    for i in range(stations):
        products += [product(f"Part.in{i}", "requirement", 2 * i + 1),
                     product(f"Part.out{i}", "assurance", 2 * i + 3)]
        capabilities.append({"id": f"move{i}", "kind": "provided",
                             "inputs": [port(f"Part.in{i}")],
                             "outputs": [port(f"Part.out{i}")]})
    products.append(product("Part.goal", "requirement", 2 * stations + 1))
    capabilities.append({"id": "request", "kind": "required", "inputs": [],
                         "outputs": [port("Part.goal")]})
    return parse_model({"typeDescriptions": [{"id": "td.pos", "datatype": "Real"}],
                        "products": products, "capabilities": capabilities})


def test_ten_station_chain_needs_ten_happenings():
    from capplan.encoder import build
    from capplan.oracle import simulate
    from capplan.planner import extract_plan
    from capplan.smtlib import emit, parse_answer
    from capplan.synonymy import build_index

    model = _station_chain(10)
    index = build_index(model)
    assert run_inprocess(emit(build(model, index, 8))).startswith("unsat")
    encoding = build(model, index, 9)
    outcome = parse_answer(run_inprocess(emit(encoding)))
    assert outcome.is_sat
    found = extract_plan(encoding, outcome.valuation)
    assert [h.applied for h in found.happenings] == [(f"move{i}",) for i in range(10)]
    assert simulate(model, index, found).ok


def test_all_statistics_describe_the_last_check_sat():
    from capplan.encoder import build
    from capplan.smtlib import emit, parse_sexprs
    from capplan.synonymy import build_index

    model = _station_chain(4)
    script = emit(build(model, build_index(model), 2))
    script = script.replace("(get-model)", "").replace("(get-unsat-core)", "")
    out = run_inprocess(script + "(get-info :all-statistics)(get-info :version)")
    status, stats, version = parse_sexprs(out)
    assert status == "unsat"
    assert stats[0::2] == [":decisions", ":conflicts", ":learned-clauses",
                           ":theory-checks", ":theory-conflicts", ":pivots",
                           ":variables", ":clauses"]
    assert all(int(count) > 0 for count in stats[1::2]), stats
    assert version == "unsupported"
    # A check-sat decided while translating reports zero counts.
    out = run_inprocess("(assert false)(check-sat)(get-info :all-statistics)")
    assert parse_sexprs(out)[1][1::2] == ["0"] * 8


# -- root clauses ---------------------------------------------------------------


def _skeletons(monkeypatch):
    """The skeleton of every search started from now on."""
    from capplan import refsolver

    skeletons = []

    class Recording(refsolver.Dpll):
        def __init__(self, skeleton):
            skeletons.append(skeleton)
            super().__init__(skeleton)

    monkeypatch.setattr(refsolver, "Dpll", Recording)
    return skeletons


def test_a_root_disjunction_is_one_clause_without_a_gate(monkeypatch):
    from capplan.smtlib import parse_sexprs

    skeletons = _skeletons(monkeypatch)
    k = 7
    declarations = "".join(f"(declare-const p{i} Bool)" for i in range(k))
    mutexes = [(i, j) for i in range(k) for j in range(i + 1, k)]
    asserts = "".join(f"(assert (! (or (not p{i}) (not p{j})) :named m{i}.{j}))"
                      for i, j in mutexes)
    out = run_inprocess(declarations + asserts + "(check-sat)(get-info :all-statistics)")
    status, stats = parse_sexprs(out)
    assert status == "sat"
    (skeleton,) = skeletons
    assert skeleton.var_count == k
    assert len(skeleton.clauses) == len(mutexes) == 21
    # p<i> is variable i + 1, and each mutex is its own clause.
    assert skeleton.clauses == [[-(i + 1), -(j + 1)] for i, j in mutexes]
    assert skeleton.masks == [1 << n for n in range(len(mutexes))]
    assert dict(zip(stats[0::2], stats[1::2]))[":variables"] == str(k)
    assert dict(zip(stats[0::2], stats[1::2]))[":clauses"] == "21"


def test_a_root_conjunction_is_asserted_conjunct_by_conjunct(monkeypatch):
    skeletons = _skeletons(monkeypatch)
    out = run_inprocess(
        "(declare-const p Bool)(declare-const q Bool)(declare-const r Bool)"
        "(assert (! r :named free))(assert (! (and p (and q (or p r))) :named both))"
        "(assert (! (not p) :named notp))(check-sat)(get-unsat-core)"
    )
    assert _core(out) == ["both", "notp"]
    (skeleton,) = skeletons
    # Five root clauses over r, p and q, numbered in order of first use:
    # no gate.
    assert skeleton.var_count == 3
    assert skeleton.clauses == [[1], [2], [3], [2, 1], [-2]]
    assert skeleton.masks == [0b1, 0b10, 0b10, 0b10, 0b100]


def test_a_root_tautology_adds_no_clause_and_is_in_no_core(monkeypatch):
    skeletons = _skeletons(monkeypatch)
    out = run_inprocess(
        "(declare-const p Bool)(declare-const q Bool)"
        "(assert (! (or p (not p)) :named taut))(assert (! (or q p q (not q)) :named taut2))"
        "(assert (! p :named a))(assert (! (=> p q) :named b))(assert (! (not q) :named c))"
        "(check-sat)(get-unsat-core)"
    )
    assert _core(out) == ["a", "b", "c"]
    (skeleton,) = skeletons
    assert skeleton.clauses == [[1], [-1, 2], [-2]]


def test_only_children_that_are_not_literals_get_gates(monkeypatch):
    skeletons = _skeletons(monkeypatch)
    out = run_inprocess(
        "(declare-const p Bool)(declare-const q Bool)(declare-const r Bool)"
        "(assert (! (or p (and q r)) :named g))(assert (! (not p) :named n))"
        "(assert (! (or (not q) (not r)) :named m))(check-sat)(get-unsat-core)"
    )
    assert _core(out) == ["g", "n", "m"]
    (skeleton,) = skeletons
    # One gate for (and q r); its definition clauses carry mask 0.
    assert skeleton.var_count == 4
    assert [mask for clause, mask in zip(skeleton.clauses, skeleton.masks)
            if 4 in map(abs, clause)] == [0, 0, 0, 1]


def test_an_implication_of_a_disjunction_is_one_clause():
    # A Boolean frame axiom's shape: the consequent's disjuncts join the
    # implication's clause, with no gate.
    from capplan.smtlib import parse_sexprs

    def statistics(script):
        status, stats = parse_sexprs(run_inprocess(
            "(declare-const p Bool)(declare-const q Bool)(declare-const r Bool)"
            f"{script}(check-sat)(get-info :all-statistics)"))
        assert status == "sat"
        stats = dict(zip(stats[0::2], stats[1::2]))
        return stats[":variables"], stats[":clauses"]

    assert statistics("(assert (! (=> p (or q r)) :named frame))") == ("3", "1")
    assert statistics("(assert (=> p (=> q r)))") == ("3", "1")
    # A Real frame axiom's shape: the negated conjunction of its
    # antecedent keeps its gate (one root clause, three definition
    # clauses).
    assert statistics("(assert (=> (and (not p) (not q)) r))") == ("4", "4")


# -- unsat cores ----------------------------------------------------------------


def _core(out: str) -> list:
    from capplan.smtlib import parse_sexprs

    nodes = parse_sexprs(out)
    assert nodes[0] == "unsat", out
    return nodes[1]


def test_core_lists_only_named_assertions():
    out = run_inprocess(
        "(declare-const x Real)"
        "(assert (< x 0.0))(assert (> x 1.0))(assert (! (= x 3.0) :named n))"
        "(check-sat)(get-unsat-core)"
    )
    assert _core(out) == []
    out = run_inprocess(
        "(declare-const x Real)"
        "(assert (< x 0.0))(assert (! (> x 1.0) :named m))(assert (! (= x 3.0) :named n))"
        "(check-sat)(get-unsat-core)"
    )
    assert _core(out) == ["m"]


def test_theory_conflict_at_level_zero_names_its_bounds_only():
    out = run_inprocess(
        "(declare-const x Real)(declare-const y Real)"
        "(assert (! (< x 1.0) :named a))(assert (! (= y 0.0) :named c))"
        "(assert (! (> (+ x y) 2.0) :named b))(assert (! (<= y 5.0) :named d))"
        "(check-sat)(get-unsat-core)(get-info :all-statistics)"
    )
    assert _core(out) == ["a", "c", "b"]
    stats = out.splitlines()[-1]
    assert ":decisions 0 " in stats and ":theory-conflicts 1 " in stats


def test_core_through_a_learned_unit_clause():
    # No clause is unit at level 0.  Deciding a = false falsifies (or a b) /
    # (or a (not b)), which teaches the unit clause a; with a true at level
    # 0, (or (not a) c) and (or (not a) (not c)) conflict.  The core must
    # carry the learned unit's origins, and never the unrelated (or d e).
    out = run_inprocess(
        "(declare-const a Bool)(declare-const b Bool)(declare-const c Bool)"
        "(declare-const d Bool)(declare-const e Bool)"
        "(assert (! (or d e) :named p0))(assert (! (or a b) :named p1))"
        "(assert (! (or a (not b)) :named p2))(assert (! (or (not a) c) :named p3))"
        "(assert (! (or (not a) (not c)) :named p4))"
        "(check-sat)(get-unsat-core)(get-info :all-statistics)"
    )
    assert _core(out) == ["p1", "p2", "p3", "p4"]
    assert ":learned-clauses 1 " in out.splitlines()[-1]


def test_cores_on_the_random_suite_are_unsat_and_smaller():
    from capplan.encoder import build
    from capplan.smtlib import emit, parse_answer
    from capplan.synonymy import build_index

    core_total = assertion_total = 0
    for seed in range(110):
        model = fixtures.random_model(seed)
        index = build_index(model)
        for bound in range(3):
            encoding = build(model, index, bound)
            outcome = parse_answer(run_inprocess(emit(encoding)))
            if not outcome.is_unsat:
                continue
            assert outcome.core and set(outcome.core) <= set(encoding.by_name)
            again = run_inprocess(emit(encoding.restricted(outcome.core)))
            assert again.startswith("unsat"), (seed, bound, outcome.core)
            core_total += len(outcome.core)
            assertion_total += len(encoding.assertions)
    assert assertion_total and core_total < assertion_total / 2


def test_core_never_names_a_popped_assertion():
    from capplan.smtlib import SmtProcess, SolverConfig

    process = SmtProcess(SolverConfig(command=fixtures.REFSOLVER_CMD, timeout_seconds=60))
    try:
        first = process.exchange(
            "(set-option :produce-unsat-cores true)(set-logic QF_LRA)"
            "(declare-const x Real)(assert (! (>= x 0.0) :named base))"
            "(push 1)(assert (! (< x 0.0) :named g1))\n"
        )
        second = process.exchange(
            "(pop 1)(push 1)(assert (! (< x 5.0) :named g2))"
            "(assert (! (> x 7.0) :named g3))\n"
        )
    finally:
        process.close()
    assert first.is_unsat and first.core == ["base", "g1"]
    assert second.is_unsat and second.core == ["g2", "g3"]


# -- equality substitution, bound axioms, integral simplex ----------------------


def _model(out: str) -> dict:
    from capplan.smtlib import parse_answer

    outcome = parse_answer(out)
    assert outcome.is_sat, out
    return outcome.valuation


def test_a_named_equality_the_conflict_needs_is_in_the_core():
    # x, y and z form one class; x <= 1 and y >= 2 conflict only through
    # e.  f merges z, which the conflict does not read, and c reads z.
    lines = [
        "(declare-const x Real)", "(declare-const y Real)", "(declare-const z Real)",
        "(assert (! (= x y) :named e))", "(assert (! (= y z) :named f))",
        "(assert (! (<= x 1.0) :named a))", "(assert (! (<= z 5.0) :named c))",
        "(assert (! (>= y 2.0) :named b))",
    ]
    core = _core(run_inprocess("".join(lines) + "(check-sat)(get-unsat-core)"))
    assert core == ["e", "a", "b"]
    alone = [line for line in lines if "assert" not in line or
             any(f":named {name})" in line for name in core)]
    assert run_inprocess("".join(alone) + "(check-sat)").startswith("unsat")


def test_merged_symbols_get_equal_values_that_satisfy_every_assertion():
    asserts = ["(= x y)", "(= z y)", "(>= (+ y z) 3.0)", "(< x 2.0)", "(= w (+ x 1.0))"]
    out = run_inprocess(
        "(declare-const x Real)(declare-const y Real)(declare-const z Real)"
        "(declare-const w Real)"
        + "".join(f"(assert {a})" for a in asserts) + "(check-sat)(get-model)"
    )
    model = _model(out)
    assert model["x"] == model["y"] == model["z"]
    x = model["x"]
    assert 2 * x >= 3 and x < 2 and model["w"] == x + 1


def test_an_equality_and_a_strict_order_on_one_pair_are_unsat():
    out = run_inprocess(
        "(declare-const x Real)(declare-const y Real)(declare-const z Real)"
        "(assert (! (<= z 0.0) :named other))"
        "(assert (! (= x y) :named e))(assert (! (< x y) :named lt))"
        "(check-sat)(get-unsat-core)"
    )
    assert _core(out) == ["e", "lt"]


def test_an_equality_popped_no_longer_binds():
    out = run_inprocess(
        "(declare-const x Real)(declare-const y Real)"
        "(assert (! (< x y) :named lt))"
        "(push 1)(assert (! (= x y) :named e))(check-sat)(get-unsat-core)(pop 1)"
        "(check-sat)(get-model)"
    )
    assert _core(out) == ["lt", "e"]
    model = _model(out[out.index(")") + 1:])
    assert model["x"] < model["y"]


def test_random_scripts_with_equalities_agree_with_enumeration():
    # Top-level equalities between Real symbols are substituted away; the
    # enumeration translates without substitution.
    import random

    from test_refsolver_stress import _enumerate_satisfiable, _evaluate, _run

    rng = random.Random(20261019)
    reals = ["x", "y", "z", "w"]
    seen = {"sat": 0, "unsat": 0}
    for _ in range(200):
        lines = [f"(declare-const {name} Real)" for name in reals]
        asserts = []
        for _ in range(rng.randint(1, 3)):
            asserts.append(f"(= {rng.choice(reals)} {rng.choice(reals)})")
        for _ in range(rng.randint(3, 5)):
            left, right = rng.sample(reals, 2)
            op = rng.choice(["<", "<=", "=", ">="])
            atom = (f"({op} {left} {right})" if rng.random() < 0.5
                    else f"({op} (+ {left} {right}) {rng.randint(-2, 2)}.0)")
            if rng.random() < 0.4:
                atom = f"(or {atom} ({rng.choice(['<', '>'])} {left} {rng.randint(-2, 2)}.0))"
            asserts.append(atom)
        rng.shuffle(asserts)
        lines += [f"(assert (! {a} :named a{i}))" for i, a in enumerate(asserts)]
        text = "".join(lines) + "(check-sat)"
        solver = _run(text)
        expected = "sat" if _enumerate_satisfiable(solver) else "unsat"
        assert solver.last_status == expected, text
        seen[expected] += 1
        if expected == "sat":
            model = solver.last_model
            parsed = [SexpReader(io.StringIO(a)).read() for a in asserts]
            assert all(_evaluate(node, model) is True for node in parsed), (text, model)
        else:
            core = [asserts[int(name[1:])] for name in solver.last_core]
            again = "".join(lines[:len(reals)]) + "".join(f"(assert {a})" for a in core)
            assert _run(again + "(check-sat)").last_status == "unsat", (text, core)
    assert min(seen.values()) >= 40, seen


def test_bound_axioms_are_valid_and_rule_out_crossing_bounds():
    import itertools
    import random

    from capplan.refsolver import _EFFECTS, LOWER, UPPER, Simplex

    rng = random.Random(20261020)
    emitted = 0
    for _ in range(300):
        simplex = Simplex()
        atoms = {}
        for atom in range(1, rng.randint(2, 6) + 1):
            op = rng.choice((EQ, LE, LT))
            const = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
            term = Lin({"x": rng.choice((1, -1, 2))}, const)
            simplex.add_atom(atom, op, term)
            atoms[atom] = (op, term)
        axioms = simplex.bound_axioms()
        emitted += len(axioms)

        def allowed(truth):
            return all(any(truth[abs(lit)] == (lit > 0) for lit in clause) for clause in axioms)

        # Valid: every point near an atom's bound satisfies every clause.
        for op, term in atoms.values():
            for offset in (Fraction(-1, 4), 0, Fraction(1, 4)):
                point = {"x": -term.const / term.coeffs["x"] + offset}
                assert allowed({a: satisfied(o, t, point) for a, (o, t) in atoms.items()})
        # Strong enough: every assignment they allow has no lower bound
        # above an upper bound.
        for values in itertools.product((False, True), repeat=len(atoms)):
            truth = dict(zip(atoms, values))
            if not allowed(truth):
                continue
            bounds = {LOWER: [], UPPER: []}
            for atom, value in truth.items():
                _, b, op = simplex.atoms[atom]
                for side, k in _EFFECTS[op][not value]:
                    if side in bounds:
                        bounds[side].append((b, k))
            if bounds[LOWER] and bounds[UPPER]:
                assert max(bounds[LOWER]) <= min(bounds[UPPER]), (atoms, truth)
    assert emitted > 1000


def test_the_station_chain_needs_less_than_half_the_decisions():
    # Summed over bounds 0..7 of an 8-station chain, the search before
    # equality substitution and bound axioms made 11,753 decisions.
    from capplan.encoder import build
    from capplan.smtlib import emit, parse_sexprs
    from capplan.synonymy import build_index

    model = _station_chain(8)
    index = build_index(model)
    decisions = 0
    for bound in range(8):
        out = run_inprocess(emit(build(model, index, bound))
                            + "(get-info :all-statistics)")
        stats = parse_sexprs(out)[-1]
        decisions += int(stats[stats.index(":decisions") + 1])
    assert decisions < 11753 / 2


def test_no_float_enters_the_simplex_and_integers_stay_int(monkeypatch):
    from capplan import refsolver
    from capplan.encoder import build
    from capplan.smtlib import emit
    from capplan.synonymy import build_index

    searches = []

    class Recorded(refsolver.Dpll):
        def solve(self):
            searches.append(self)
            return super().solve()

    def numbers(theory):
        for c, k in theory.value:
            yield c
            yield k
        for side in theory.bounds:
            for bound in side:
                if bound is not None:
                    yield from bound[0]
        for row in theory.rows.values():
            yield from row.values()
        for _, b, _ in theory.atoms.values():
            yield b

    monkeypatch.setattr(refsolver, "Dpll", Recorded)
    model = _station_chain(4)
    for bound in range(4):
        run_inprocess(emit(build(model, build_index(model), bound)))
    assert searches and all(s.theory.pivots for s in searches[-2:])
    assert {type(n) for s in searches for n in numbers(s.theory)} == {int}
    searches.clear()
    out = run_inprocess(
        "(declare-const x Real)(declare-const y Real)"
        "(assert (= (* 3.0 x) 1.0))(assert (<= (+ x (* 2.0 y)) (/ 1 2)))"
        "(assert (>= (- (* 3.0 y) x) (- 7.0)))(check-sat)"
    )
    assert out.startswith("sat")
    kinds = {type(n) for s in searches for n in numbers(s.theory)}
    assert Fraction in kinds and kinds <= {int, Fraction}


def test_malformed_commands_answer_errors_and_reading_goes_on():
    script = (
        "(push x)\n(declare-fun)\n(pop -1)\n(pop 1)\n(declare-const)\n(assert)\n"
        "(assert (! true :named))\n(declare-const x Real)\n(assert (! (> x 1.0) :named n))\n"
        "(check-sat)\n(get-model)\n"
    )
    completed = subprocess.run(fixtures.REFSOLVER_CMD, input=script.encode(),
                               capture_output=True, timeout=60)
    assert completed.returncode == 0
    assert completed.stderr == b""
    lines = completed.stdout.decode().splitlines()
    assert [line.split()[0] for line in lines[:7]] == ["(error"] * 7
    assert lines[7] == "sat"


# -- the command-line entry point -------------------------------------------------


def _console_script_command() -> list:
    """What the installed `capplan-refsolver` script runs: the entry
    point pyproject.toml names, called as setuptools' wrapper calls it."""
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    module, function = re.search(
        r'^capplan-refsolver = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    return [sys.executable, "-c",
            f"import sys; from {module} import {function}; sys.exit({function}())"]


def test_an_answer_larger_than_a_pipe_buffer_arrives_whole_before_the_exit():
    from capplan.smtlib import parse_answer

    names = [f"x{i:05d}_{'w' * 24}" for i in range(3000)]
    script = "".join(f"(declare-const {name} Real)\n" for name in names)
    script += f"(assert (= {names[-1]} 7.0))\n(check-sat)\n(get-model)\n(get-unsat-core)\n"
    outputs = []
    for command in (fixtures.REFSOLVER_CMD, _console_script_command()):
        completed = subprocess.run(command, input=script.encode(),
                                   capture_output=True, timeout=60)
        assert completed.returncode == 0
        assert completed.stderr == b""
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 65536
    valuation = parse_answer(outputs[0].decode()).valuation
    assert list(valuation) == names
    assert valuation[names[-1]] == 7
    assert outputs[0].endswith(b')\n(error "unsat core is not available")\n')


def test_exit_in_mid_script_ends_the_process():
    script = "(check-sat)\n(exit)\n(check-sat)\n"
    for command in (fixtures.REFSOLVER_CMD, _console_script_command()):
        completed = subprocess.run(command, input=script.encode(),
                                   capture_output=True, timeout=60)
        assert (completed.returncode, completed.stdout, completed.stderr) == (
            0, b"sat\n", b"")


def test_an_uncaught_exception_exits_1_with_its_traceback():
    command = [sys.executable, "-c", "import capplan.refsolver as solver\n"
               "solver.main = lambda: 1 / 0\nsolver.run()"]
    completed = subprocess.run(command, capture_output=True, timeout=60)
    assert completed.returncode == 1
    assert completed.stderr.decode().startswith("Traceback")
    assert "ZeroDivisionError" in completed.stderr.decode()
