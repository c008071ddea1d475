import io
import subprocess
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from fm_reference import satisfied
from capplan.refsolver import EQ, LE, LT, NE, Lin, RefSolver, SexpReader, feasible


def run_script(text: str) -> str:
    completed = subprocess.run(
        fixtures.REFSOLVER_CMD, input=text.encode(), capture_output=True, timeout=60
    )
    return completed.stdout.decode()


def run_inprocess(text: str) -> str:
    out = io.StringIO()
    solver = RefSolver(out)
    reader = SexpReader(io.StringIO(text))
    while True:
        sexp = reader.read()
        if sexp is None or not solver.execute(sexp):
            break
    return out.getvalue()


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
    outcome = parse_answer(run_inprocess(emit(encoding)), expect_core=True)
    assert outcome.is_sat
    found = extract_plan(encoding, outcome.valuation)
    assert [h.applied for h in found.happenings] == [(f"move{i}",) for i in range(10)]
    assert simulate(model, index, found).ok


def test_all_statistics_describe_the_last_check_sat():
    from capplan.encoder import build
    from capplan.smtlib import emit, parse_sexprs
    from capplan.synonymy import build_index

    model = _station_chain(4)
    script = emit(build(model, build_index(model), 2), produce_cores=False)
    script = script.replace("(get-model)", "")
    out = run_inprocess(script + "(get-info :all-statistics)(get-info :version)")
    status, stats, version = parse_sexprs(out)
    assert status == "unsat"
    assert stats[0::2] == [":decisions", ":conflicts", ":learned-clauses",
                           ":theory-checks", ":theory-conflicts", ":pivots"]
    assert all(int(count) > 0 for count in stats[1::2]), stats
    assert version == "unsupported"
    # A check-sat decided while translating reports zero counts.
    out = run_inprocess("(assert false)(check-sat)(get-info :all-statistics)")
    assert parse_sexprs(out)[1][1::2] == ["0"] * 6
