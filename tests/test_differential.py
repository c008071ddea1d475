"""Cross-checks between the two pipelines.

Translation fidelity: an expression holds under a ground valuation exactly
when the rendered solver term is satisfied under the same assignment.
Plan agreement: a hand-built plan passes the oracle exactly when pinning
its choices into the encoding stays satisfiable.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from capplan import expr as ex
from capplan.encoder import Assertion, Encoding, build
from capplan.oracle import simulate
from capplan.planner import Happening, Plan
from capplan.smtlib import SolverConfig, emit, format_value, solve
from capplan.synonymy import build_index

CONFIG = SolverConfig(command=fixtures.REFSOLVER_CMD, timeout_seconds=60.0)

_names = st.sampled_from(["a", "b", "c"])
_nonzero = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])


@st.composite
def _arith(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        if draw(st.booleans()):
            return ex.ref(draw(_names))
        return ex.const(Fraction(draw(st.integers(-4, 4))))
    op = draw(st.sampled_from(["plus", "minus", "times", "divide"]))
    left = draw(_arith(depth + 1))
    if op in ("times", "divide"):
        # Keep the term linear: the reference solver answers `unknown`
        # for products of variables and variable divisors, as does
        # is_linear.
        return ex.Apply(op, (left, ex.const(draw(_nonzero))))
    return ex.Apply(op, (left, draw(_arith(depth + 1))))


@st.composite
def _comparison(draw):
    left = draw(_arith())
    right = draw(_arith())
    op = draw(st.sampled_from(["eq", "neq", "lt", "gt", "leq", "geq"]))
    comparison = ex.Apply(op, (left, right))
    if draw(st.booleans()):
        return ex.negate(comparison)
    return comparison


@st.composite
def _formula(draw):
    op = draw(st.sampled_from([None, "and", "or", "implies"]))
    if op is None:
        return draw(_comparison())
    arity = 2 if op == "implies" else draw(st.integers(2, 3))
    return ex.Apply(op, tuple(draw(_comparison()) for _ in range(arity)))


@settings(max_examples=30, deadline=None)
@given(_formula(), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_translation_fidelity(term, a, b, c):
    valuation = {"a": Fraction(a), "b": Fraction(b), "c": Fraction(c)}
    expected = ex.evaluate(term, valuation)  # every divisor is a nonzero constant
    lines = ["(set-logic QF_LRA)"]
    for name, value in valuation.items():
        lines.append(f"(declare-const {name} Real)")
        lines.append(f"(assert (= {name} {format_value(value)}))")
    from capplan.smtlib import _render_term

    lines.append(f"(assert {_render_term(term)})")
    lines.append("(check-sat)")
    outcome = solve("\n".join(lines) + "\n",
                    SolverConfig(command=fixtures.REFSOLVER_CMD))
    assert outcome.status == ("sat" if expected else "unsat")


def _pin_plan(encoding: Encoding, plan: Plan) -> Encoding:
    """Assert every choice the plan makes as additional constraints."""
    pins = []
    counter = 0
    cap_ids = sorted(
        {k.ident for k in encoding.variables.values() if k.kind == "cap"}
    )
    for t, happening in enumerate(plan.happenings):
        for cap_id in cap_ids:
            var = ex.ref(f"{cap_id}#t{t}")
            term = var if cap_id in happening.applied else ex.negate(var)
            pins.append(Assertion(f"pin.{counter}", term, "pin", cap_id, t))
            counter += 1
        for layer, values in ((0, happening.layer0), (1, happening.layer1)):
            for class_id, value in values.items():
                term = ex.apply_op(
                    "eq", ex.ref(f"{class_id}#t{t}#l{layer}"), ex.const(value)
                )
                pins.append(Assertion(f"pin.{counter}", term, "pin", class_id, t))
                counter += 1
    return Encoding(
        bound=encoding.bound,
        logic=encoding.logic,
        variables=encoding.variables,
        assertions=list(encoding.assertions) + pins,
        classes=encoding.classes,
        unbound_inputs=encoding.unbound_inputs,
    )


def _agreement_case(model, plan):
    index = build_index(model)
    verdict = simulate(model, index, plan)
    encoding = build(model, index, len(plan.happenings) - 1)
    outcome = solve(emit(_pin_plan(encoding, plan)), CONFIG)
    assert outcome.status in ("sat", "unsat")
    assert verdict.ok == outcome.is_sat, (verdict, outcome.status)


def _happening(applied, layer0, layer1):
    return Happening(applied=tuple(applied), layer0=dict(layer0), layer1=dict(layer1))


def _plan(happenings):
    return Plan(happenings=tuple(happenings), bound_happenings=len(happenings),
                classes={}, parameters={})


POS, TGT, AGV = "CurrentProductPosition", "TargetPosition", "AGVPosition"
F = Fraction


def test_simulate_agrees_with_solver_on_hand_built_plans():
    model = fixtures.transport_model()
    good = _plan([
        _happening(["Transport"],
                   {POS: F(5), TGT: F(10), AGV: F(5)},
                   {POS: F(10), TGT: F(10), AGV: F(5)}),
    ])
    _agreement_case(model, good)
    broken_frame = _plan([
        _happening([],
                   {POS: F(5), TGT: F(10), AGV: F(5)},
                   {POS: F(10), TGT: F(10), AGV: F(5)}),
    ])
    _agreement_case(model, broken_frame)
    wrong_goal = _plan([
        _happening(["Transport"],
                   {POS: F(5), TGT: F(7), AGV: F(5)},
                   {POS: F(7), TGT: F(7), AGV: F(5)}),
    ])
    _agreement_case(model, wrong_goal)


def test_simulate_agrees_with_solver_on_chained_plans():
    model = fixtures.drive_transport_model(product_at=3, agv_at=5, goal=10)
    drive_then_transport = _plan([
        _happening(["DriveTo"],
                   {POS: F(3), TGT: F(10), AGV: F(5), "DriveTarget": F(3)},
                   {POS: F(3), TGT: F(10), AGV: F(3), "DriveTarget": F(3)}),
        _happening(["Transport"],
                   {POS: F(3), TGT: F(10), AGV: F(3), "DriveTarget": F(3)},
                   {POS: F(10), TGT: F(10), AGV: F(3), "DriveTarget": F(3)}),
    ])
    _agreement_case(model, drive_then_transport)
    both_at_once = _plan([
        _happening(["DriveTo", "Transport"],
                   {POS: F(3), TGT: F(10), AGV: F(5), "DriveTarget": F(3)},
                   {POS: F(10), TGT: F(10), AGV: F(3), "DriveTarget": F(3)}),
        _happening([],
                   {POS: F(10), TGT: F(10), AGV: F(3), "DriveTarget": F(3)},
                   {POS: F(10), TGT: F(10), AGV: F(3), "DriveTarget": F(3)}),
    ])
    _agreement_case(model, both_at_once)  # mutex: both sides reject


def test_simulate_agrees_with_solver_on_oracle_plans():
    from capplan.oracle import brute_force_plan

    for builder in (
        fixtures.transport_model,
        lambda: fixtures.drive_transport_model(product_at=3),
        fixtures.satisfied_goal_model,
    ):
        model = builder()
        index = build_index(model)
        plan = brute_force_plan(model, index, 3)
        assert plan is not None
        _agreement_case(model, plan)
