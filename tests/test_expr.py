from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capplan import expr as ex
from capplan import planner, smtlib
from capplan.encoder import VariableKey
from capplan.errors import (
    ArityError,
    DivisionByZero,
    ExpressionTypeError,
    MissingValue,
    SolverProtocolError,
    UnknownOperator,
)
from capplan.model import Datatype


def test_parse_relational():
    doc = {"apply": "eq", "args": [{"ref": "TargetPosition"},
                                   {"ref": "ProductPositionAfter"}]}
    parsed = ex.parse_expression(doc)
    assert parsed == ex.Apply(
        "eq", (ex.Ref("TargetPosition"), ex.Ref("ProductPositionAfter"))
    )
    assert ex.references(parsed) == {"TargetPosition", "ProductPositionAfter"}


def test_parse_singleton_and_is_arity_error():
    with pytest.raises(ArityError):
        ex.parse_expression({"apply": "and", "args": [{"const": True}]})


def test_parse_nested():
    doc = {
        "apply": "leq",
        "args": [
            {"apply": "plus", "args": [{"ref": "a"}, {"const": "2.0"}]},
            {"ref": "b"},
        ],
    }
    parsed = ex.parse_expression(doc)
    assert ex.references(parsed) == {"a", "b"}


def test_parse_unknown_operator():
    with pytest.raises(UnknownOperator):
        ex.parse_expression({"apply": "modulo", "args": [{"ref": "a"}, {"ref": "b"}]})


def test_parse_rejects_bool_in_arithmetic():
    with pytest.raises(ExpressionTypeError):
        ex.parse_expression(
            {"apply": "lt", "args": [{"const": True}, {"ref": "a"}]}
        )


def test_parse_rejects_conflicting_ref_types():
    doc = {
        "apply": "and",
        "args": [
            {"ref": "x"},
            {"apply": "lt", "args": [{"ref": "x"}, {"const": "1"}]},
        ],
    }
    with pytest.raises(ExpressionTypeError):
        ex.parse_expression(doc)


def test_references_of_constant_is_empty():
    assert ex.references(ex.Const(True)) == frozenset()


def test_evaluate_equality_reflexive():
    term = ex.apply_op("eq", ex.ref("x"), ex.ref("y"))
    assert ex.evaluate(term, {"x": Fraction(5), "y": Fraction(5)}) is True


def test_evaluate_leq_with_sum():
    # 1 + 2 <= 3
    term = ex.apply_op(
        "leq", ex.apply_op("plus", ex.ref("a"), ex.const(2)), ex.ref("b")
    )
    assert ex.evaluate(term, {"a": 1, "b": 3}) is True
    assert ex.evaluate(term, {"a": 2, "b": 3}) is False


def test_evaluate_division_by_zero():
    term = ex.apply_op("eq", ex.apply_op("divide", ex.ref("a"), ex.ref("b")),
                       ex.const(1))
    with pytest.raises(DivisionByZero):
        ex.evaluate(term, {"a": 1, "b": 0})


def test_evaluate_missing_value():
    with pytest.raises(MissingValue):
        ex.evaluate(ex.apply_op("eq", ex.ref("a"), ex.const(1)), {})


def test_is_linear():
    x, y, z = ex.ref("x"), ex.ref("y"), ex.ref("z")
    assert ex.is_linear(ex.apply_op("eq", x, y)) is True
    assert ex.is_linear(ex.apply_op("eq", ex.apply_op("times", x, y), z)) is False
    assert ex.is_linear(ex.apply_op("eq", ex.apply_op("times", ex.const(2), x), z))
    assert ex.is_linear(
        ex.apply_op("eq", ex.apply_op("divide", x, ex.const(2)), z)
    ) is True
    assert ex.is_linear(
        ex.apply_op("eq", ex.apply_op("divide", ex.const(2), x), z)
    ) is False


@pytest.mark.parametrize(
    "fraction,text",
    [
        (Fraction(5), "5"),
        (Fraction(7, 2), "3.5"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-1, 8), "-0.125"),
        (Fraction(0), "0"),
    ],
)
def test_number_rendering(fraction, text):
    assert ex.number_to_text(fraction) == text
    assert ex.parse_number(text) == fraction


_names = st.sampled_from(["a", "b", "c"])


@st.composite
def _arith(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        if draw(st.booleans()):
            return ex.ref(draw(_names))
        return ex.const(Fraction(draw(st.integers(-4, 4))))
    op = draw(st.sampled_from(["plus", "minus", "times"]))
    return ex.Apply(op, (draw(_arith(depth + 1)), draw(_arith(depth + 1))))


@st.composite
def _comparison(draw):
    op = draw(st.sampled_from(["eq", "neq", "lt", "gt", "leq", "geq"]))
    return ex.Apply(op, (draw(_arith()), draw(_arith())))


@given(_comparison(), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-100, 100))
def test_evaluate_depends_only_on_references(term, a, b, c, noise):
    base = {"a": Fraction(a), "b": Fraction(b), "c": Fraction(c)}
    valuation = {k: v for k, v in base.items() if k in ex.references(term)}
    valuation_noisy = dict(valuation)
    for name in ("a", "b", "c"):
        if name not in valuation_noisy:
            valuation_noisy[name] = Fraction(noise)
    assert ex.evaluate(term, base) == ex.evaluate(term, {**base})
    if set(valuation) == set(ex.references(term)):
        assert ex.evaluate(term, base) == ex.evaluate(term, valuation_noisy | valuation)


# -- printed symbols and error messages, pinned ------------------------------------

_X, _Y = ex.Ref("x#t0#l1"), ex.Ref("y#t1#l0")
_MOVE, _GRIP = ex.Ref("Move#t0"), ex.Ref("Grip#t1")
_VARIABLES = {
    "x#t0#l1": VariableKey("prop", "x", 0, 1),
    "y#t1#l0": VariableKey("prop", "y", 1, 0),
    "Move#t0": VariableKey("cap", "Move", 0, sort=Datatype.BOOLEAN),
    "Grip#t1": VariableKey("cap", "Grip", 1, sort=Datatype.BOOLEAN),
}

# One small term per operator: its SMT-LIB text and its explanation text.
RENDERINGS = [
    ("plus", (_X, _Y, ex.const(2)),
     "(+ |x#t0#l1| |y#t1#l0| 2.0)", "(x@(0,1) + y@(1,0) + 2)"),
    ("minus", (_X, ex.const(Fraction(-1, 3))),
     "(- |x#t0#l1| (- (/ 1 3)))", "(x@(0,1) - -1/3)"),
    ("times", (ex.const(Fraction(5, 2)), _X),
     "(* (/ 5 2) |x#t0#l1|)", "(2.5 * x@(0,1))"),
    ("divide", (_Y, ex.const(-4)),
     "(/ |y#t1#l0| (- 4.0))", "(y@(1,0) / -4)"),
    ("eq", (_X, _Y), "(= |x#t0#l1| |y#t1#l0|)", "(x@(0,1) = y@(1,0))"),
    ("neq", (_X, ex.const(0)), "(not (= |x#t0#l1| 0.0))", "(x@(0,1) != 0)"),
    ("lt", (_X, _Y), "(< |x#t0#l1| |y#t1#l0|)", "(x@(0,1) < y@(1,0))"),
    ("gt", (_Y, _X), "(> |y#t1#l0| |x#t0#l1|)", "(y@(1,0) > x@(0,1))"),
    ("leq", (_X, ex.const(Fraction(7, 10))),
     "(<= |x#t0#l1| (/ 7 10))", "(x@(0,1) <= 0.7)"),
    ("geq", (_Y, ex.const(Fraction(-3, 2))),
     "(>= |y#t1#l0| (- (/ 3 2)))", "(y@(1,0) >= -1.5)"),
    ("and", (_MOVE, _GRIP, ex.const(True)),
     "(and |Move#t0| |Grip#t1| true)", "(Move@0 and Grip@1 and true)"),
    ("or", (_MOVE, ex.const(False)), "(or |Move#t0| false)", "(Move@0 or false)"),
    ("not", (_GRIP,), "(not |Grip#t1|)", "(not Grip@1)"),
    ("implies", (_MOVE, ex.Apply("lt", (_X, _Y))),
     "(=> |Move#t0| (< |x#t0#l1| |y#t1#l0|))", "(Move@0 => (x@(0,1) < y@(1,0)))"),
]


def test_renderings_cover_every_operator():
    assert {op for op, *_ in RENDERINGS} == set(ex.OPERATORS) | {"implies"}


@pytest.mark.parametrize("op, args, smt, explained", RENDERINGS,
                         ids=[row[0] for row in RENDERINGS])
def test_each_operator_renders_its_symbol(op, args, smt, explained):
    term = ex.apply_op(op, *args)
    assert smtlib._render_term(term) == smt
    assert planner.render_term(term, _VARIABLES) == explained


def test_an_unknown_operator_is_not_rendered():
    term = ex.Apply("xor", (_MOVE, _GRIP))
    with pytest.raises(SolverProtocolError, match=r"^cannot render operator 'xor'$"):
        smtlib._render_term(term)
    with pytest.raises(KeyError):
        planner.render_term(term, _VARIABLES)


def _apply(op, *args):
    return {"apply": op, "args": list(args)}


@pytest.mark.parametrize("document, error, message", [
    (_apply("xor", {"const": True}, {"const": False}),
     UnknownOperator, "unknown operator 'xor'"),
    (_apply("implies", {"const": True}, {"const": False}),
     UnknownOperator, "unknown operator 'implies'"),
    (_apply("not", {"const": True}, {"const": False}),
     ArityError, "not applied to 2 argument(s)"),
    (_apply("minus", {"const": "1"}, {"const": "2"}, {"const": "3"}),
     ArityError, "minus applied to 3 argument(s)"),
    (_apply("plus", {"ref": "a"}, {"ref": "b"}),
     ExpressionTypeError, "plus produces a real, bool expected"),
    (_apply("and", {"ref": "a"}, _apply("lt", {"ref": "a"}, {"const": "1"})),
     ExpressionTypeError, "property a used both as bool and real"),
    (_apply("lt", {"const": True}, {"const": "1"}),
     ExpressionTypeError, "constant True used as real"),
    (_apply("eq", _apply("gt", {"ref": "a"}, {"ref": "b"}), {"const": "1"}),
     ExpressionTypeError, "gt produces a bool, real expected"),
])
def test_parse_errors_name_the_operator(document, error, message):
    with pytest.raises(error) as caught:
        ex.parse_expression(document)
    assert type(caught.value) is error and str(caught.value) == message


def test_apply_op_checks_arity():
    with pytest.raises(ArityError, match=r"^implies applied to 1 argument\(s\)$"):
        ex.apply_op("implies", ex.const(True))
    with pytest.raises(ArityError, match=r"^or applied to 1 argument\(s\)$"):
        ex.apply_op("or", ex.const(True))
    assert ex.apply_op("times", *[ex.ref("a")] * 4).args == (ex.ref("a"),) * 4


def test_typing_rejects_an_operator_outside_the_table():
    with pytest.raises(UnknownOperator, match=r"^unknown operator 'xor'$"):
        ex.infer_ref_types(ex.Apply("xor", (ex.ref("a"), ex.ref("b"))))
