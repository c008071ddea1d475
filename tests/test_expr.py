from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capplan import expr as ex
from capplan.errors import (
    ArityError,
    DivisionByZero,
    ExpressionTypeError,
    MissingValue,
    UnknownOperator,
)


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
