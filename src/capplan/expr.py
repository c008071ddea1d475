"""Expression ASTs for requirements, assurances and capability constraints.

Expressions are a small prefix-form language over constants, property
references and a fixed operator set.  All numeric arithmetic is exact:
constants are Fractions, never floats, so evaluation agrees with SMT real
semantics at equality tests.

OPERATOR_TABLE states each operator once: the kind of its arguments and
of its result, its arity and the symbol it prints as.  Parsing checks
arity and typing against it, and both renderers (SMT-LIB in smtlib,
explanations in planner) print its symbols.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .errors import (
    ArityError,
    DivisionByZero,
    ExpressionTypeError,
    MissingValue,
    SchemaError,
    UnknownOperator,
)

Value = Union[bool, Fraction]


class Operator(NamedTuple):
    argument: str  # the kind of every argument, "real" or "bool"
    result: str
    low: int  # minimum arity
    high: Optional[int]  # maximum arity, None for unbounded
    symbol: str


#: Every operator, with the symbol it prints as in SMT-LIB and in
#: explanations.  SMT-LIB has no neq: it prints as (not (= …)) there.
OPERATOR_TABLE = {
    "plus": Operator("real", "real", 2, None, "+"),
    "minus": Operator("real", "real", 2, 2, "-"),
    "times": Operator("real", "real", 2, None, "*"),
    "divide": Operator("real", "real", 2, 2, "/"),
    "eq": Operator("real", "bool", 2, 2, "="),
    "neq": Operator("real", "bool", 2, 2, "!="),
    "lt": Operator("real", "bool", 2, 2, "<"),
    "gt": Operator("real", "bool", 2, 2, ">"),
    "leq": Operator("real", "bool", 2, 2, "<="),
    "geq": Operator("real", "bool", 2, 2, ">="),
    "and": Operator("bool", "bool", 2, None, "and"),
    "or": Operator("bool", "bool", 2, None, "or"),
    "not": Operator("bool", "bool", 1, 1, "not"),
    "implies": Operator("bool", "bool", 2, 2, "=>"),
}

#: Operators accepted in input documents; only the encoder builds implies.
OPERATORS = tuple(op for op in OPERATOR_TABLE if op != "implies")

SYMBOLS = {op: row.symbol for op, row in OPERATOR_TABLE.items()}


@dataclass(frozen=True, slots=True)
class Const:
    value: Value


@dataclass(frozen=True, slots=True)
class Ref:
    property_id: str


@dataclass(frozen=True, slots=True)
class Apply:
    op: str
    args: tuple["Expression", ...]


Expression = Union[Const, Ref, Apply]


def parse_number(text) -> Fraction:
    """Parse a number written as an int, a decimal string or a p/q string."""
    if isinstance(text, bool):
        raise SchemaError("expected a number, got a boolean")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        # Accept floats for convenience; go through the shortest decimal
        # representation so 0.1 means 1/10, not the binary float.
        text = repr(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a number: {text!r}") from exc
    raise SchemaError(f"not a number: {text!r}")


def number_to_text(value: Fraction) -> str:
    """Render exactly: decimal when the expansion is finite, else p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    scaled = value * 10**digits
    text = str(abs(scaled.numerator)).rjust(digits + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def value_to_text(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return number_to_text(value)


def parse_expression(document) -> Expression:
    """Parse an expression document into a well-typed boolean AST.

    The document uses prefix/apply form: ``{"const": ...}``,
    ``{"ref": "<property-id>"}`` or ``{"apply": "<op>", "args": [...]}``.
    Numbers are written as decimal strings to preserve exactness.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    expr = _parse_node(document)
    _check_types(expr, "bool", {})
    return expr


def _parse_node(document) -> Expression:
    if not isinstance(document, dict):
        raise SchemaError(f"expression node must be an object, got {document!r}")
    if "const" in document:
        raw = document["const"]
        value = raw if isinstance(raw, bool) else parse_number(raw)
        return Const(value)
    if "ref" in document:
        if not isinstance(document["ref"], str) or not document["ref"]:
            raise SchemaError("ref must be a non-empty property id")
        return Ref(document["ref"])
    if "apply" in document:
        op = document["apply"]
        if op not in OPERATORS:
            raise UnknownOperator(f"unknown operator {op!r}")
        args = document.get("args")
        if not isinstance(args, list):
            raise SchemaError(f"apply({op}) needs an args list")
        node = Apply(op, tuple(_parse_node(a) for a in args))
        _check_arity(node)
        return node
    raise SchemaError(f"expression node needs const/ref/apply: {document!r}")


def _check_arity(node: Apply) -> None:
    row = OPERATOR_TABLE[node.op]
    n = len(node.args)
    if n < row.low or (row.high is not None and n > row.high):
        raise ArityError(f"{node.op} applied to {n} argument(s)")


def _check_types(expr: Expression, expected: str, ref_types: dict) -> None:
    """Infer ref types top-down: every argument of an operator has the
    argument kind its table row gives."""
    if isinstance(expr, Const):
        kind = "bool" if isinstance(expr.value, bool) else "real"
        if kind != expected:
            raise ExpressionTypeError(f"constant {expr.value!r} used as {expected}")
    elif isinstance(expr, Ref):
        seen = ref_types.get(expr.property_id)
        if seen is not None and seen != expected:
            raise ExpressionTypeError(
                f"property {expr.property_id} used both as {seen} and {expected}"
            )
        ref_types[expr.property_id] = expected
    else:
        row = OPERATOR_TABLE.get(expr.op)
        if row is None:
            raise UnknownOperator(f"unknown operator {expr.op!r}")
        if row.result != expected:
            raise ExpressionTypeError(
                f"{expr.op} produces a {row.result}, {expected} expected")
        for arg in expr.args:
            _check_types(arg, row.argument, ref_types)


def infer_ref_types(expr: Expression) -> dict:
    """Map every referenced property id to 'bool' or 'real' as used here."""
    types: dict = {}
    _check_types(expr, "bool", types)
    return types


def references(expr: Expression) -> frozenset:
    """Exactly the property ids occurring in expr."""
    if isinstance(expr, Ref):
        return frozenset((expr.property_id,))
    if isinstance(expr, Apply):
        out: set = set()
        for arg in expr.args:
            out |= references(arg)
        return frozenset(out)
    return frozenset()


def is_linear(expr: Expression) -> bool:
    """True iff no product multiplies two variable terms and no division has
    a variable divisor."""
    if isinstance(expr, Apply):
        if expr.op == "times":
            if sum(1 for a in expr.args if references(a)) > 1:
                return False
        if expr.op == "divide" and references(expr.args[1]):
            return False
        return all(is_linear(a) for a in expr.args)
    return True


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise ExpressionTypeError("boolean where a number was expected")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    raise ExpressionTypeError(f"not a numeric value: {value!r}")


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    raise ExpressionTypeError(f"not a boolean value: {value!r}")


def evaluate(expr: Expression, valuation: Mapping[str, Value]) -> Value:
    """Standard semantics over exact rationals and booleans.

    The valuation must cover references(expr); division by zero raises.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        if expr.property_id not in valuation:
            raise MissingValue(f"no value for property {expr.property_id}")
        value = valuation[expr.property_id]
        return value if isinstance(value, bool) else _as_fraction(value)

    op = expr.op
    if op in ("and", "or", "not", "implies"):
        args = [_as_bool(evaluate(a, valuation)) for a in expr.args]
        if op == "and":
            return all(args)
        if op == "or":
            return any(args)
        if op == "not":
            return not args[0]
        return (not args[0]) or args[1]
    if op in ("eq", "neq"):
        left = evaluate(expr.args[0], valuation)
        right = evaluate(expr.args[1], valuation)
        if isinstance(left, bool) != isinstance(right, bool):
            raise ExpressionTypeError(f"{op} compares a boolean with a number")
        return (left == right) if op == "eq" else (left != right)
    if op in ("lt", "gt", "leq", "geq"):
        left = _as_fraction(evaluate(expr.args[0], valuation))
        right = _as_fraction(evaluate(expr.args[1], valuation))
        return {
            "lt": left < right,
            "gt": left > right,
            "leq": left <= right,
            "geq": left >= right,
        }[op]

    args = [_as_fraction(evaluate(a, valuation)) for a in expr.args]
    if op == "plus":
        return sum(args, Fraction(0))
    if op == "minus":
        return args[0] - args[1]
    if op == "times":
        out = Fraction(1)
        for a in args:
            out *= a
        return out
    if op == "divide":
        if args[1] == 0:
            raise DivisionByZero("division by zero")
        return args[0] / args[1]
    raise UnknownOperator(f"unknown operator {op!r}")


# Builders used by the encoder and test fixtures; they flatten degenerate
# n-ary applications so internal terms always satisfy the arity rules.

def const(value) -> Const:
    if isinstance(value, bool):
        return Const(value)
    return Const(_as_fraction(value))


def ref(property_id: str) -> Ref:
    return Ref(property_id)


def apply_op(op: str, *args: Expression) -> Apply:
    node = Apply(op, tuple(args))
    _check_arity(node)
    return node


def conj(terms: Iterable[Expression]) -> Expression:
    terms = list(terms)
    if not terms:
        return Const(True)
    if len(terms) == 1:
        return terms[0]
    return Apply("and", tuple(terms))


def disj(terms: Iterable[Expression]) -> Expression:
    terms = list(terms)
    if not terms:
        return Const(False)
    if len(terms) == 1:
        return terms[0]
    return Apply("or", tuple(terms))


def implies(antecedent: Expression, consequent: Expression) -> Expression:
    return Apply("implies", (antecedent, consequent))


def negate(term: Expression) -> Expression:
    return Apply("not", (term,))
