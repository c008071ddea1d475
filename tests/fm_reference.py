"""An independent decider for conjunctions of linear constraints, kept as
the reference the reference solver's simplex is tested against.

Gaussian elimination of equalities, then Fourier-Motzkin elimination of
the inequalities, with disequalities decided by splitting into `<` and
`>`.  Exponential, but short and obviously exact; every conflict it
reports is the union of the origins the eliminations combined.
"""

from fractions import Fraction

from capplan.refsolver import EQ, LE, LT, NE, Lin


def _resolve(term: Lin, origins: frozenset, subst: dict):
    """Substitute eliminated variables until none remain."""
    changed = True
    while changed:
        changed = False
        for var in list(term.coeffs):
            if var in subst:
                expr, expr_origins = subst[var]
                coeff = term.coeffs.pop(var)
                term = term + expr.scale(coeff)
                origins = origins | expr_origins
                changed = True
                break
    return term, origins


def _check_const(op: str, const: Fraction) -> bool:
    if op == EQ:
        return const == 0
    if op == LE:
        return const <= 0
    return const < 0


def fm_feasible(constraints):
    """Decide a conjunction of linear constraints (term op 0).

    constraints: list of (op, Lin, origins frozenset).
    Returns ("sat", model) or ("unsat", conflict_origins).
    """
    eqs = [c for c in constraints if c[0] == EQ]
    ineqs = [c for c in constraints if c[0] in (LE, LT)]
    nes = [c for c in constraints if c[0] == NE]
    return _feasible_split(eqs, ineqs, nes)


def _feasible_split(eqs, ineqs, nes):
    res = _feasible_base(eqs, ineqs)
    if res[0] == "unsat":
        return res
    model = res[1]
    violated = None
    for i, (_, term, origins) in enumerate(nes):
        if term.evaluate(model) == 0:
            violated = i
            break
    if violated is None:
        return res
    _, term, origins = nes[violated]
    rest = nes[:violated] + nes[violated + 1 :]
    below = _feasible_split(eqs, ineqs + [(LT, term, origins)], rest)
    if below[0] == "sat":
        return below
    above = _feasible_split(eqs, ineqs + [(LT, -term, origins)], rest)
    if above[0] == "sat":
        return above
    return ("unsat", below[1] | above[1])


def _feasible_base(eqs, ineqs):
    subst: dict = {}
    sub_order: list = []
    for _, term, origins in eqs:
        term, origins = _resolve(Lin(term.coeffs, term.const), origins, subst)
        if not term.coeffs:
            if term.const != 0:
                return ("unsat", origins)
            continue
        var = min(term.coeffs)
        coeff = term.coeffs[var]
        rest = Lin({v: c for v, c in term.coeffs.items() if v != var}, term.const)
        subst[var] = (rest.scale(Fraction(-1, 1) / coeff), origins)
        sub_order.append(var)

    rows = []
    for op, term, origins in ineqs:
        term, origins = _resolve(Lin(term.coeffs, term.const), origins, subst)
        if not term.coeffs:
            if not _check_const(op, term.const):
                return ("unsat", origins)
            continue
        rows.append((op, term, origins))

    all_vars = sorted({v for _, t, _ in rows for v in t.coeffs})
    eliminated = []
    for var in all_vars:
        lows, ups, rest = [], [], []
        for op, term, origins in rows:
            coeff = term.coeffs.get(var, Fraction(0))
            if coeff == 0:
                rest.append((op, term, origins))
                continue
            bound = Lin(
                {v: c for v, c in term.coeffs.items() if v != var}, term.const
            ).scale(Fraction(-1, 1) / coeff)
            # coeff > 0: var <= bound; coeff < 0: var >= bound
            (ups if coeff > 0 else lows).append((op, bound, origins))
        new_rows = rest
        for lop, low, lorigins in lows:
            for uop, up, uorigins in ups:
                strict = lop == LT or uop == LT
                term = low - up
                origins = lorigins | uorigins
                if not term.coeffs:
                    if not _check_const(LT if strict else LE, term.const):
                        return ("unsat", origins)
                else:
                    new_rows.append((LT if strict else LE, term, origins))
        eliminated.append((var, lows, ups))
        rows = new_rows

    model: dict = {}
    for var, lows, ups in reversed(eliminated):
        low = None
        low_strict = False
        for op, bound, _ in lows:
            value = bound.evaluate(model)
            if low is None or value > low or (value == low and op == LT):
                low, low_strict = value, op == LT
        high = None
        high_strict = False
        for op, bound, _ in ups:
            value = bound.evaluate(model)
            if high is None or value < high or (value == high and op == LT):
                high, high_strict = value, op == LT
        if low is None and high is None:
            model[var] = Fraction(0)
        elif low is None:
            model[var] = high - 1 if high_strict else high
        elif high is None:
            model[var] = low + 1 if low_strict else low
        elif low == high:
            model[var] = low
        else:
            model[var] = (low + high) / 2
    for var in reversed(sub_order):
        expr, _ = subst[var]
        model[var] = expr.evaluate(model)
    return ("sat", model)


def satisfied(op, term: Lin, model) -> bool:
    """Whether `term op 0` holds under the model."""
    value = term.evaluate(model)
    if op == EQ:
        return value == 0
    if op == LE:
        return value <= 0
    if op == LT:
        return value < 0
    return value != 0
