"""The reference solver's CDCL search on its own: random Boolean scripts,
of clauses and of nested formulas, checked against enumeration of every
assignment, and the decision rule pinned against a linear scan."""

import random
from functools import reduce
from operator import and_, or_

from capplan import refsolver
from test_refsolver_stress import _run

BOOLS = 12
EVERY = (1 << (1 << BOOLS)) - 1
# TRUE_IN[i]: bit a is set when assignment a (variable j true iff bit j of
# a is set) makes p<i> true.
TRUE_IN = [sum(1 << a for a in range(1 << BOOLS) if a >> i & 1) for i in range(BOOLS)]


def _random_clauses(rng):
    """40-70 clauses of 1-4 literals (var, positive), with repeated
    literals, tautologies and, in some scripts, contradictory units."""
    clauses = []
    for _ in range(rng.randint(40, 70)):
        size = rng.choices((1, 2, 3, 4), weights=(1, 4, 28, 20))[0]
        clause = [(rng.randrange(BOOLS), rng.random() < 0.5) for _ in range(size)]
        roll = rng.random()
        if roll < 0.1:
            clause.append(rng.choice(clause))
        elif roll < 0.15:
            var, positive = rng.choice(clause)
            clause.append((var, not positive))
        rng.shuffle(clause)
        clauses.append(clause)
    if rng.random() < 0.1:
        var = rng.randrange(BOOLS)
        clauses.insert(rng.randrange(len(clauses)), [(var, True)])
        clauses.insert(rng.randrange(len(clauses)), [(var, False)])
    return clauses


def _clause_formula(clause):
    return ("or", [("p", v) if positive else ("not", [("p", v)]) for v, positive in clause])


def _random_formula(rng, depth):
    """A formula over p0..p11 with nested and, or, =>, Boolean = and ite."""
    if depth == 0 or rng.random() < 0.25:
        leaf = ("p", rng.randrange(BOOLS))
        return ("not", [leaf]) if rng.random() < 0.5 else leaf
    op = rng.choice(["and", "or", "or", "=>", "=", "ite", "not"])
    arity = {"=": 2, "ite": 3, "not": 1}.get(op, rng.randint(2, 3))
    return (op, [_random_formula(rng, depth - 1) for _ in range(arity)])


def _random_roots(rng):
    """5-16 roots: formulas, some of them clauses, some tautologies
    `(or f (not f))`, and in some scripts a formula and its negation."""
    roots = []
    for _ in range(rng.randint(5, 16)):
        roll = rng.random()
        if roll < 0.2:
            roots.append(_clause_formula(
                [(rng.randrange(BOOLS), rng.random() < 0.5) for _ in range(rng.randint(1, 3))]))
        elif roll < 0.27:
            formula = _random_formula(rng, 2)
            roots.append(("or", [formula, ("not", [formula])]))
        else:
            roots.append(_random_formula(rng, rng.randint(1, 3)))
    if rng.random() < 0.1:
        formula = _random_formula(rng, 2)
        roots.insert(rng.randrange(len(roots)), formula)
        roots.insert(rng.randrange(len(roots)), ("not", [formula]))
    return roots


def _render(formula):
    op, args = formula
    if op == "p":
        return f"p{args}"
    return f"({op} {' '.join(map(_render, args))})"


def _holds(formula):
    """The assignments that make the formula true, as a bitset over all
    2^12."""
    op, args = formula
    if op == "p":
        return TRUE_IN[args]
    values = [_holds(arg) for arg in args]
    if op == "not":
        return EVERY ^ values[0]
    if op == "and":
        return reduce(and_, values, EVERY)
    if op == "or":
        return reduce(or_, values, 0)
    if op == "=>":  # right-associative
        return reduce(lambda right, left: (EVERY ^ left) | right, reversed(values))
    if op == "=":
        return EVERY ^ (values[0] ^ values[1])
    condition, then, otherwise = values
    return condition & then | (EVERY ^ condition) & otherwise


def _script(roots):
    lines = [f"(declare-const p{i} Bool)" for i in range(BOOLS)]
    for n, root in enumerate(roots):
        lines.append(f"(assert (! {_render(root)} :named c{n}))")
    return "\n".join(lines + ["(check-sat)"]) + "\n"


def _models(roots):
    """The set of satisfying assignments, as a bitset over all 2^12."""
    return reduce(and_, map(_holds, roots), EVERY)


def _check_answer(roots, solver, text):
    """The verdict agrees with enumeration; a model satisfies every root,
    and a core's roots are unsat on their own.  Returns the verdict."""
    expected = "sat" if _models(roots) else "unsat"
    assert solver.last_status == expected, text
    if expected == "sat":
        model = solver.last_model
        assignment = sum(1 << i for i in range(BOOLS) if model[f"p{i}"])
        for root in roots:
            assert _holds(root) >> assignment & 1, text
    else:
        core = [roots[int(name[1:])] for name in solver.last_core]
        assert _models(core) == 0, (text, solver.last_core)
    return expected


def test_random_boolean_scripts_agree_with_enumeration(monkeypatch):
    jumps = []
    backjump = refsolver.Dpll._backjump

    def recording(self, target_level):
        jumps.append(self.decision_level - target_level)
        backjump(self, target_level)

    monkeypatch.setattr(refsolver.Dpll, "_backjump", recording)
    rng = random.Random(20261018)
    verdicts = {"sat": 0, "unsat": 0}
    learned = 0
    for _ in range(400):
        roots = [_clause_formula(clause) for clause in _random_clauses(rng)]
        text = _script(roots)
        solver = _run(text)
        verdicts[_check_answer(roots, solver, text)] += 1
        learned += solver.last_stats["learned-clauses"]
    assert min(verdicts.values()) >= 60, verdicts
    # Learned clauses, and backjumps over more than one level.
    assert learned >= 200
    assert sum(jump > 1 for jump in jumps) >= 20


def test_random_formula_scripts_agree_with_enumeration():
    rng = random.Random(20261019)
    verdicts = {"sat": 0, "unsat": 0}
    for _ in range(300):
        roots = _random_roots(rng)
        text = _script(roots)
        verdicts[_check_answer(roots, _run(text), text)] += 1
    assert min(verdicts.values()) >= 60, verdicts


def test_heap_picks_what_a_linear_scan_picks(monkeypatch):
    from capplan.encoder import build
    from capplan.smtlib import emit
    from capplan.synonymy import build_index
    from test_refsolver import _station_chain

    picks = []

    class Checked(refsolver.Dpll):
        def _pick(self):
            var = super()._pick()
            free = [v for v in range(1, self.nvars + 1) if self.assign[v] is None]
            # The most active unassigned variable, the smallest on ties.
            expected = max(free, key=lambda v: (self.activity[v], -v), default=None)
            assert var == expected
            picks.append(var)
            return var

    monkeypatch.setattr(refsolver, "Dpll", Checked)
    model = _station_chain(8)
    solver = _run(emit(build(model, build_index(model), 6)))
    assert solver.last_status == "unsat"
    assert solver.last_stats["conflicts"] > 50
    assert len(picks) > 500
