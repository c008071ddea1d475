"""The reference solver's simplex theory against an independent decider.

fm_reference decides the same conjunctions by Fourier-Motzkin
elimination.  Sat answers must come with a model satisfying every
constraint; unsat answers must name a subset of what was asserted that is
unsat on its own.
"""

import io
import random
from fractions import Fraction

from fm_reference import fm_feasible, satisfied

from capplan.refsolver import EQ, LE, LT, NE, Lin, RefSolver, SexpReader, Simplex, feasible

VARS = ("x", "y", "z")


def _random_term(rng):
    coeffs = {v: Fraction(rng.randint(-3, 3)) for v in rng.sample(VARS, rng.randint(1, 3))}
    if not any(coeffs.values()):
        coeffs[rng.choice(VARS)] = Fraction(1)
    return Lin(coeffs, Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2))))


def _random_conjunction(rng):
    """Constraints over three variables; some pairs are strict windows
    `lo < form < hi` that are narrow, a single point or empty."""
    terms = []
    for _ in range(rng.randint(1, 7)):
        if rng.random() < 0.25:
            form = _random_term(rng)
            width = Fraction(rng.randint(-1, 2), 2)
            terms.append((LT, -form))  # form > 0
            terms.append((LT, form - Lin({}, width)))  # form < width
        else:
            terms.append((rng.choice((EQ, LE, LT, NE)), _random_term(rng)))
    return [(op, term, frozenset((i,))) for i, (op, term) in enumerate(terms)]


def _check_against_reference(constraints, result):
    """The answer agrees with the reference and carries its evidence."""
    expected = fm_feasible(constraints)
    assert result[0] == expected[0], constraints
    if result[0] == "sat":
        for op, term, _ in constraints:
            assert satisfied(op, term, result[1]), (constraints, result[1])
        return
    asserted = frozenset().union(*(origins for _, _, origins in constraints))
    assert result[1] <= asserted
    subset = [c for c in constraints if c[2] <= result[1]]
    assert fm_feasible(subset)[0] == "unsat", (constraints, result[1])


def test_simplex_agrees_with_fourier_motzkin_on_random_conjunctions():
    rng = random.Random(20261018)
    seen = {"sat": 0, "unsat": 0}
    for _ in range(600):
        constraints = _random_conjunction(rng)
        result = feasible(constraints)
        _check_against_reference(constraints, result)
        seen[result[0]] += 1
    assert seen["sat"] >= 150 and seen["unsat"] >= 150, seen


def _literal_constraint(atoms, lit):
    """`lit` over registered atoms as a constraint with origin {lit}."""
    op, term = atoms[abs(lit)]
    if lit < 0:
        op, term = {EQ: (NE, term), LE: (LT, -term), LT: (LE, -term)}[op]
    return (op, term, frozenset((lit,)))


def test_assert_backjump_reassert_matches_from_scratch():
    """One live simplex driven like a search: literals asserted level by
    level, checks in between, backjumps to earlier levels and fresh
    assertions after them.  Every answer matches a from-scratch decision
    of exactly the literals still asserted."""
    rng = random.Random(7)
    seen = {"sat": 0, "unsat": 0}
    for _ in range(150):
        atoms = {a: (rng.choice((EQ, LE, LT)), _random_term(rng)) for a in range(1, 9)}
        simplex = Simplex()
        for atom, (op, term) in atoms.items():
            simplex.add_atom(atom, op, term)
        levels = []  # (undo-log length, literals asserted) at each level
        asserted = []
        for _ in range(30):
            step = rng.random()
            if step < 0.45:
                free = [a for a in atoms if a not in {abs(l) for l in asserted}]
                if free:
                    levels.append((len(simplex.undo), len(asserted)))
                    lit = rng.choice(free) * rng.choice((1, -1))
                    simplex.assert_lit(lit)
                    asserted.append(lit)
            elif step < 0.7 and levels:
                level = rng.randrange(len(levels))
                mark, count = levels[level]
                del levels[level:]
                simplex.undo_to(mark)
                del asserted[count:]
            else:
                constraints = [_literal_constraint(atoms, lit) for lit in asserted]
                complete = rng.random() < 0.5
                status, detail = feasible(simplex, complete=complete)
                seen[status] += 1
                if status == "unsat":
                    conflict = frozenset(detail)
                    assert conflict <= set(asserted)
                    subset = [c for c in constraints if c[2] <= conflict]
                    assert fm_feasible(subset)[0] == "unsat"
                elif complete:
                    _check_against_reference(constraints, (status, detail))
                else:
                    # A partial check ignores disequalities only.
                    bounds = [c for c in constraints if c[0] != NE]
                    assert fm_feasible(bounds)[0] == "sat"
    assert seen["sat"] >= 300 and seen["unsat"] >= 100, seen


def _run(solver, text):
    reader = SexpReader(io.StringIO(text))
    while True:
        sexp = reader.read()
        if sexp is None or not solver.execute(sexp):
            return


def _random_atom(rng):
    left = rng.choice(VARS)
    right = rng.choice((f"{rng.randint(-3, 3)}.0", f"(+ {rng.choice(VARS)} 1.0)"))
    return f"({rng.choice(('=', '<', '<=', '>', '>='))} {left} {right})"


def test_push_pop_with_several_check_sats_matches_fresh_solvers():
    rng = random.Random(11)
    declarations = "".join(f"(declare-const {v} Real)" for v in VARS)
    seen = {"sat": 0, "unsat": 0}
    for _ in range(25):
        out = io.StringIO()
        solver = RefSolver(out)
        _run(solver, declarations)
        frames = [[]]
        for _ in range(12):
            step = rng.random()
            if step < 0.2:
                _run(solver, "(push 1)")
                frames.append([])
            elif step < 0.35 and len(frames) > 1:
                _run(solver, "(pop 1)")
                frames.pop()
            elif step < 0.75:
                atom = _random_atom(rng)
                body = atom if rng.random() < 0.7 else f"(or (not {atom}) {_random_atom(rng)})"
                _run(solver, f"(assert {body})")
                frames[-1].append(body)
            else:
                before = len(out.getvalue())
                _run(solver, "(check-sat)")
                answer = out.getvalue()[before:].strip()
                fresh_out = io.StringIO()
                script = declarations + "".join(
                    f"(assert {body})" for frame in frames for body in frame
                )
                _run(RefSolver(fresh_out), script + "(check-sat)")
                assert answer == fresh_out.getvalue().strip(), script
                seen[answer] += 1
    assert seen["sat"] >= 10 and seen["unsat"] >= 10, seen
