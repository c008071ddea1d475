"""The reference solver's CDCL search on its own: random Boolean scripts
checked against enumeration of every assignment, and the decision rule
pinned against a linear scan."""

import random

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


def _script(clauses):
    lines = [f"(declare-const p{i} Bool)" for i in range(BOOLS)]
    for n, clause in enumerate(clauses):
        lits = " ".join(f"p{v}" if positive else f"(not p{v})" for v, positive in clause)
        lines.append(f"(assert (! (or {lits}) :named c{n}))")
    return "\n".join(lines + ["(check-sat)"]) + "\n"


def _models(clauses):
    """The set of satisfying assignments, as a bitset over all 2^12."""
    models = EVERY
    for clause in clauses:
        holds = 0
        for var, positive in clause:
            holds |= TRUE_IN[var] if positive else EVERY ^ TRUE_IN[var]
        models &= holds
    return models


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
        clauses = _random_clauses(rng)
        text = _script(clauses)
        solver = _run(text)
        expected = "sat" if _models(clauses) else "unsat"
        assert solver.last_status == expected, text
        verdicts[expected] += 1
        learned += solver.last_stats["learned-clauses"]
        if expected == "sat":
            model = solver.last_model
            for clause in clauses:
                assert any(model[f"p{v}"] == positive for v, positive in clause), text
        else:
            core = [clauses[int(name[1:])] for name in solver.last_core]
            assert _models(core) == 0, (text, solver.last_core)
    assert min(verdicts.values()) >= 60, verdicts
    # Learned clauses, and backjumps over more than one level.
    assert learned >= 200
    assert sum(jump > 1 for jump in jumps) >= 20


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
