"""A small SMT-LIB2 solver for quantifier-free linear real arithmetic.

Speaks enough of the SMT-LIB2 command language on stdin/stdout to act as a
check-sat backend: declare-const, assert (with :named annotations),
push/pop, check-sat, get-model, get-unsat-core and
`get-info :all-statistics`.  Top-level `(= x y)` assertions between
Real symbols are not translated: a union-find merges their symbols, and
every other assertion is translated with each symbol replaced by its
class's representative.  Boolean structure is decided by a CDCL loop
over a CNF, with MiniSat's data structures: two watched literals per
clause for unit propagation, and a binary heap of variable activities
for decisions.  A root assertion becomes clauses directly, each carrying
the assertion's mask: a root `or` is one clause, a root `and` one set of
clauses per conjunct.  Tseitin gates are made only below the root, for
children that are not literals.  Linear constraints are decided exactly
over the rationals by a backtrackable general simplex that follows the
search: each atom is a bound on a variable or on a slack for its linear
form, asserting a literal tightens a bound, backjumping restores it, and
an infeasible row yields the literals of its bounds as a learned
conflict clause.  Its numbers are ints while they are integral and Fractions only
after an inexact division; no float enters it.  Binary bound axioms
between the atoms of one variable are added to the CNF before the search,
so that crossing bounds are ruled out by propagation.  Disequalities are
split on once the assignment is complete.

Unsat cores come from the search itself: every clause carries the set of
assertions it was derived from, and `get-unsat-core` names the `:named`
assertions that the final level-0 conflict depends on.  A root rewritten
through merged symbols also carries the equalities that prove each of
them equal to its representative.  Such a core is unsat on its own but
not necessarily minimal; clients that want a minimal core shrink it
themselves by deletion.

Scripts are read, and symbols quoted, with `capplan.sexp`, the one
S-expression reader the client also reads answers with; it is the only
other module loaded.  A reading error answers `(error …)` and reading
goes on after it.

Limitations, by design: no uninterpreted functions, no quantifiers, and
nonlinear arithmetic answers `unknown`.

Run as `python -m capplan.refsolver` or through the `capplan-refsolver`
console script; both go through run(), which ends the process as soon
as its answers are flushed.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .sexp import SexpError, SexpReader, format_value, quote, unquote

EQ, LE, LT, NE = "eq", "le", "lt", "ne"
# How many equalities on other values each equality atom excludes in the
# bound axioms; it bounds their count on variables with many atoms.
EQUALITY_WINDOW = 16


class Unsupported(Exception):
    pass


class Nonlinear(Unsupported):
    pass


# -- linear arithmetic --------------------------------------------------------


def _exact(q):
    """q (an int or a Fraction) as an int when it is integral, else as a
    Fraction."""
    return q.numerator if q.denominator == 1 else q


def _div(a, b):
    """a / b exactly, as an int when it divides, else as a Fraction; a
    and b are ints or Fractions, and `/` on two ints would be a float."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _exact(Fraction(a, b))


class Lin:
    """A linear term: sum of coeff*var plus a constant, exact rationals:
    ints while integral, else Fractions.  Zero coefficients are never
    stored."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        self.coeffs = {
            v: _exact(Fraction(c)) for v, c in (coeffs or {}).items() if c != 0
        }
        self.const = _exact(Fraction(const))

    @classmethod
    def _of(cls, coeffs: dict, const):
        """A term from exact, nonzero coefficients, taken as they are."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        out.const = const
        return out

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for var, c in other.coeffs.items():
            new = _exact(coeffs.get(var, 0) + c)
            if new == 0:
                del coeffs[var]
            else:
                coeffs[var] = new
        return Lin._of(coeffs, _exact(self.const + other.const))

    def __neg__(self):
        return Lin._of({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        if factor == 0:
            return Lin()
        return Lin._of({v: _exact(c * factor) for v, c in self.coeffs.items()},
                       _exact(self.const * factor))

    def evaluate(self, model, default=0):
        total = self.const
        for var, c in self.coeffs.items():
            total += c * model.get(var, default)
        return total

    def key(self):
        return (tuple(sorted(self.coeffs.items())), self.const)


def _check_const(op: str, const: Fraction) -> bool:
    if op == EQ:
        return const == 0
    if op == LE:
        return const <= 0
    return const < 0


# Sides of a bound, and the undo-log entries of disequalities and of
# crossing bounds.
LOWER, UPPER, DISEQ, CROSSED = 0, 1, 2, 3
GE, GT = "ge", "gt"
_FLIP = {EQ: EQ, LE: GE, LT: GT}
# What asserting `x op b` true, or false, does to x: (side, k) is the bound
# b + k*delta on that side, (DISEQ, 0) the disequality x != b.
_EFFECTS = {
    EQ: (((LOWER, 0), (UPPER, 0)), ((DISEQ, 0),)),
    LE: (((UPPER, 0),), ((LOWER, 1),)),
    LT: (((UPPER, -1),), ((LOWER, 0),)),
    GE: (((LOWER, 0),), ((UPPER, -1),)),
    GT: (((LOWER, 1),), ((UPPER, 0),)),
}


class Simplex:
    """Backtrackable general simplex over delta-rationals, after Dutertre
    and de Moura, "A Fast Linear-Arithmetic Solver for DPLL(T)" (CAV 2006).

    Each atom is registered once as a bound on one variable: the input
    variable it mentions, or else a slack standing for its linear form
    (forms equal up to a factor share a slack).  Values and bounds are
    pairs (c, k) meaning c + k*delta for an infinitesimal delta > 0; tuple
    order is their order, so strict bounds stay exact.  Numbers are ints
    until an inexact division (`_div`) brings in a Fraction; no float
    enters.  Asserting a literal only tightens bounds and logs what it
    replaced, and undo_to() restores them; the assignment survives
    backtracking because looser bounds never invalidate it.  check()
    repairs the assignment by pivoting under Bland's rule and, when a row
    cannot be repaired, returns the tags of that row's bounds.
    Disequalities are collected and split on only by final_check().
    """

    def __init__(self):
        self.ids: dict = {}  # input variable name or slack form -> id
        self.names: list = []  # id -> input variable name, None for a slack
        self.value: list = []  # id -> (c, k)
        self.bounds = ([], [])  # LOWER, UPPER: id -> ((c, k), tag) or None
        self.rows: dict = {}  # basic id -> {nonbasic id: coefficient}
        self.cols: dict = {}  # nonbasic id -> ids of the rows it occurs in
        self.atoms: dict = {}  # atom -> (id, b, op), meaning `id op b`
        self.diseqs: list = []  # (id, b, tag): asserted `id != b`
        self.undo: list = []  # (kind, id, replaced bound)
        self.crossed = None  # tags of a lower and an upper bound that cross
        self.moves: set = set()  # nonbasic ids outside their bounds
        self.candidates: set = set()  # basic ids that may be outside theirs
        self.checks = self.conflicts = self.pivots = 0

    # -- registration --

    def _new(self, name) -> int:
        self.names.append(name)
        self.value.append((0, 0))
        self.bounds[LOWER].append(None)
        self.bounds[UPPER].append(None)
        return len(self.names) - 1

    def _input(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = self._new(name)
        return self.ids[name]

    def _slack(self, form: tuple) -> int:
        if form not in self.ids:
            slack = self.ids[form] = self._new(None)
            row = self.rows[slack] = {self._input(name): c for name, c in form}
            for x in row:
                self.cols.setdefault(x, set()).add(slack)
        return self.ids[form]

    def add_atom(self, atom, op: str, term: Lin) -> None:
        """Register the atom `term op 0` (op EQ, LE or LT; term not
        constant) under the key `atom`.  Every atom is registered before
        the first assertion, while all variables are nonbasic at zero."""
        items = sorted(term.coeffs.items())
        lead = items[0][1]
        if len(items) == 1:
            x = self._input(items[0][0])
        else:
            x = self._slack(tuple((name, _div(c, lead)) for name, c in items))
        self.atoms[atom] = (x, _div(-term.const, lead), op if lead > 0 else _FLIP[op])

    def bound_axioms(self) -> list:
        """Binary clauses, valid in the theory, that rule out crossing
        bounds between the atoms of one variable (Dutertre and de Moura,
        section 4).  Each inequality atom, or its negation, reads `x <=
        bound` for a delta-rational bound; sorted by bound, each of these
        implies the next.  An equality `x = b` implies the nearest of them
        at or above b and the negation of the nearest below it, and
        excludes the next EQUALITY_WINDOW equalities on other values.
        Sorting per variable keeps this at O(n log n) plus the clauses."""
        uppers: dict = {}  # id -> [(bound, literal meaning `id <= bound`)]
        equals: dict = {}  # id -> [(b, atom meaning `id = b`)]
        for atom, (x, b, op) in self.atoms.items():
            if op == EQ:
                equals.setdefault(x, []).append((b, atom))
                continue
            ((side, k),), lit = _EFFECTS[op][0], atom
            if side == LOWER:  # then its negation is an upper bound
                ((side, k),), lit = _EFFECTS[op][1], -atom
            uppers.setdefault(x, []).append(((b, k), lit))
        clauses = []
        for bounds in uppers.values():
            bounds.sort()
            for (low, tighter), (high, looser) in zip(bounds, bounds[1:]):
                clauses.append([-tighter, looser])
                if low == high:
                    clauses.append([-looser, tighter])
        for x, eqs in equals.items():
            eqs.sort()
            bounds = uppers.get(x, [])
            keys = [bound for bound, _ in bounds]
            for i, (b, e) in enumerate(eqs):
                j = bisect_left(keys, (b, 0))
                if j < len(bounds):
                    clauses.append([-e, bounds[j][1]])
                if j > 0:
                    clauses.append([-e, -bounds[j - 1][1]])
                for c, f in eqs[i + 1:i + 1 + EQUALITY_WINDOW]:
                    if c != b:
                        clauses.append([-e, -f])
        return clauses

    # -- asserting and backtracking --

    @property
    def stale(self) -> bool:
        """Whether check() may find something to repair or report."""
        return bool(self.crossed or self.moves or self.candidates)

    def assert_lit(self, lit: int) -> None:
        """Assert the registered atom `abs(lit)`, negated when lit < 0;
        lit is the tag of every bound this adds."""
        if self.crossed is not None:
            return
        x, b, op = self.atoms[abs(lit)]
        for side, k in _EFFECTS[op][lit < 0]:
            if side == DISEQ:
                self.diseqs.append((x, b, lit))
                self.undo.append((DISEQ, x, None))
            else:
                self._tighten(x, side, (b, k), lit)

    def _tighten(self, x: int, side: int, bound: tuple, tag) -> None:
        old = self.bounds[side][x]
        if old is not None and (old[0] >= bound if side == LOWER else old[0] <= bound):
            return
        other = self.bounds[1 - side][x]
        if other is not None and (other[0] < bound if side == LOWER else other[0] > bound):
            self.crossed = {tag, other[1]}
            self.undo.append((CROSSED, x, None))
            return
        self.undo.append((side, x, old))
        self.bounds[side][x] = (bound, tag)
        value = self.value[x]
        if value < bound if side == LOWER else value > bound:
            (self.candidates if x in self.rows else self.moves).add(x)

    def undo_to(self, mark: int) -> None:
        """Take back everything asserted since len(self.undo) was `mark`."""
        undo = self.undo
        while len(undo) > mark:
            kind, x, old = undo.pop()
            if kind == DISEQ:
                self.diseqs.pop()
            elif kind == CROSSED:
                self.crossed = None
            else:
                self.bounds[kind][x] = old

    # -- checking --

    def _violated(self, x: int):
        """The bound that x's value violates, or None."""
        value = self.value[x]
        low = self.bounds[LOWER][x]
        if low is not None and value < low[0]:
            return low[0]
        high = self.bounds[UPPER][x]
        if high is not None and value > high[0]:
            return high[0]
        return None

    def _update(self, x: int, target: tuple) -> None:
        """Move nonbasic x to `target`, and the basic variables with it."""
        c, k = self.value[x]
        d0, d1 = target[0] - c, target[1] - k
        for y in self.cols.get(x, ()):
            a = self.rows[y][x]
            c, k = self.value[y]
            self.value[y] = (c + a * d0, k + a * d1 if d1 else k)
            self.candidates.add(y)
        self.value[x] = target

    def _pivot_and_update(self, xi: int, xj: int, target: tuple) -> None:
        """Set basic xi to `target` by moving nonbasic xj, then swap them."""
        a = self.rows[xi][xj]
        c, k = self.value[xi]
        t0, t1 = _div(target[0] - c, a), _div(target[1] - k, a)
        self.value[xi] = target
        c, k = self.value[xj]
        self.value[xj] = (c + t0, k + t1)
        for y in self.cols[xj]:
            if y != xi:
                b = self.rows[y][xj]
                c, k = self.value[y]
                self.value[y] = (c + b * t0, k + b * t1)
                self.candidates.add(y)
        self.candidates.add(xj)
        self._pivot(xi, xj)
        self.pivots += 1

    def _pivot(self, xi: int, xj: int) -> None:
        """Make xj basic in xi's row and substitute it in every other row."""
        rows, cols = self.rows, self.cols
        row = rows.pop(xi)
        inv = _div(1, row.pop(xj))
        for y in row:
            cols[y].discard(xi)
        new = {y: _exact(-c * inv) for y, c in row.items()}
        new[xi] = inv
        others = cols.pop(xj)
        others.discard(xi)
        rows[xj] = new
        for y in new:
            cols.setdefault(y, set()).add(xj)
        for r in others:
            target = rows[r]
            factor = target.pop(xj)
            for y, c in new.items():
                total = _exact(target.get(y, 0) + factor * c)
                if total == 0:
                    del target[y]
                    cols[y].discard(r)
                else:
                    if y not in target:
                        cols[y].add(r)
                    target[y] = total

    def _can_move(self, x: int, up: bool) -> bool:
        bound = self.bounds[UPPER if up else LOWER][x]
        if bound is None:
            return True
        return self.value[x] < bound[0] if up else self.value[x] > bound[0]

    def check(self):
        """Satisfy every bound: None on success, else the tags of a
        conflicting set of bounds."""
        if self.crossed is not None:
            return self.crossed
        for x in self.moves:
            target = self._violated(x)
            if target is not None:
                self._update(x, target)
        self.moves.clear()
        while True:
            violated = [x for x in self.candidates
                        if x in self.rows and self._violated(x) is not None]
            self.candidates = set(violated)
            if not violated:
                return None
            xi = min(violated)
            target = self._violated(xi)
            up = target > self.value[xi]
            row = self.rows[xi]
            xj = min((y for y, a in row.items() if self._can_move(y, (a > 0) == up)),
                     default=None)
            if xj is None:
                tags = {self.bounds[LOWER if up else UPPER][xi][1]}
                for y, a in row.items():
                    tags.add(self.bounds[UPPER if (a > 0) == up else LOWER][y][1])
                return tags
            self._pivot_and_update(xi, xj, target)

    def _concrete(self) -> list:
        """Every variable's value with delta replaced by a rational small
        enough that all bounds still hold."""
        delta = Fraction(1)
        lows, highs = self.bounds
        for x, (c, k) in enumerate(self.value):
            low, high = lows[x], highs[x]
            if low is not None and low[0][0] < c and low[0][1] > k:
                delta = min(delta, Fraction(c - low[0][0]) / (low[0][1] - k))
            if high is not None and c < high[0][0] and k > high[0][1]:
                delta = min(delta, Fraction(high[0][0] - c) / (k - high[0][1]))
        return [c + delta * k if k else c for c, k in self.value]

    def final_check(self):
        """check(), then the disequalities: one the model violates is split
        into `<` and `>`, each tried in turn.  Returns ("sat", model of the
        input variables) or ("unsat", tags)."""
        conflict = self.check()
        if conflict is not None:
            return "unsat", conflict
        values = self._concrete()
        for x, b, tag in self.diseqs:
            if values[x] == b:
                break
        else:
            return "sat", {name: values[x] for x, name in enumerate(self.names)
                           if name is not None}
        conflicts: set = set()
        for side, k in ((UPPER, -1), (LOWER, 1)):
            mark = len(self.undo)
            self._tighten(x, side, (b, k), tag)
            result = self.final_check()
            self.undo_to(mark)
            if result[0] == "sat" or tag not in result[1]:
                return result
            conflicts |= result[1]
        return "unsat", conflicts


def feasible(theory, complete: bool = True):
    """Decide a conjunction of linear constraints.

    theory: the live Simplex of a search, or a list of (op, Lin, origins)
    constraints `term op 0` with op EQ, LE, LT or NE.  A complete check
    also splits disequalities and returns ("sat", model), an exact
    rational value for every variable; a partial one (complete=False)
    checks bounds only and returns ("sat", None).  An unsat answer is
    ("unsat", conflict): a subset of the live simplex's asserted
    literals, or the union of the origins of a subset of the list.
    """
    if isinstance(theory, Simplex):
        theory.checks += 1
        if complete:
            result = theory.final_check()
        else:
            conflict = theory.check()
            result = ("sat", None) if conflict is None else ("unsat", conflict)
        if result[0] == "unsat":
            theory.conflicts += 1
        return result
    simplex = Simplex()
    origins: dict = {}
    for atom, (op, term, origin) in enumerate(theory, 1):
        if not term.coeffs:
            holds = term.const != 0 if op == NE else _check_const(op, term.const)
            if not holds:
                return "unsat", frozenset(origin)
            continue
        simplex.add_atom(atom, EQ if op == NE else op, term)
        origins[atom] = (-atom if op == NE else atom, origin)
    for lit, _ in origins.values():
        simplex.assert_lit(lit)
    status, detail = simplex.final_check()
    if status == "unsat":
        detail = frozenset().union(*(origins[abs(lit)][1] for lit in detail))
    return status, detail


# -- boolean skeleton ---------------------------------------------------------


TRUE = ("const", True)
FALSE = ("const", False)


class Skeleton:
    """Interns boolean variables and linear atoms; builds the CNF.

    A root assertion becomes clauses without a gate of its own: a root
    `and` is asserted conjunct by conjunct, a root `or` is one clause of
    its children's literals, and anything else is a one-literal clause.
    Only a child that is not a literal gets a Tseitin gate, so gates are
    made only below the root (Plaisted and Greenbaum, "A
    Structure-preserving Clause Form Translation", JSC 1986).

    masks[i] says which root assertions clauses[i] stands for: for a
    root's clause, bit j of its assertion and the bits of the equalities
    its translation read; 0 for a gate definition, which holds whatever
    is asserted because its gate is a fresh variable, and for a bound
    axiom, which holds in the theory.  No clause repeats a literal, and
    none holds a literal and its negation: such a tautology, a root's or
    a definition's, is not kept."""

    def __init__(self):
        self.var_count = 0
        self.bool_vars: dict = {}
        self.atom_ids: dict = {}
        self.atoms: dict = {}  # var id -> (op, Lin)
        self.clauses: list = []
        self.masks: list = []

    def assert_root(self, node, mask: int) -> None:
        """Add the clauses of the (constant-free) node as root clauses
        that stand for the root assertions in `mask`."""
        kind, children = node
        if kind == "and":
            for child in children:
                self.assert_root(child, mask)
            return
        if kind != "or":
            children = [node]
        self._add([child[1] if child[0] == "lit" else self.tseitin(child)
                   for child in children], mask)

    def _add(self, clause: list, mask: int) -> None:
        if len(set(map(abs, clause))) < len(clause):
            clause = list(dict.fromkeys(clause))
            if len(set(map(abs, clause))) < len(clause):
                return  # a literal and its negation
        self.clauses.append(clause)
        self.masks.append(mask)

    def _define(self, clauses) -> None:
        for clause in clauses:
            self._add(clause, 0)

    def new_var(self) -> int:
        self.var_count += 1
        return self.var_count

    def bool_var(self, name: str) -> int:
        if name not in self.bool_vars:
            self.bool_vars[name] = self.new_var()
        return self.bool_vars[name]

    def atom(self, op: str, term: Lin) -> int:
        key = (op, term.key())
        if key not in self.atom_ids:
            var = self.new_var()
            self.atom_ids[key] = var
            self.atoms[var] = (op, term)
        return self.atom_ids[key]

    def tseitin(self, node) -> int:
        """Return a literal equisatisfiable with the (constant-free) node."""
        kind = node[0]
        if kind == "lit":
            return node[1]
        args = [self.tseitin(child) for child in node[1]]
        gate = self.new_var()
        if kind == "and":
            self._define([[-gate, lit] for lit in args])
            self._define([[gate] + [-lit for lit in args]])
        elif kind == "or":
            self._define([[gate, -lit] for lit in args])
            self._define([[-gate] + args])
        elif kind == "iff":
            a, b = args
            self._define(
                [[-gate, -a, b], [-gate, a, -b], [gate, a, b], [gate, -a, -b]]
            )
        else:
            raise Unsupported(f"internal gate {kind}")
        return gate


def _fold(kind, children):
    """Build an and/or/iff node with constant folding; a lone remaining
    child of and/or stands for the node."""
    if kind in ("and", "or"):
        absorbing = FALSE if kind == "and" else TRUE
        neutral = TRUE if kind == "and" else FALSE
        out = []
        for child in children:
            if child == absorbing:
                return absorbing
            if child == neutral:
                continue
            out.append(child)
        if not out:
            return neutral
        if len(out) == 1:
            return out[0]
        return (kind, out)
    a, b = children
    if a[0] == "const":
        return b if a[1] else _negate(b)
    if b[0] == "const":
        return a if b[1] else _negate(a)
    return ("iff", [a, b])


def _negate(node):
    if node[0] == "const":
        return ("const", not node[1])
    if node[0] == "lit":
        return ("lit", -node[1])
    if node[0] == "and":
        return ("or", [_negate(c) for c in node[1]])
    if node[0] == "or":
        return ("and", [_negate(c) for c in node[1]])
    if node[0] == "iff":
        a, b = node[1]
        return ("iff", [_negate(a), b])
    raise Unsupported(f"cannot negate {node[0]}")


class Equalities:
    """A union-find over the Real symbols that top-level `(= x y)`
    assertions equate, so that translation writes every symbol of a class
    as one representative, its first-declared symbol.

    Each merge of two classes is an edge of a spanning forest that carries
    its assertion's bit; the edges on the forest path from a symbol to its
    representative are the assertions that prove them equal."""

    def __init__(self, order: dict):
        self.order = order  # symbol -> declaration position
        self.parent: dict = {}  # symbol -> parent symbol
        self.edges: dict = {}  # symbol -> [(symbol, bit)]

    def _find(self, name: str) -> str:
        parent = self.parent
        root = parent.setdefault(name, name)
        while parent[root] != root:
            root = parent[root]
        while name != root:
            parent[name], name = root, parent[name]
        return root

    def merge(self, a: str, b: str, bit: int) -> None:
        """Equate a and b by the assertion `bit`."""
        ra, rb = self._find(a), self._find(b)
        if ra != rb:  # else the edges already there imply it
            self.parent[rb] = ra
            self.edges.setdefault(a, []).append((b, bit))
            self.edges.setdefault(b, []).append((a, bit))

    def resolve(self) -> dict:
        """symbol -> (representative, mask of the assertions that equate
        them), for every merged symbol other than a representative."""
        classes: dict = {}
        for name in self.parent:
            classes.setdefault(self._find(name), []).append(name)
        resolved = {}
        for members in classes.values():
            rep = min(members, key=self.order.__getitem__)
            masks = {rep: 0}
            stack = [rep]
            while stack:
                name = stack.pop()
                for other, bit in self.edges.get(name, ()):
                    if other not in masks:
                        masks[other] = masks[name] | bit
                        resolved[other] = (rep, masks[other])
                        stack.append(other)
        return resolved


class Translator:
    """Translates assertions into skeleton nodes over `lit`s, reading
    every symbol in `resolved` as its representative and collecting the
    masks of the equalities it read in `used`."""

    def __init__(self, sorts: dict, skeleton: Skeleton):
        self.sorts = sorts
        self.skeleton = skeleton
        self.resolved: dict = {}
        self.used = 0

    def equality(self, term):
        """The two names of a top-level `(= x y)` between Real symbols,
        or None."""
        if not (isinstance(term, list) and len(term) == 3 and term[0] == "="):
            return None
        names = [unquote(side) for side in term[1:] if isinstance(side, str)]
        if len(names) == 2 and all(self.sorts.get(name) == "Real" for name in names):
            return names
        return None

    def sort_of(self, node) -> str:
        if isinstance(node, str):
            name = unquote(node)
            if name in ("true", "false"):
                return "Bool"
            if name in self.sorts:
                return self.sorts[name]
            return "Real"
        head = node[0] if node else ""
        if head in ("and", "or", "not", "=>", "=", "distinct", "<", "<=", ">", ">="):
            return "Bool"
        if head == "ite":
            return self.sort_of(node[2])
        return "Real"

    def to_bool(self, node):
        if isinstance(node, str):
            name = unquote(node)
            if name == "true":
                return TRUE
            if name == "false":
                return FALSE
            if self.sorts.get(name) == "Bool":
                return ("lit", self.skeleton.bool_var(name))
            raise Unsupported(f"symbol {name!r} is not boolean")
        if not node:
            raise Unsupported("empty term")
        head = node[0]
        if head == "!":
            return self.to_bool(node[1])
        if head == "not":
            return _negate(self.to_bool(node[1]))
        if head == "and":
            return _fold("and", [self.to_bool(a) for a in node[1:]])
        if head == "or":
            return _fold("or", [self.to_bool(a) for a in node[1:]])
        if head == "=>":
            # A disjunctive consequent's disjuncts join the implication's
            # `or`.  A negated antecedent stays one child: a frame axiom's
            # "some capability applied at t" gets a gate, which the search
            # branches and learns on (the k=10 station chain takes 5,213
            # decisions with it, 8,056 with its disjuncts spliced in).
            args = [self.to_bool(a) for a in node[1:]]
            out = args[-1]
            for a in reversed(args[:-1]):
                disjuncts = out[1] if out[0] == "or" else [out]
                out = _fold("or", [_negate(a), *disjuncts])
            return out
        if head == "ite":
            cond = self.to_bool(node[1])
            return _fold(
                "or",
                [
                    _fold("and", [cond, self.to_bool(node[2])]),
                    _fold("and", [_negate(cond), self.to_bool(node[3])]),
                ],
            )
        if head in ("=", "distinct"):
            if len(node) != 3:
                raise Unsupported(f"{head} with arity {len(node) - 1}")
            if self.sort_of(node[1]) == "Bool" or self.sort_of(node[2]) == "Bool":
                result = _fold("iff", [self.to_bool(node[1]), self.to_bool(node[2])])
            else:
                result = self._atom(EQ, node[1], node[2])
            return _negate(result) if head == "distinct" else result
        if head in ("<", "<=", ">", ">="):
            if len(node) != 3:
                raise Unsupported(f"{head} with arity {len(node) - 1}")
            left, right = node[1], node[2]
            if head == ">":
                return self._atom(LT, right, left)
            if head == ">=":
                return self._atom(LE, right, left)
            return self._atom(LT if head == "<" else LE, left, right)
        raise Unsupported(f"operator {head!r} in boolean context")

    def _atom(self, op, left, right):
        term = self.to_lin(left) - self.to_lin(right)
        if not term.coeffs:
            return ("const", _check_const(op, term.const))
        return ("lit", self.skeleton.atom(op, term))

    def to_lin(self, node) -> Lin:
        if isinstance(node, str):
            name = unquote(node)
            if name in self.sorts:
                if self.sorts[name] != "Real":
                    raise Unsupported(f"boolean {name!r} in arithmetic")
                if name in self.resolved:
                    name, mask = self.resolved[name]
                    self.used |= mask
                return Lin._of({name: 1}, 0)
            try:
                return Lin._of({}, _exact(Fraction(name)))
            except (ValueError, ZeroDivisionError):
                raise Unsupported(f"undeclared symbol {name!r}")
        if not node:
            raise Unsupported("empty arithmetic term")
        head = node[0]
        args = node[1:]
        if head == "+":
            out = Lin()
            for a in args:
                out = out + self.to_lin(a)
            return out
        if head == "-":
            if len(args) == 1:
                return -self.to_lin(args[0])
            out = self.to_lin(args[0])
            for a in args[1:]:
                out = out - self.to_lin(a)
            return out
        if head == "*":
            out = Lin._of({}, 1)
            for a in args:
                factor = self.to_lin(a)
                if out.coeffs and factor.coeffs:
                    raise Nonlinear("product of two variable terms")
                if factor.coeffs:
                    out, factor = factor, out
                out = out.scale(factor.const)
            return out
        if head == "/":
            if len(args) != 2:
                raise Unsupported("/ with arity != 2")
            num = self.to_lin(args[0])
            den = self.to_lin(args[1])
            if den.coeffs:
                raise Nonlinear("variable divisor")
            if den.const == 0:
                raise Unsupported("division by zero constant")
            return num.scale(_div(1, den.const))
        raise Unsupported(f"operator {head!r} in arithmetic context")


# -- DPLL ----------------------------------------------------------------------


# What `(get-info :all-statistics)` reports about the last check-sat: the
# search's counts, then the size of the CNF it started from (bound axioms
# included).
STATISTICS = ("decisions", "conflicts", "learned-clauses", "theory-checks",
              "theory-conflicts", "pivots", "variables", "clauses")


class Dpll:
    """CDCL search with MiniSat's data structures (Eén and Sörensson, "An
    Extensible SAT-solver", SAT 2003).  Unit propagation watches two
    literals of every clause of two or more literals (Moskewicz et al.,
    "Chaff", DAC 2001) and walks the trail from `qhead`; values are kept
    per literal, so a literal's test is one list lookup.  One-literal
    clauses are set when the search starts.  Conflicts are
    analysed to the first UIP and followed by a non-chronological
    backjump.  Each decision sets to False the most active unassigned
    variable, the smallest one on ties, taken from a lazy binary heap.
    One Simplex follows the search: every assigned atom is asserted into
    it, backjumping takes its bounds back, and it is checked before each
    decision.  Its bound axioms join the clauses before the search starts.
    Theory conflicts become learned clauses the same way boolean conflicts
    do.

    Every clause carries the mask of the root assertions it follows from
    (Zhang and Malik, "Extracting Small Unsatisfiable Cores from
    Satisfiable Formulas", SAT 2003): a theory lemma or bound axiom has
    mask 0, a learned clause the union of the clauses resolved into it.  A
    variable assigned at level 0 carries the mask of its reason and of the
    reason's other literals, so after an unsat answer `core` is the mask
    of the final level-0 conflict."""

    def __init__(self, skeleton: Skeleton):
        self.sk = skeleton
        n = self.nvars = skeleton.var_count
        self.theory = Simplex()
        for var, (op, term) in skeleton.atoms.items():
            self.theory.add_atom(var, op, term)
        # The bound axioms join the given clauses; like gate definitions,
        # they hold whatever is asserted.
        skeleton._define(self.theory.bound_axioms())
        self.clauses: list = [list(c) for c in skeleton.clauses]
        self.masks: list = list(skeleton.masks)
        self.core = 0
        # assign[lit] is the value of the literal lit, None while its
        # variable is unassigned: assign[v] is v's value, and -v indexes
        # from the end.
        self.assign: list = [None] * (2 * n + 1)
        # Indexed by variable.
        self.level: list = [None] * (n + 1)
        self.reason: list = [None] * (n + 1)  # clause index, None for decisions
        self.root_mask: dict = {}  # var assigned at level 0 -> its mask
        self.trail: list = []
        self.qhead = 0  # trail[qhead:] is still to be propagated
        # (trail length, theory undo-log length) at each decision level
        self.level_marks: list = []
        self.decisions = 0
        self.conflicts = 0
        # watches[lit] holds the clauses whose first two literals include
        # lit, visited when lit becomes false; -v indexes from the end.
        self.watches: list = [[] for _ in range(2 * n + 1)]
        self.units: list = []  # indices of the one-literal clauses
        for index, clause in enumerate(self.clauses):
            self._watch(index, clause)
        self.activity: list = [0.0] * (n + 1)
        self.bump = 1.0
        # Entries (-activity, var).  An entry is stale once its variable is
        # assigned or its activity has grown; every unassigned variable
        # has a current entry.
        self.heap: list = [(-0.0, var) for var in range(1, n + 1)]

    @property
    def decision_level(self) -> int:
        return len(self.level_marks)

    def _watch(self, index, clause) -> None:
        if len(clause) == 1:
            self.units.append(index)
        else:
            self.watches[clause[0]].append(index)
            self.watches[clause[1]].append(index)

    def _add_clause(self, clause, mask: int = 0) -> int:
        """Add a clause all of whose literals are false, watching its two
        highest-level ones: backjumping unassigns them first."""
        level = self.level
        clause = sorted(clause, key=lambda lit: level[abs(lit)], reverse=True)
        index = len(self.clauses)
        self.clauses.append(clause)
        self.masks.append(mask)
        self._watch(index, clause)
        return index

    def _set(self, lit, reason) -> None:
        """Make lit true, implied by the clause `reason` (None for a
        decision)."""
        var = abs(lit)
        self.assign[lit] = True
        self.assign[-lit] = False
        self.level[var] = len(self.level_marks)
        self.reason[var] = reason
        self.trail.append(var)
        if not self.level_marks:
            # The reason's other literals are false at level 0 already.
            mask = self.masks[reason]
            for other in self.clauses[reason]:
                if abs(other) != var:
                    mask |= self.root_mask[abs(other)]
            self.root_mask[var] = mask
        if var in self.theory.atoms:
            self.theory.assert_lit(lit)

    def _propagate(self):
        """Unit-propagate the trail from qhead; returns a conflicting
        clause index or None.  A watched clause keeps its watches at
        positions 0 and 1."""
        assign, trail, clauses, watches = self.assign, self.trail, self.clauses, self.watches
        qhead = self.qhead
        while qhead < len(trail):
            var = trail[qhead]
            qhead += 1
            false = -var if assign[var] else var
            watching = watches[false]
            watches[false] = kept = []
            for position, index in enumerate(watching):
                clause = clauses[index]
                if clause[0] == false:
                    clause[0], clause[1] = clause[1], false
                other = clause[0]
                value = assign[other]
                if value:
                    kept.append(index)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if assign[lit] is not False:
                        clause[1], clause[k] = lit, false
                        watches[lit].append(index)
                        break
                else:
                    kept.append(index)
                    if value is not None:
                        kept.extend(watching[position + 1:])
                        self.qhead = len(trail)
                        return index
                    self._set(other, index)
        self.qhead = qhead
        return None

    def _backjump(self, target_level) -> None:
        mark, theory_mark = self.level_marks[target_level]
        del self.level_marks[target_level:]
        self.theory.undo_to(theory_mark)
        assign, level, reason, activity, heap = (
            self.assign, self.level, self.reason, self.activity, self.heap)
        for var in self.trail[mark:]:
            assign[var] = assign[-var] = level[var] = reason[var] = None
            heappush(heap, (-activity[var], var))
        del self.trail[mark:]
        self.qhead = mark
        # Stale entries sink below the current ones and pile up there.
        if len(heap) > 2 * self.nvars:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Replace the heap by the current entries of the unassigned
        variables, dropping every stale one."""
        activity = self.activity
        self.heap = [(-activity[var], var) for var in range(1, self.nvars + 1)
                     if self.assign[var] is None]
        heapify(self.heap)

    def _bump(self, var) -> None:
        activity = self.activity[var] = self.activity[var] + self.bump
        if activity > 1e100:
            self.activity = [a * 1e-100 for a in self.activity]
            self.bump *= 1e-100
            self._rebuild_heap()
        elif self.assign[var] is None:
            heappush(self.heap, (-activity, var))

    def _analyze(self, conflict_index):
        """1UIP learning.  Returns (learned clause, backjump level, mask)
        or None when the conflict is at level zero (unsat; its mask is
        then left in self.core)."""
        self.conflicts += 1
        conflict = self.clauses[conflict_index]
        mask = self.masks[conflict_index]
        top = max((self.level[abs(l)] for l in conflict), default=0)
        if top == 0:
            for lit in conflict:
                mask |= self.root_mask[abs(lit)]
            self.core = mask
            return None
        if top < self.decision_level:
            self._backjump(top)
        level, trail, current = self.level, self.trail, self.decision_level
        seen: set = set()
        learned: list = []
        counter = 0
        trail_index = len(trail) - 1
        clause = conflict
        while True:
            for lit in clause:
                var = abs(lit)
                if var in seen:
                    continue
                if level[var] == 0:
                    mask |= self.root_mask[var]
                    continue
                seen.add(var)
                self._bump(var)
                if level[var] == current:
                    counter += 1
                else:
                    learned.append(lit)
            # Every variable after the current level's mark is at that
            # level, and the ones still to resolve lie there.
            while trail[trail_index] not in seen:
                trail_index -= 1
            var = trail[trail_index]
            trail_index -= 1
            counter -= 1
            if counter == 0:
                uip = -var if self.assign[var] else var
                learned.insert(0, uip)
                break
            mask |= self.masks[self.reason[var]]
            clause = [l for l in self.clauses[self.reason[var]] if abs(l) != var]
        self.bump *= 1.05
        if len(learned) == 1:
            return learned, 0, mask
        back = max(self.level[abs(l)] for l in learned[1:])
        return learned, back, mask

    def _handle_conflict(self, conflict_index) -> bool:
        """Learn from the conflict, backjump and propagate, until no
        conflict is left (True) or one is at level 0 (False: unsat)."""
        while conflict_index is not None:
            result = self._analyze(conflict_index)
            if result is None:
                return False
            learned, back, mask = result
            index = self._add_clause(learned, mask)
            self._backjump(back)
            self._set(learned[0], index)
            conflict_index = self._propagate()
        return True

    def _assert_units(self):
        """Set every one-literal clause at level 0; returns the index of
        one that is already false, or None."""
        for index in self.units:
            lit = self.clauses[index][0]
            value = self.assign[lit]
            if value is None:
                self._set(lit, index)
            elif not value:
                return index
        return None

    def solve(self):
        self.real_model = {}
        conflict = self._assert_units()
        if conflict is None:
            conflict = self._propagate()
        if conflict is not None and not self._handle_conflict(conflict):
            return "unsat"
        while True:
            var = self._pick()
            # Bounds are checked before every decision they have changed
            # since the last check; disequalities only once the assignment
            # is complete.
            if var is None or self.theory.stale:
                status, detail = feasible(self.theory, complete=var is None)
                if status == "unsat":
                    index = self._add_clause([-lit for lit in sorted(detail)])
                    if not self._handle_conflict(index):
                        return "unsat"
                    continue
                if var is None:
                    self.real_model = detail
                    return "sat"
            self.decisions += 1
            self.level_marks.append((len(self.trail), len(self.theory.undo)))
            self._set(-var, None)
            conflict = self._propagate()
            if conflict is not None and not self._handle_conflict(conflict):
                return "unsat"

    def statistics(self) -> dict:
        """The counts named in STATISTICS, for the search so far."""
        learned = len(self.clauses) - len(self.sk.clauses)
        theory = self.theory
        return dict(zip(STATISTICS, (self.decisions, self.conflicts, learned,
                                     theory.checks, theory.conflicts, theory.pivots,
                                     self.nvars, len(self.sk.clauses))))

    def _pick(self):
        """The most active unassigned variable, the smallest on ties, or
        None when every variable is assigned.  Its entry stays on the heap
        until the variable is assigned, so a pick that is not followed by
        a decision loses nothing."""
        heap, assign, activity = self.heap, self.assign, self.activity
        while heap:
            key, var = heap[0]
            if assign[var] is None and -key == activity[var]:
                return var
            heappop(heap)
        return None


# -- command interpreter --------------------------------------------------------


class RefSolver:
    def __init__(self, out=None):
        self.out = out or sys.stdout
        self.sorts: dict = {}
        self.decl_order: list = []
        self.frames: list = [[]]  # per push level: (name or None, term)
        self.last_status = None
        self.last_model: dict = {}
        self.last_core: list = []
        self.last_stats: dict = {}

    def _print(self, text: str) -> None:
        self.out.write(text + "\n")
        self.out.flush()

    def _error(self, message: str) -> None:
        escaped = message.replace('"', '""')
        self._print(f'(error "{escaped}")')

    def _assertions(self):
        for frame in self.frames:
            yield from frame

    def execute(self, sexp) -> bool:
        """Run one command; False stops the read loop."""
        if not isinstance(sexp, list) or not sexp:
            self._error("commands must be non-empty lists")
            return True
        head = sexp[0]
        if head in ("set-option", "set-info", "set-logic"):
            return True
        if head in ("declare-const", "declare-fun"):
            arity = 3 if head == "declare-const" else 4
            if len(sexp) != arity or not isinstance(sexp[1], str):
                self._error(f"malformed {head}")
                return True
            name = unquote(sexp[1])
            sort = sexp[-1]
            if head == "declare-fun" and sexp[2] != []:
                self._error("only zero-arity declare-fun is supported")
                return True
            if sort not in ("Bool", "Real", "Int"):
                self._error(f"unsupported sort {sort}")
                return True
            if name not in self.sorts:
                self.decl_order.append(name)
            self.sorts[name] = "Bool" if sort == "Bool" else "Real"
            return True
        if head == "assert":
            if len(sexp) != 2:
                self._error("malformed assert")
                return True
            term = sexp[1]
            name = None
            if isinstance(term, list) and term[:1] == ["!"]:
                names = [value for key, value in zip(term[2:], term[3:] + [None])
                         if key == ":named"]
                if len(term) < 2 or not all(isinstance(n, str) for n in names):
                    self._error("malformed annotation")
                    return True
                if names:
                    name = unquote(names[-1])
                term = term[1]
            self.frames[-1].append((name, term))
            return True
        if head in ("push", "pop"):
            args = sexp[1:] or ["1"]
            if len(args) != 1 or not isinstance(args[0], str) or not args[0].isdigit():
                self._error(f"{head} takes one numeral")
                return True
            levels = int(args[0])
            if head == "push":
                self.frames.extend([] for _ in range(levels))
            elif levels < len(self.frames):
                del self.frames[len(self.frames) - levels:]
            else:
                self._error(f"cannot pop {levels} of {len(self.frames) - 1} levels")
            return True
        if head == "check-sat":
            self._check_sat()
            return True
        if head == "get-model":
            self._get_model()
            return True
        if head == "get-unsat-core":
            self._get_unsat_core()
            return True
        if head == "get-info":
            if sexp[1:] == [":all-statistics"]:
                counts = " ".join(f":{key} {n}" for key, n in self.last_stats.items())
                self._print(f"({counts})")
            else:
                self._print("unsupported")
            return True
        if head == "reset":
            self.__init__(self.out)
            return True
        if head == "exit":
            return False
        self._error(f"unsupported command {head}")
        return True

    def _check_sat(self) -> None:
        skeleton = Skeleton()
        self.last_stats = dict.fromkeys(STATISTICS, 0)
        translator = Translator(self.sorts, skeleton)
        # Bit j of a mask stands for the j-th live assertion, named names[j].
        assertions = list(self._assertions())
        names = [name for name, _ in assertions]
        equalities = Equalities({name: i for i, name in enumerate(self.decl_order)})
        merged = set()
        for index, (_, term) in enumerate(assertions):
            pair = translator.equality(term)
            if pair is not None:
                merged.add(index)
                equalities.merge(*pair, 1 << index)
        translator.resolved = equalities.resolve()
        try:
            roots = []
            for index, (_, term) in enumerate(assertions):
                if index in merged:
                    continue
                translator.used = 0
                node = translator.to_bool(term)
                mask = 1 << index | translator.used
                if node == FALSE:
                    self._unsat(names, mask)
                    return
                if node != TRUE:
                    roots.append((node, mask))
        except Nonlinear:
            self.last_status = "unknown"
            self._print("unknown")
            return
        except Unsupported as exc:
            self.last_status = "unknown"
            self._error(str(exc))
            self._print("unknown")
            return

        for node, mask in roots:
            skeleton.assert_root(node, mask)
        dpll = Dpll(skeleton)
        status = dpll.solve()
        self.last_stats = dpll.statistics()
        if status == "unsat":
            self._unsat(names, dpll.core)
            return
        self.last_status = status
        if status == "sat":
            self.last_model = {}
            for name in self.decl_order:
                if self.sorts[name] == "Bool":
                    var = skeleton.bool_vars.get(name)
                    self.last_model[name] = (
                        bool(dpll.assign[var]) if var else False
                    )
                    continue
                rep = translator.resolved.get(name, (name,))[0]
                self.last_model[name] = dpll.real_model.get(rep, Fraction(0))
        self._print(status)

    def _unsat(self, names: list, mask: int) -> None:
        """Answer unsat; the core is the named assertions among names[j]
        for the bits j of mask."""
        bits = format(mask, "b")[::-1]
        self.last_core = [name for name, bit in zip(names, bits)
                          if bit == "1" and name is not None]
        self.last_status = "unsat"
        self._print("unsat")

    def _get_model(self) -> None:
        if self.last_status != "sat":
            self._error("model is not available")
            return
        lines = ["(model"]
        for name in self.decl_order:
            sort = self.sorts[name]
            value = self.last_model.get(
                name, False if sort == "Bool" else Fraction(0)
            )
            lines.append(
                f"  (define-fun {quote(name)} () {sort} {format_value(value)})"
            )
        lines.append(")")
        self._print("\n".join(lines))

    def _get_unsat_core(self) -> None:
        if self.last_status != "unsat":
            self._error("unsat core is not available")
            return
        names = " ".join(quote(name) for name in self.last_core)
        self._print(f"({names})")


def main() -> int:
    reader = SexpReader(sys.stdin)
    solver = RefSolver(sys.stdout)
    while True:
        try:
            sexp = reader.read()
        except SexpError as exc:
            solver._error(str(exc))
            continue
        if sexp is None or not solver.execute(sexp):
            return 0


def run() -> None:
    """The command-line entry point: main(), then an exit without the
    interpreter's teardown, which no answer waits for.  stdout is
    flushed first; an uncaught exception exits as usual, with its
    traceback."""
    code = main()
    sys.stdout.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
