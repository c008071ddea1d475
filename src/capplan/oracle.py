"""Solver-free semantics: replay plans against the model and brute-force
minimal plans on small instances.

This module reads the model and the synonymy index, as the encoder does,
but imports nothing from the encoder, so it can serve as independent
ground truth for the SMT pipeline.  State is the class-collapsed
valuation: one value per synonymy class.

Replay and search share one set of checks.  `_checks` states each rule
once: the initial conditions, every provided capability's preconditions
and effects, and the goal.  `simulate` reports every check that fails as
a Violation.  The search proposes initial states and successors its own
way (`_initial_states`, `_moves`) and keeps only those that pass the
checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .errors import DivisionByZero, DomainTooLarge
from .model import Capability, CapabilityModel, Datatype, require_valid, validate
from .synonymy import SynonymyIndex

_SEARCH_BUDGET = 200_000
_PRE, _EFF = "PreconditionFailed", "EffectViolation"


def _holds(expression, valuation) -> bool:
    """Evaluate a constraint; expression-level failures (division by zero
    under this valuation) count as not holding."""
    try:
        return bool(ex.evaluate(expression, valuation))
    except DivisionByZero:
        return False


@dataclass(frozen=True)
class Violation:
    kind: str
    happening: int
    element_id: str
    message: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple = ()


def _constants(model: CapabilityModel, ops=None) -> set:
    """The numbers that are arguments of an operator (any, or one of `ops`)
    in a capability constraint."""
    found = set()
    stack = [c for cap in model.capabilities() for c in cap.constraints]
    while stack:
        node = stack.pop()
        if isinstance(node, ex.Apply):
            stack.extend(node.args)
            if ops is None or node.op in ops:
                found |= {arg.value for arg in node.args if isinstance(arg, ex.Const)
                          and not isinstance(arg.value, bool)}
    return found


def model_constants(model: CapabilityModel) -> tuple:
    """All real constants appearing anywhere in the model; the default
    candidate domain for unbound parameters."""
    values = _constants(model) | {
        desc.value for prop in model.all_properties()
        for desc in prop.instance_descriptions
        if desc.value is not None and not isinstance(desc.value, bool)
    }
    return tuple(sorted(values or {Fraction(0)}))


def default_value_domain(model: CapabilityModel, max_happenings: int) -> tuple:
    """Model constants closed under the constraint offsets.

    A free initial value may need to sit an offset-chain away from a goal
    constant (out = in + c applied up to max_happenings times), so the
    candidate set includes every constant shifted by up to that many
    offsets in either direction.
    """
    values = set(model_constants(model))
    offsets = _constants(model, ("plus", "minus"))
    frontier = set(values)
    for _ in range(max_happenings):
        frontier = {
            v + delta for v in frontier for c in offsets for delta in (c, -c)
        } - values
        if not frontier:
            break
        values |= frontier
    return tuple(sorted(values))


# -- the checks ----------------------------------------------------------------

# A check is (kind, element, message, term, places).  `places` names each
# reference of `term` as (name, class id, late): the reference reads the
# class's value after the step when `late` is set, before it otherwise.
# Kinds travel with the checks because a capability's constraints are
# preconditions or effects one by one, and the replay reports them in
# constraint order.

# A valueless assurance: the class keeps its value.
_UNCHANGED = ex.apply_op("eq", ex.ref("after"), ex.ref("before"))


def _places(term, index, outputs=()) -> tuple:
    return tuple(
        (pid, index.class_id(pid), pid in outputs) for pid in ex.references(term)
    )


def _valuation(places, before, after=None) -> dict:
    """The values a term's references read from two class states."""
    return {name: (after if late else before)[cid] for name, cid, late in places}


def _failures(checks, before, after=None):
    """Every check that does not hold, as (kind, element, message)."""
    for kind, element, message, term, places in checks:
        if not _holds(term, _valuation(places, before, after)):
            yield kind, element, message


def _passes(checks, before, after=None) -> bool:
    return next(_failures(checks, before, after), None) is None


def _mutex_pairs(applied, mutexes) -> list:
    """The pairs of applied capabilities that exclude each other."""
    return [
        (first, second) for first, second in itertools.combinations(applied, 2)
        if (first, second) in mutexes or (second, first) in mutexes
    ]


@dataclass(frozen=True)
class _Checks:
    """The rules of one model, built once per simulate or search call."""

    init: tuple  # on the initial layer 0
    # Provided capability id -> its preconditions (on layer 0) and effects
    # (on layers 0 and 1), in replay order.
    steps: dict
    goal: tuple  # on the initial layer 0 and the final layer 1
    mutexes: frozenset


def _checks(model: CapabilityModel, index: SynonymyIndex) -> _Checks:
    def value(kind, element, message, pid, late, desc):
        """The check that pid's value stands in desc's relation to its value."""
        term = ex.apply_op(desc.relation.value, ex.ref(pid), ex.const(desc.value))
        return kind, element, message, term, ((pid, index.class_id(pid), late),)

    def requirements(pid):
        return [d for d in model.properties[pid].requirements() if d.value is not None]

    # The initial conditions: actual values, then the required capability's
    # input requirements and its constraints that are no effects.  The
    # goal: its output requirements, then its effect constraints.
    required = model.required
    init = [
        value("InitMismatch", prop.id,
              f"actual value {ex.value_to_text(desc.value)} does not hold",
              prop.id, False, desc)
        for prop in model.all_properties()
        for desc in prop.actual_values() if desc.value is not None
    ]
    init += [
        value("InitMismatch", pid, "required initial condition fails", pid, False, desc)
        for pid in required.inputs for desc in requirements(pid)
    ]
    goal = [
        value("GoalFailed", pid, "goal requirement fails", pid, True, desc)
        for pid in required.outputs for desc in requirements(pid)
    ]
    outputs = required.outputs
    for i, term in enumerate(required.constraints):
        kind, side = ("GoalFailed", goal) if required.is_effect(term) else (
            "InitMismatch", init)
        side.append((kind, required.id, f"required constraint {i} fails", term,
                     _places(term, index, outputs)))

    # A provided capability: input requirements and preconditions on
    # layer 0, effect constraints, then assurances on layer 1.
    steps = {}
    for cap in model.provided:
        outputs = cap.outputs
        checks = [
            value(_PRE, cap.id, f"requirement on {pid} fails", pid, False, desc)
            for pid in cap.inputs for desc in requirements(pid)
        ]
        checks += [
            (_EFF if cap.is_effect(term) else _PRE, cap.id, f"constraint {i} fails",
             term, _places(term, index, outputs))
            for i, term in enumerate(cap.constraints)
        ]
        for pid in outputs:
            cid = index.class_id(pid)
            for desc in model.properties[pid].assurances():
                if desc.value is None:
                    checks.append((_EFF, cap.id, f"{pid} must remain unchanged",
                                   _UNCHANGED, (("after", cid, True),
                                                ("before", cid, False))))
                else:
                    checks.append(value(_EFF, cap.id, f"assurance on {pid} fails",
                                        pid, True, desc))
        steps[cap.id] = tuple(checks)
    return _Checks(tuple(init), steps, tuple(goal), frozenset(index.mutexes))


def simulate(model: CapabilityModel, index: SynonymyIndex, plan) -> Verdict:
    """Replay a plan: preconditions, effects, mutexes, frame conditions,
    continuation and goal.  Violations are data, not exceptions: a plan
    whose layers miss a class or give one a value of the wrong type gets
    only its Structure violations."""
    violations = []

    def flag(kind, happening, element, message):
        violations.append(Violation(kind, happening, element, message))

    def report(failures, happening):
        for kind, element, message in failures:
            flag(kind, happening, element, message)

    happenings = list(plan.happenings)
    if not happenings:
        return Verdict(ok=False, violations=(Violation(
            "Structure", 0, "plan", "a plan needs at least one happening"),))

    for t, happening in enumerate(happenings):
        for layer_name in ("layer0", "layer1"):
            layer = getattr(happening, layer_name)
            for cls in index.classes:
                cid = cls.class_id
                if cid not in layer:
                    flag("Structure", t, cid, f"{layer_name} misses class {cid}")
                elif isinstance(layer[cid], bool) != (cls.datatype is Datatype.BOOLEAN):
                    flag("Structure", t, cid,
                         f"{layer_name} value of {cid} is not {cls.datatype.value}")
    if violations:
        return Verdict(ok=False, violations=tuple(violations))

    checks = _checks(model, index)
    report(_failures(checks.init, happenings[0].layer0), 0)
    for t, happening in enumerate(happenings):
        applied = sorted(set(happening.applied))
        for cap_id in applied:
            if cap_id not in checks.steps:
                flag("Structure", t, cap_id, "not a provided capability")
        applied = [c for c in applied if c in checks.steps]
        for first, second in _mutex_pairs(applied, checks.mutexes):
            flag("MutexViolation", t, f"{first},{second}",
                 "mutex capabilities applied together")
        for cap_id in applied:
            report(_failures(checks.steps[cap_id], happening.layer0,
                             happening.layer1), t)

        # Frame: a class may only change when an applied capability has the
        # matching signed (boolean) or numeric (real) effect on it.
        for cls in index.classes:
            before = happening.layer0[cls.class_id]
            after = happening.layer1[cls.class_id]
            if before == after:
                continue
            if cls.datatype is Datatype.REAL:
                movers = index.affecting[cls.class_id, "numeric"]
            elif after:
                movers = index.affecting[cls.class_id, "positive"]
            else:
                movers = index.affecting[cls.class_id, "negative"]
            if not set(movers) & set(applied):
                flag("FrameViolation", t, cls.class_id,
                     "class changed with no affecting capability applied")

        if t > 0:
            previous = happenings[t - 1]
            for cls in index.classes:
                if happening.layer0[cls.class_id] != previous.layer1[cls.class_id]:
                    flag("ContinuationViolation", t, cls.class_id,
                         "layer 0 does not continue the previous layer 1")

    report(_failures(checks.goal, happenings[0].layer0, happenings[-1].layer1),
           len(happenings) - 1)
    return Verdict(ok=not violations, violations=tuple(violations))


# -- brute-force search --------------------------------------------------------


def _pool(datatype: Datatype, reals: tuple) -> tuple:
    """The values the search tries for a class."""
    return (True, False) if datatype is Datatype.BOOLEAN else reals


def _initial_states(model, index, domain, init):
    """Enumerate candidate initial class states: the actual values and the
    required capability's `eq` initial conditions pin classes, the other
    classes range over the domain, and every state passes `init`."""
    pinned: dict = {}

    def pin(cid, value):
        if cid in pinned and pinned[cid] != value:
            return False
        pinned[cid] = value
        return True

    consistent = True
    for prop in model.all_properties():
        for desc in prop.actual_values():
            if desc.value is not None:
                consistent &= pin(index.class_id(prop.id), desc.value)
    for pid in model.required.inputs:
        for desc in model.properties[pid].requirements():
            if desc.value is not None and desc.relation.value == "eq":
                consistent &= pin(index.class_id(pid), desc.value)
    if not consistent:
        return

    free = [cls for cls in index.classes if cls.class_id not in pinned]
    pools = [_pool(cls.datatype, domain) for cls in free]
    total = 1
    for pool in pools:
        total *= len(pool)
        if total > _SEARCH_BUDGET:
            raise DomainTooLarge("too many candidate initial states")
    for combo in itertools.product(*pools):
        state = dict(pinned)
        state.update(zip((cls.class_id for cls in free), combo))
        if _passes(init, state):
            yield state


def _assignment(constraint, outputs):
    """(output, formula) when the constraint is eq(output, formula), either
    way round, and the formula reads no output; else None."""
    if isinstance(constraint, ex.Apply) and constraint.op == "eq":
        left, right = constraint.args
        for target, formula in ((left, right), (right, left)):
            if (isinstance(target, ex.Ref) and target.property_id in outputs
                    and ex.references(formula).isdisjoint(outputs)):
                return target.property_id, formula
    return None


def _moves(model, index, cap: Capability) -> tuple:
    """How the search builds a capability's layer 1: the classes it sets,
    in order, as (class id, value, update), and the classes it leaves open
    to enumeration.  A valueless assurance keeps the layer-0 value (value
    None), an `eq` assurance sets its value, and an effect constraint that
    is an assignment sets its formula's value on layer 0 (update).  Other
    assurances leave their class open, as does every Real output of any
    other effect constraint."""
    outputs = cap.outputs
    fixed, opened = [], set()
    for pid in outputs:
        cid = index.class_id(pid)
        for desc in model.properties[pid].assurances():
            if desc.value is None or desc.relation.value == "eq":
                fixed.append((cid, desc.value, None))
            else:
                opened.add(cid)
    numeric = index.effects[cap.id].numeric
    for term in cap.constraints:
        if not cap.is_effect(term):
            continue
        assignment = _assignment(term, outputs)
        if assignment is None:
            opened |= {index.class_id(pid) for pid in ex.references(term) & numeric}
        else:
            pid, formula = assignment
            update = (formula, _places(formula, index))
            fixed.append((index.class_id(pid), None, update))
    return tuple(fixed), opened


def _successors(index, moves, effects, state, applied, domain):
    """Yield every layer 1 the applied set can produce from state."""
    base = dict(state)
    determined: set = set()
    opened: set = set()
    for cap_id in applied:
        fixed, more = moves[cap_id]
        for cid, value, update in fixed:
            if update is not None:
                try:
                    value = ex.evaluate(update[0], _valuation(update[1], state))
                except DivisionByZero:
                    return  # this application has no well-defined successor
            elif value is None:
                value = state[cid]
            base[cid] = value
            determined.add(cid)
        opened |= more

    free = sorted(opened - determined)
    # An open Real class may also keep its layer-0 value.
    pools = [_pool(index.class_of[cid].datatype,
                   tuple(dict.fromkeys(domain + (state[cid],)))) for cid in free]
    for combo in itertools.product(*pools):
        candidate = dict(base)
        candidate.update(zip(free, combo))
        if all(_passes(effects[cap_id], state, candidate) for cap_id in applied):
            yield candidate


def brute_force_plan(model, index, max_happenings: int, value_domain=None):
    """Breadth-first search for a shortest plan, or None.

    Only meant for small instances; raises DomainTooLarge when the search
    budget is exceeded.  Real-valued choices come from the finite value
    domain (defaulting to the model constants closed under constraint
    offsets), so a goal needing a value outside that domain is reported as
    unreachable.  An invalid model raises InvalidModel, as in plan().
    """
    from .planner import Happening, Plan  # local import to avoid a cycle

    require_valid(validate(model))
    if value_domain is not None:
        domain = tuple(value_domain)
    else:
        domain = default_value_domain(model, max_happenings)
    checks = _checks(model, index)
    preconditions, effects = (
        {cap_id: tuple(c for c in steps if c[0] == kind)
         for cap_id, steps in checks.steps.items()}
        for kind in (_PRE, _EFF)
    )
    moves = {cap.id: _moves(model, index, cap) for cap in model.provided}
    cap_ids = sorted(checks.steps)
    subsets = [
        combo
        for r in range(len(cap_ids) + 1)
        for combo in itertools.combinations(cap_ids, r)
        if not _mutex_pairs(combo, checks.mutexes)
    ]

    def freeze(state):
        return tuple(sorted(state.items()))

    explored = 0
    frontier = []
    # The goal reads the initial state, so visited states are keyed per
    # initial state.
    seen = set()
    for state in _initial_states(model, index, domain, checks.init):
        key = (freeze(state), freeze(state))
        if key in seen:
            continue
        seen.add(key)
        frontier.append((state, state, ()))  # (initial, current, trace)

    for depth in range(1, max_happenings + 1):
        next_frontier = []
        for initial, current, trace in frontier:
            usable = {c for c in cap_ids if _passes(preconditions[c], current)}
            for applied in subsets:
                if not usable.issuperset(applied):
                    continue
                for layer1 in _successors(index, moves, effects, current, applied,
                                          domain):
                    explored += 1
                    if explored > _SEARCH_BUDGET:
                        raise DomainTooLarge("search budget exceeded")
                    step = (applied, current, layer1)
                    if _passes(checks.goal, initial, layer1):
                        happenings = [
                            Happening(applied=tuple(app), layer0=dict(l0),
                                      layer1=dict(l1))
                            for app, l0, l1 in trace + (step,)
                        ]
                        return Plan(
                            happenings=tuple(happenings),
                            bound_happenings=depth,
                            classes={c.class_id: c.member_ids for c in index.classes},
                            parameters=_parameters(model, index, happenings),
                        )
                    key = (freeze(initial), freeze(layer1))
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append((initial, layer1, trace + (step,)))
        frontier = next_frontier
    return None


def _parameters(model, index, happenings) -> dict:
    out: dict = {}
    for happening in happenings:
        for cap_id in happening.applied:
            for pid in model.parameter_ids(model.capability(cap_id)):
                out.setdefault(pid, happening.layer0[index.class_id(pid)])
    return out
