"""Solver-free semantics: replay plans against the model and brute-force
minimal plans on small instances.

This module shares the synonymy index with the encoder but nothing else,
so it can serve as independent ground truth for the SMT pipeline.  State
is the class-collapsed valuation: one value per synonymy class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .errors import DivisionByZero, DomainTooLarge
from .model import Capability, CapabilityModel, Datatype
from .synonymy import SynonymyIndex

_SEARCH_BUDGET = 200_000


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


def model_constants(model: CapabilityModel) -> tuple:
    """All real constants appearing anywhere in the model; the default
    candidate domain for unbound parameters."""
    values = set()
    for prop in model.all_properties():
        for desc in prop.instance_descriptions:
            if desc.value is not None and not isinstance(desc.value, bool):
                values.add(desc.value)

    def collect(node):
        if isinstance(node, ex.Const) and not isinstance(node.value, bool):
            values.add(node.value)
        elif isinstance(node, ex.Apply):
            for arg in node.args:
                collect(arg)

    for cap in model.capabilities():
        for constraint in cap.constraints:
            collect(constraint)
    if not values:
        values.add(Fraction(0))
    return tuple(sorted(values))


def _arithmetic_offsets(model: CapabilityModel) -> tuple:
    """Constants used as additive offsets inside capability constraints."""
    offsets = set()

    def collect(node):
        if isinstance(node, ex.Apply):
            if node.op in ("plus", "minus"):
                for arg in node.args:
                    if isinstance(arg, ex.Const) and not isinstance(arg.value, bool):
                        offsets.add(arg.value)
            for arg in node.args:
                collect(arg)

    for cap in model.capabilities():
        for constraint in cap.constraints:
            collect(constraint)
    return tuple(sorted(offsets))


def default_value_domain(model: CapabilityModel, max_happenings: int) -> tuple:
    """Model constants closed under the constraint offsets.

    A free initial value may need to sit an offset-chain away from a goal
    constant (out = in + c applied up to max_happenings times), so the
    candidate set includes every constant shifted by up to that many
    offsets in either direction.
    """
    values = set(model_constants(model))
    offsets = _arithmetic_offsets(model)
    frontier = set(values)
    for _ in range(max_happenings):
        frontier = {
            v + delta for v in frontier for c in offsets for delta in (c, -c)
        } - values
        if not frontier:
            break
        values |= frontier
    return tuple(sorted(values))


def _class_valuation(index: SynonymyIndex, state: dict) -> dict:
    """Expand a per-class state into a per-property valuation for evaluate."""
    out = {}
    for cls in index.classes:
        value = state[cls.class_id]
        for member in cls.member_ids:
            out[member] = value
    return out


def _mixed_valuation(index, cap: Capability, layer0: dict, layer1: dict) -> dict:
    """Outputs read from layer 1, everything else from layer 0."""
    outputs = cap.output_property_ids()
    out = {}
    for cls in index.classes:
        for member in cls.member_ids:
            layer = layer1 if member in outputs else layer0
            out[member] = layer[cls.class_id]
    return out


def _check_relation(relation, actual, expected) -> bool:
    term = ex.apply_op(relation.value, ex.ref("x"), ex.const(expected))
    return bool(ex.evaluate(term, {"x": actual}))


def simulate(model: CapabilityModel, index: SynonymyIndex, plan) -> Verdict:
    """Replay a plan: preconditions, effects, mutexes, frame conditions,
    continuation and goal.  Violations are data, not exceptions."""
    violations = []

    def flag(kind, happening, element, message):
        violations.append(Violation(kind, happening, element, message))

    happenings = list(plan.happenings)
    if not happenings:
        return Verdict(ok=False, violations=(Violation(
            "Structure", 0, "plan", "a plan needs at least one happening"),))

    class_ids = [cls.class_id for cls in index.classes]
    for t, happening in enumerate(happenings):
        for layer_name in ("layer0", "layer1"):
            layer = getattr(happening, layer_name)
            for cid in class_ids:
                if cid not in layer:
                    flag("Structure", t, cid, f"{layer_name} misses class {cid}")
    if violations:
        return Verdict(ok=False, violations=tuple(violations))

    provided = {cap.id: cap for cap in model.provided}
    required = model.required

    # Initial conditions at (0,0): actual values plus the required
    # capability's input requirements.
    layer0 = happenings[0].layer0
    init_val = _class_valuation(index, layer0)
    for prop in model.all_properties():
        for desc in prop.actual_values():
            if desc.value is None:
                continue
            if not _check_relation(desc.relation, init_val[prop.id], desc.value):
                flag("InitMismatch", 0, prop.id,
                     f"actual value {ex.value_to_text(desc.value)} does not hold")
    for pid in sorted(required.input_property_ids()):
        for desc in model.properties[pid].requirements():
            if desc.value is None:
                continue
            if not _check_relation(desc.relation, init_val[pid], desc.value):
                flag("InitMismatch", 0, pid, "required initial condition fails")
    for i, constraint in enumerate(required.constraints):
        if ex.references(constraint) & required.output_property_ids():
            continue
        if not _holds(constraint, init_val):
            flag("InitMismatch", 0, required.id, f"required constraint {i} fails")

    mutexes = set(index.mutexes)
    for t, happening in enumerate(happenings):
        applied = sorted(set(happening.applied))
        layer0_val = _class_valuation(index, happening.layer0)
        for cap_id in applied:
            if cap_id not in provided:
                flag("Structure", t, cap_id, "not a provided capability")
        applied = [c for c in applied if c in provided]

        for first, second in itertools.combinations(applied, 2):
            if (first, second) in mutexes or (second, first) in mutexes:
                flag("MutexViolation", t, f"{first},{second}",
                     "mutex capabilities applied together")

        for cap_id in applied:
            cap = provided[cap_id]
            for pid in sorted(cap.input_property_ids()):
                for desc in model.properties[pid].requirements():
                    if desc.value is None:
                        continue
                    if not _check_relation(desc.relation, layer0_val[pid], desc.value):
                        flag("PreconditionFailed", t, cap_id,
                             f"requirement on {pid} fails")
            mixed = _mixed_valuation(index, cap, happening.layer0, happening.layer1)
            for i, constraint in enumerate(cap.constraints):
                refs = ex.references(constraint)
                touches_output = bool(refs & cap.output_property_ids())
                valuation = mixed if touches_output else layer0_val
                if not _holds(constraint, valuation):
                    kind = "EffectViolation" if touches_output else "PreconditionFailed"
                    flag(kind, t, cap_id, f"constraint {i} fails")
            for pid in sorted(cap.output_property_ids()):
                prop = model.properties[pid]
                cid = index.class_id(pid)
                for desc in prop.assurances():
                    if desc.value is None:
                        if happening.layer1[cid] != happening.layer0[cid]:
                            flag("EffectViolation", t, cap_id,
                                 f"{pid} must remain unchanged")
                    elif not _check_relation(
                        desc.relation, happening.layer1[cid], desc.value
                    ):
                        flag("EffectViolation", t, cap_id,
                             f"assurance on {pid} fails")

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

    final = happenings[-1]
    final_val = _class_valuation(index, final.layer1)
    for pid in sorted(required.output_property_ids()):
        for desc in model.properties[pid].requirements():
            if desc.value is None:
                continue
            if not _check_relation(desc.relation, final_val[pid], desc.value):
                flag("GoalFailed", len(happenings) - 1, pid, "goal requirement fails")
    for i, constraint in enumerate(required.constraints):
        if not ex.references(constraint) & required.output_property_ids():
            continue
        valuation = _mixed_valuation(index, required, happenings[0].layer0, final.layer1)
        if not _holds(constraint, valuation):
            flag("GoalFailed", len(happenings) - 1, required.id,
                 f"required constraint {i} fails")

    return Verdict(ok=not violations, violations=tuple(violations))


# -- brute-force search --------------------------------------------------------


def _initial_states(model, index, domain):
    """Enumerate candidate initial class states consistent with the actual
    values and the required capability's initial conditions."""
    required = model.required
    pinned: dict = {}
    tests: list = []

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
    for pid in required.input_property_ids():
        for desc in model.properties[pid].requirements():
            if desc.value is None:
                continue
            if desc.relation.value == "eq":
                consistent &= pin(index.class_id(pid), desc.value)
            else:
                tests.append((pid, desc))
    if not consistent:
        return
    constraints = [
        c for c in required.constraints
        if not ex.references(c) & required.output_property_ids()
    ]

    free = [cls for cls in index.classes if cls.class_id not in pinned]
    pools = []
    for cls in free:
        pools.append((True, False) if cls.datatype is Datatype.BOOLEAN else domain)
    total = 1
    for pool in pools:
        total *= len(pool)
        if total > _SEARCH_BUDGET:
            raise DomainTooLarge("too many candidate initial states")
    for combo in itertools.product(*pools):
        state = dict(pinned)
        for cls, value in zip(free, combo):
            state[cls.class_id] = value
        valuation = _class_valuation(index, state)
        if any(
            desc.value is not None
            and not _check_relation(desc.relation, valuation[pid], desc.value)
            for pid, desc in tests
        ):
            continue
        if any(not _holds(c, valuation) for c in constraints):
            continue
        yield state


def _functional_updates(cap: Capability):
    """Output constraints solvable by direct evaluation: eq(out, f(inputs))."""
    outputs = cap.output_property_ids()
    updates = []
    rest = []
    for constraint in cap.constraints:
        refs = ex.references(constraint)
        if not refs & outputs:
            continue
        sides = None
        if isinstance(constraint, ex.Apply) and constraint.op == "eq":
            left, right = constraint.args
            if isinstance(left, ex.Ref) and left.property_id in outputs and not (
                ex.references(right) & outputs
            ):
                sides = (left.property_id, right)
            elif isinstance(right, ex.Ref) and right.property_id in outputs and not (
                ex.references(left) & outputs
            ):
                sides = (right.property_id, left)
        if sides is not None:
            updates.append(sides)
        else:
            rest.append(constraint)
    return updates, rest


def _apply_step(model, index, state, applied, domain):
    """Yield every layer-1 valuation the applied set can produce from state."""
    layer0_val = _class_valuation(index, state)
    base = dict(state)
    determined: set = set()
    undetermined: set = set()

    for cap_id in applied:
        cap = model.capability(cap_id)
        effects = index.effects[cap_id]
        for pid in sorted(cap.output_property_ids()):
            prop = model.properties[pid]
            cid = index.class_id(pid)
            for desc in prop.assurances():
                if desc.value is None:
                    base[cid] = state[cid]
                    determined.add(cid)
                elif desc.relation.value == "eq":
                    base[cid] = desc.value
                    determined.add(cid)
                else:
                    undetermined.add(cid)
        updates, rest = _functional_updates(cap)
        for pid, formula in updates:
            cid = index.class_id(pid)
            try:
                base[cid] = ex.evaluate(formula, layer0_val)
            except DivisionByZero:
                return  # this application has no well-defined successor
            determined.add(cid)
        for constraint in rest:
            for pid in ex.references(constraint) & effects.numeric:
                undetermined.add(index.class_id(pid))

    free = sorted(undetermined - determined)
    pools = []
    for cid in free:
        cls = index.class_of[cid]
        if cls.datatype is Datatype.BOOLEAN:
            pools.append((True, False))
        else:
            pools.append(tuple(dict.fromkeys(domain + (state[cid],))))
    combos = itertools.product(*pools) if free else [()]

    for combo in combos:
        candidate = dict(base)
        for cid, value in zip(free, combo):
            candidate[cid] = value
        ok = True
        for cap_id in applied:
            cap = model.capability(cap_id)
            mixed = {}
            outputs = cap.output_property_ids()
            for cls in index.classes:
                for member in cls.member_ids:
                    source = candidate if member in outputs else state
                    mixed[member] = source[cls.class_id]
            for constraint in cap.constraints:
                refs = ex.references(constraint)
                if not refs & outputs:
                    continue
                if not _holds(constraint, mixed):
                    ok = False
                    break
            if not ok:
                break
            for pid in sorted(outputs):
                for desc in model.properties[pid].assurances():
                    if desc.value is None or desc.relation.value == "eq":
                        continue
                    cid = index.class_id(pid)
                    if not _check_relation(desc.relation, candidate[cid], desc.value):
                        ok = False
                        break
        if ok:
            yield candidate


def _goal_holds(model, index, initial_state, final_state) -> bool:
    required = model.required
    final_val = _class_valuation(index, final_state)
    for pid in required.output_property_ids():
        for desc in model.properties[pid].requirements():
            if desc.value is None:
                continue
            if not _check_relation(desc.relation, final_val[pid], desc.value):
                return False
    outputs = required.output_property_ids()
    init_val = _class_valuation(index, initial_state)
    for constraint in required.constraints:
        if not ex.references(constraint) & outputs:
            continue
        mixed = {
            pid: final_val[pid] if pid in outputs else init_val[pid]
            for pid in init_val
        }
        if not _holds(constraint, mixed):
            return False
    return True


def _applicable(model, index, cap: Capability, state) -> bool:
    valuation = _class_valuation(index, state)
    for pid in cap.input_property_ids():
        for desc in model.properties[pid].requirements():
            if desc.value is None:
                continue
            if not _check_relation(desc.relation, valuation[pid], desc.value):
                return False
    outputs = cap.output_property_ids()
    for constraint in cap.constraints:
        if ex.references(constraint) & outputs:
            continue
        if not _holds(constraint, valuation):
            return False
    return True


def brute_force_plan(model, index, max_happenings: int, value_domain=None):
    """Breadth-first search for a shortest plan, or None.

    Only meant for small instances; raises DomainTooLarge when the search
    budget is exceeded.  Real-valued choices come from the finite value
    domain (defaulting to the model constants closed under constraint
    offsets), so a goal needing a value outside that domain is reported as
    unreachable.
    """
    from .planner import Happening, Plan  # local import to avoid a cycle

    if value_domain is not None:
        domain = tuple(value_domain)
    else:
        domain = default_value_domain(model, max_happenings)
    mutexes = set(index.mutexes)
    cap_ids = sorted(cap.id for cap in model.provided)

    subsets = []
    for r in range(len(cap_ids) + 1):
        for combo in itertools.combinations(cap_ids, r):
            if any(
                (a, b) in mutexes or (b, a) in mutexes
                for a, b in itertools.combinations(combo, 2)
            ):
                continue
            subsets.append(combo)

    def freeze(state):
        return tuple(sorted(state.items()))

    explored = 0
    frontier = []
    # Goal evaluation of mixed required constraints reads the initial
    # state, so visited states are keyed per initial state.
    seen = set()
    for state in _initial_states(model, index, domain):
        key = (freeze(state), freeze(state))
        if key in seen:
            continue
        seen.add(key)
        frontier.append((state, state, ()))  # (initial, current, trace)

    for depth in range(1, max_happenings + 1):
        next_frontier = []
        for initial, current, trace in frontier:
            for applied in subsets:
                if any(
                    not _applicable(model, index, model.capability(c), current)
                    for c in applied
                ):
                    continue
                for layer1 in _apply_step(model, index, current, applied, domain):
                    explored += 1
                    if explored > _SEARCH_BUDGET:
                        raise DomainTooLarge("search budget exceeded")
                    step = (applied, current, layer1)
                    if _goal_holds(model, index, initial, layer1):
                        happenings = []
                        for app, l0, l1 in trace + (step,):
                            happenings.append(
                                Happening(applied=tuple(app), layer0=dict(l0),
                                          layer1=dict(l1))
                            )
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
    for t, happening in enumerate(happenings):
        for cap_id in happening.applied:
            cap = model.capability(cap_id)
            for pid in sorted(cap.input_property_ids()):
                prop = model.properties[pid]
                if prop.requirements() or prop.actual_values():
                    continue
                out.setdefault(pid, happening.layer0[index.class_id(pid)])
    return out
