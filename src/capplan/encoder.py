"""Bounded-happenings SMT encoding of a capability planning problem.

One happening is a moment of discrete change with two layers: layer 0
holds the variable values before capabilities apply, layer 1 the values
afterwards.  The encoding for bound n declares variables for happenings
0..n and asserts, in a fixed deterministic order: boundary conditions,
capability preconditions/effects/constraints, layer frame axioms, mutexes
and cross-happening continuation.

Only the goal side (the goal family, plus the goal alignment in expanded
mode) moves with the bound; it is marked retractable.  Every other
assertion reads the same at every larger bound.

By default one SMT variable is created per synonymy class, which makes
synonym propagation and boundary alignment hold by construction.  The
expanded mode keeps one variable per property and emits the propagation
and alignment equalities explicitly instead; both encodings are
equisatisfiable bound for bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from . import expr as ex
from .errors import UnsupportedExpression
from .model import Capability, CapabilityModel, Datatype, Property
from .sexp import SIMPLE_SYMBOL_CHARS
from .synonymy import SynonymyIndex, affecting_capabilities, mutex_pairs

# Any character that may not occur in a simple symbol.
_NOT_SIMPLE = re.compile(f"[^{re.escape(''.join(sorted(SIMPLE_SYMBOL_CHARS)))}]")


@dataclass(frozen=True, slots=True)
class VariableKey:
    """Identity of one SMT variable: a state at (happening, layer) or a
    capability at a happening."""

    kind: str  # "prop" | "cap"
    ident: str  # class/property id or capability id
    t: int
    layer: Optional[int] = None
    sort: Datatype = Datatype.REAL

    @property
    def symbol(self) -> str:
        if self.kind == "cap":
            return f"{self.ident}#t{self.t}"
        return f"{self.ident}#t{self.t}#l{self.layer}"


@dataclass(frozen=True, slots=True)
class Assertion:
    name: str
    term: ex.Expression
    family: str
    element_id: str
    t: Optional[int] = None
    # Holds only at this encoding's bound and is retracted before the next.
    retractable: bool = False


@dataclass
class Encoding:
    bound: int
    logic: str
    variables: dict  # symbol -> VariableKey, in declaration order
    assertions: list
    classes: dict  # class id -> tuple of member property ids
    unbound_inputs: dict = field(default_factory=dict)  # cap id -> (prop, state)
    by_name: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.by_name:
            self.by_name = {a.name: a for a in self.assertions}

    def restricted(self, names) -> "Encoding":
        keep = set(names)
        return Encoding(
            bound=self.bound,
            logic=self.logic,
            variables=self.variables,
            assertions=[a for a in self.assertions if a.name in keep],
            classes=self.classes,
            unbound_inputs=self.unbound_inputs,
        )


class _Names:
    """Allocates unique assertion names that are valid SMT simple symbols."""

    def __init__(self):
        self.used = set()

    def make(self, *parts) -> str:
        text = _NOT_SIMPLE.sub("_", ".".join(str(p) for p in parts))
        name = text
        counter = 2
        while name in self.used:
            name = f"{text}~{counter}"
            counter += 1
        self.used.add(name)
        return name


class _Builder:
    def __init__(self, model: CapabilityModel, index: SynonymyIndex, bound: int,
                 expanded: bool):
        self.model = model
        self.index = index
        self.bound = bound
        self.expanded = expanded
        self.names = _Names()
        self.assertions: list = []
        self.variables: dict = {}
        self.refs: dict = {}  # (kind, ident, t, layer) -> ex.Ref
        if expanded:
            self.state_ids = tuple(sorted(model.properties))
        else:
            self.state_ids = tuple(sorted(c.class_id for c in index.classes))

    # -- variables ---------------------------------------------------------

    def state_of(self, property_id: str) -> str:
        if self.expanded:
            return property_id
        return self.index.class_id(property_id)

    def state_sort(self, state_id: str) -> Datatype:
        return self.model.properties[state_id].datatype

    def declare_variables(self) -> None:
        for state in self.state_ids:
            sort = self.state_sort(state)
            for t in range(self.bound + 1):
                for layer in (0, 1):
                    key = VariableKey("prop", state, t, layer, sort)
                    self._declare(key)
        for cap in sorted(self.model.provided, key=lambda c: c.id):
            for t in range(self.bound + 1):
                self._declare(VariableKey("cap", cap.id, t, None, Datatype.BOOLEAN))

    def _declare(self, key: VariableKey) -> None:
        if key.symbol in self.variables:
            raise UnsupportedExpression(f"variable symbol collision: {key.symbol}")
        self.variables[key.symbol] = key

    def _ref(self, kind: str, ident: str, t: int, layer: Optional[int]) -> ex.Ref:
        # Terms are immutable, so every reference to one variable shares a
        # single Ref.
        key = (kind, ident, t, layer)
        node = self.refs.get(key)
        if node is None:
            node = self.refs[key] = ex.ref(VariableKey(kind, ident, t, layer).symbol)
        return node

    def prop(self, property_id: str, t: int, layer: int) -> ex.Ref:
        return self._ref("prop", self.state_of(property_id), t, layer)

    def state_ref(self, state_id: str, t: int, layer: int) -> ex.Ref:
        return self._ref("prop", state_id, t, layer)

    def cap(self, capability_id: str, t: int) -> ex.Ref:
        return self._ref("cap", capability_id, t, None)

    def emit(self, term: ex.Expression, family: str, element_id: str,
             t: Optional[int], *name_parts, retractable: bool = False) -> None:
        name = self.names.make(*name_parts)
        self.assertions.append(
            Assertion(name, term, family, element_id, t, retractable)
        )

    # -- term construction -------------------------------------------------

    def desugar(self, prop: Property, desc, t: int, layer: int) -> ex.Expression:
        value = ex.const(desc.value)
        return ex.apply_op(desc.relation.value, self.prop(prop.id, t, layer), value)

    def translate_constraint(self, constraint, cap: Capability, t_in: int,
                             layer_in: int, t_out: int, layer_out: int):
        """Map property references to variables: outputs of the capability
        land on the out layer, everything else on the in layer."""
        outputs = cap.output_property_ids()

        def walk(node):
            if isinstance(node, ex.Ref):
                if node.property_id in outputs:
                    return self.prop(node.property_id, t_out, layer_out)
                return self.prop(node.property_id, t_in, layer_in)
            if isinstance(node, ex.Apply):
                if node.op not in ex.OPERATORS:
                    raise UnsupportedExpression(f"operator {node.op!r} in constraint")
                return ex.Apply(node.op, tuple(walk(a) for a in node.args))
            return node

        return walk(constraint)

    # -- assertion families --------------------------------------------------

    def assert_boundaries(self) -> None:
        n = self.bound
        required = self.model.required
        required_inputs = required.input_property_ids()
        required_outputs = required.output_property_ids()

        # Actual values pin the current system state at (0,0).
        for prop in sorted(self.model.all_properties(), key=lambda p: p.id):
            for desc in prop.actual_values():
                if desc.value is None:
                    continue
                self.emit(
                    self.desugar(prop, desc, 0, 0),
                    "init", prop.id, 0, "init", prop.id,
                )

        # Input requirements of the required capability are initial
        # conditions; output requirements are the goal at (n,1).
        for pid in sorted(required_inputs):
            prop = self.model.properties[pid]
            for desc in prop.requirements():
                if desc.value is None:
                    continue
                self.emit(
                    self.desugar(prop, desc, 0, 0),
                    "init", prop.id, 0, "init", prop.id,
                )
        for i, constraint in enumerate(required.constraints):
            refs = ex.references(constraint)
            if refs & required_outputs:
                continue
            term = self.translate_constraint(constraint, required, 0, 0, 0, 0)
            self.emit(term, "init", required.id, 0,
                      "init.constraint", required.id, i)

        for pid in sorted(required_outputs):
            prop = self.model.properties[pid]
            for desc in prop.requirements():
                if desc.value is None:
                    continue
                self.emit(
                    self.desugar(prop, desc, n, 1),
                    "goal", prop.id, n, "goal", prop.id, retractable=True,
                )
        for i, constraint in enumerate(required.constraints):
            refs = ex.references(constraint)
            if not refs & required_outputs:
                continue
            term = self.translate_constraint(constraint, required, 0, 0, n, 1)
            self.emit(term, "goal", required.id, n,
                      "goal.constraint", required.id, i, retractable=True)

        if self.expanded:
            self._assert_alignment()

    def _assert_alignment(self) -> None:
        """Expanded mode only: synonymous properties share one value at the
        initial layer, and goal-side synonyms are pinned together.  With
        class-collapsed variables both hold by construction."""
        n = self.bound
        for cls in self.index.classes:
            rep = cls.class_id
            for member in cls.member_ids:
                if member == rep:
                    continue
                term = ex.apply_op(
                    "eq", self.state_ref(member, 0, 0), self.state_ref(rep, 0, 0)
                )
                self.emit(term, "align", member, 0, "align.init", member)
        goal_props = self.model.required.output_property_ids()
        for pid in sorted(goal_props):
            for syn in sorted(self.index.syn_props[pid]):
                term = ex.apply_op(
                    "eq", self.state_ref(pid, n, 1), self.state_ref(syn, n, 1)
                )
                self.emit(term, "align", pid, n, "align.goal", pid, syn,
                          retractable=True)

    def assert_capability_semantics(self, t: int) -> None:
        for cap in sorted(self.model.provided, key=lambda c: c.id):
            cap_var = self.cap(cap.id, t)
            effects = self.index.effects[cap.id]

            pre_terms = []
            for pid in sorted(cap.input_property_ids()):
                prop = self.model.properties[pid]
                for desc in prop.requirements():
                    if desc.value is None:
                        continue
                    pre_terms.append(self.desugar(prop, desc, t, 0))
            if pre_terms:
                self.emit(
                    ex.implies(cap_var, ex.conj(pre_terms)),
                    "pre", cap.id, t, "pre", cap.id, f"t{t}",
                )

            eff_terms = []
            for pid in sorted(cap.output_property_ids()):
                prop = self.model.properties[pid]
                for desc in prop.assurances():
                    if desc.value is None:
                        # Remain-the-same: the out-layer value restates the
                        # in-layer value.
                        eff_terms.append(
                            ex.apply_op(
                                "eq", self.prop(pid, t, 1), self.prop(pid, t, 0)
                            )
                        )
                    else:
                        eff_terms.append(self.desugar(prop, desc, t, 1))
            if eff_terms:
                self.emit(
                    ex.implies(cap_var, ex.conj(eff_terms)),
                    "eff", cap.id, t, "eff", cap.id, f"t{t}",
                )

            for i, constraint in enumerate(cap.constraints):
                term = self.translate_constraint(constraint, cap, t, 0, t, 1)
                self.emit(
                    ex.implies(cap_var, term),
                    "constraint", cap.id, t, "constraint", cap.id, i, f"t{t}",
                )

            if self.expanded:
                for pid in sorted(effects.eff):
                    for syn in sorted(self.index.syn_props[pid]):
                        term = ex.implies(
                            cap_var,
                            ex.apply_op(
                                "eq",
                                self.state_ref(pid, t, 1),
                                self.state_ref(syn, t, 1),
                            ),
                        )
                        self.emit(term, "prop", cap.id, t,
                                  "prop", cap.id, pid, syn, f"t{t}")

    def assert_layer_frame_axioms(self, t: int) -> None:
        for state in self.state_ids:
            cls_id = self.index.class_id(state)
            sort = self.state_sort(state)
            before = self.state_ref(state, t, 0)
            after = self.state_ref(state, t, 1)
            if sort is Datatype.BOOLEAN:
                pos = affecting_capabilities(self.index, cls_id, "positive")
                neg = affecting_capabilities(self.index, cls_id, "negative")
                self.emit(
                    ex.implies(
                        after,
                        ex.disj([before] + [self.cap(c, t) for c in pos]),
                    ),
                    "frame", state, t, "frame", state, f"t{t}", "pos",
                )
                self.emit(
                    ex.implies(
                        ex.negate(after),
                        ex.disj([ex.negate(before)] + [self.cap(c, t) for c in neg]),
                    ),
                    "frame", state, t, "frame", state, f"t{t}", "neg",
                )
            else:
                num = affecting_capabilities(self.index, cls_id, "numeric")
                unchanged = ex.apply_op("eq", after, before)
                if num:
                    term = ex.implies(
                        ex.conj([ex.negate(self.cap(c, t)) for c in num]), unchanged
                    )
                else:
                    term = unchanged
                self.emit(term, "frame", state, t, "frame", state, f"t{t}", "real")

    def assert_mutexes(self, t: int) -> None:
        for first, second in mutex_pairs(self.model, self.index):
            term = ex.disj(
                [ex.negate(self.cap(first, t)), ex.negate(self.cap(second, t))]
            )
            self.emit(term, "mutex", f"{first}|{second}", t,
                      "mutex", first, second, f"t{t}")

    def assert_happening_continuation(self) -> None:
        # Booleans and reals are kept in separate assertion families so the
        # boolean side can later diverge for durative behavior.
        for t in range(1, self.bound + 1):
            for state in self.state_ids:
                if self.state_sort(state) is not Datatype.BOOLEAN:
                    continue
                now = self.state_ref(state, t, 0)
                prev = self.state_ref(state, t - 1, 1)
                self.emit(ex.implies(now, prev), "cont", state, t,
                          "cont", state, f"t{t}", "pos")
                self.emit(
                    ex.implies(ex.negate(now), ex.negate(prev)),
                    "cont", state, t, "cont", state, f"t{t}", "neg",
                )
        for t in range(1, self.bound + 1):
            for state in self.state_ids:
                if self.state_sort(state) is Datatype.BOOLEAN:
                    continue
                term = ex.apply_op(
                    "eq", self.state_ref(state, t, 0), self.state_ref(state, t - 1, 1)
                )
                self.emit(term, "cont", state, t, "cont", state, f"t{t}", "real")


def select_logic(model: CapabilityModel) -> str:
    for cap in model.capabilities():
        for constraint in cap.constraints:
            if not ex.is_linear(constraint):
                return "QF_NRA"
    return "QF_LRA"


def build(model: CapabilityModel, index: SynonymyIndex, bound: int,
          expanded: bool = False) -> Encoding:
    """Build the complete encoding for happenings 0..bound.

    Pure and deterministic: identical inputs produce identical assertion
    lists, byte for byte after emission.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    builder = _Builder(model, index, bound, expanded)
    builder.declare_variables()
    builder.assert_boundaries()
    for t in range(bound + 1):
        builder.assert_capability_semantics(t)
    for t in range(bound + 1):
        builder.assert_layer_frame_axioms(t)
    for t in range(bound + 1):
        builder.assert_mutexes(t)
    builder.assert_happening_continuation()

    classes = {
        cls.class_id: cls.member_ids for cls in index.classes
    }
    unbound_inputs = {}
    for cap in model.provided:
        entries = tuple(
            (pid, builder.state_of(pid))
            for pid in sorted(cap.input_property_ids())
            if not model.properties[pid].requirements()
            and not model.properties[pid].actual_values()
        )
        if entries:
            unbound_inputs[cap.id] = entries
    return Encoding(
        bound=bound,
        logic=select_logic(model),
        variables=builder.variables,
        assertions=builder.assertions,
        classes=classes,
        unbound_inputs=unbound_inputs,
    )
