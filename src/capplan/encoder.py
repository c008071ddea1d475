"""Bounded-happenings SMT encoding of a capability planning problem.

One happening is a moment of discrete change with two layers: layer 0
holds the variable values before capabilities apply, layer 1 the values
afterwards.  The encoding for bound n declares variables for happenings
0..n and asserts blocks of assertions in a fixed deterministic order:

1. the boundary block: initial conditions, the goal at (n,1) and, in
   expanded mode, the alignment of synonyms;
2. one block per happening of each happening family, family by family:
   capability semantics (pre/eff/constraint/prop) for happenings 0..n,
   layer frame axioms for 0..n, mutexes for 0..n, Boolean continuation
   for 1..n and Real continuation for 1..n.

Only the boundary block depends on the bound.  Its goal side (the goal
family, plus the goal alignment in expanded mode) is marked retractable;
every other assertion reads the same at every larger bound.  Happening
blocks do not depend on the bound at all, so build() takes the encoding of
another bound as `previous`, reuses its happening blocks and its shared
Ref table, and builds only the blocks of the happenings it lacks.

Each block names its assertions with its own allocator.  Names of
different blocks never collide: different families start with different
words (the two continuation families end differently), and within one
family the `t<k>` component fixes the happening.  So a `~n` suffix only
comes from a clash within one block, and every name is the one a single
allocator over the whole encoding would give.

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
from .synonymy import SynonymyIndex

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


@dataclass(frozen=True, slots=True)
class _Blocks:
    """What build() reuses of an encoding for another bound."""

    expanded: bool
    refs: dict  # (kind, ident, t, layer) -> ex.Ref, shared by every term
    # Per happening family, in emission order: one tuple of assertions per
    # happening 0..bound.
    happenings: tuple


@dataclass
class Encoding:
    bound: int
    logic: str
    variables: dict  # symbol -> VariableKey, in declaration order
    assertions: list
    classes: dict  # class id -> tuple of member property ids
    unbound_inputs: dict = field(default_factory=dict)  # cap id -> (prop, state)
    by_name: dict = field(default_factory=dict)
    blocks: Optional[_Blocks] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.by_name:
            self.by_name = {a.name: a for a in self.assertions}

    def restricted(self, names) -> "Encoding":
        """The named assertions, in this encoding's order, and only the
        variables they reference.  Nothing of the reuse state is kept, so
        it cannot seed build()."""
        keep = set(names)
        assertions = [a for a in self.assertions if a.name in keep]
        used = set().union(*(ex.references(a.term) for a in assertions))
        return Encoding(
            bound=self.bound,
            logic=self.logic,
            variables={s: k for s, k in self.variables.items() if s in used},
            assertions=assertions,
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
    def __init__(self, model: CapabilityModel, index: SynonymyIndex,
                 expanded: bool, refs: dict):
        self.model = model
        self.index = index
        self.expanded = expanded
        self.names = _Names()
        self.assertions: list = []
        self.variables: dict = {}
        self.refs = refs  # (kind, ident, t, layer) -> ex.Ref
        self.caps = tuple(sorted(model.provided, key=lambda c: c.id))
        if expanded:
            self.state_ids = tuple(sorted(model.properties))
        else:
            self.state_ids = tuple(sorted(c.class_id for c in index.classes))

    def block(self, fill, *args) -> tuple:
        """The assertions fill(self, *args) makes, named by a fresh
        allocator."""
        self.names, self.assertions = _Names(), []
        fill(self, *args)
        return tuple(self.assertions)

    # -- variables ---------------------------------------------------------

    def state_of(self, property_id: str) -> str:
        if self.expanded:
            return property_id
        return self.index.class_id(property_id)

    def state_sort(self, state_id: str) -> Datatype:
        return self.model.properties[state_id].datatype

    def declare_variables(self, bound: int) -> None:
        for state in self.state_ids:
            sort = self.state_sort(state)
            for t in range(bound + 1):
                for layer in (0, 1):
                    key = VariableKey("prop", state, t, layer, sort)
                    self._declare(key)
        for cap in self.caps:
            for t in range(bound + 1):
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
        return self._place(constraint, cap.outputs,
                           (t_in, layer_in), (t_out, layer_out))

    def _place(self, node, outputs, in_at, out_at):
        # A method, not a nested function calling itself: that would be a
        # reference cycle keeping the builder alive until the cycle
        # collector runs.
        if isinstance(node, ex.Ref):
            at = out_at if node.property_id in outputs else in_at
            return self.prop(node.property_id, *at)
        if isinstance(node, ex.Apply):
            if node.op not in ex.OPERATORS:
                raise UnsupportedExpression(f"operator {node.op!r} in constraint")
            return ex.Apply(node.op, tuple(
                self._place(a, outputs, in_at, out_at) for a in node.args
            ))
        return node

    # -- assertion families --------------------------------------------------

    def assert_boundaries(self, n: int) -> None:
        required = self.model.required

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
        for pid in sorted(required.inputs):
            prop = self.model.properties[pid]
            for desc in prop.requirements():
                if desc.value is None:
                    continue
                self.emit(
                    self.desugar(prop, desc, 0, 0),
                    "init", prop.id, 0, "init", prop.id,
                )
        for i, constraint in enumerate(required.constraints):
            if required.is_effect(constraint):
                continue
            term = self.translate_constraint(constraint, required, 0, 0, 0, 0)
            self.emit(term, "init", required.id, 0,
                      "init.constraint", required.id, i)

        for pid in sorted(required.outputs):
            prop = self.model.properties[pid]
            for desc in prop.requirements():
                if desc.value is None:
                    continue
                self.emit(
                    self.desugar(prop, desc, n, 1),
                    "goal", prop.id, n, "goal", prop.id, retractable=True,
                )
        for i, constraint in enumerate(required.constraints):
            if not required.is_effect(constraint):
                continue
            term = self.translate_constraint(constraint, required, 0, 0, n, 1)
            self.emit(term, "goal", required.id, n,
                      "goal.constraint", required.id, i, retractable=True)

        if self.expanded:
            self._assert_alignment(n)

    def _assert_alignment(self, n: int) -> None:
        """Expanded mode only: synonymous properties share one value at the
        initial layer, and goal-side synonyms are pinned together.  With
        class-collapsed variables both hold by construction."""
        for cls in self.index.classes:
            rep = cls.class_id
            for member in cls.member_ids:
                if member == rep:
                    continue
                term = ex.apply_op(
                    "eq", self.state_ref(member, 0, 0), self.state_ref(rep, 0, 0)
                )
                self.emit(term, "align", member, 0, "align.init", member)
        for pid in sorted(self.model.required.outputs):
            for syn in sorted(self.index.syn_props[pid]):
                term = ex.apply_op(
                    "eq", self.state_ref(pid, n, 1), self.state_ref(syn, n, 1)
                )
                self.emit(term, "align", pid, n, "align.goal", pid, syn,
                          retractable=True)

    def assert_capability_semantics(self, t: int) -> None:
        for cap in self.caps:
            cap_var = self.cap(cap.id, t)
            effects = self.index.effects[cap.id]

            pre_terms = []
            for pid in sorted(cap.inputs):
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
            for pid in sorted(cap.outputs):
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
                pos = self.index.affecting[cls_id, "positive"]
                neg = self.index.affecting[cls_id, "negative"]
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
                num = self.index.affecting[cls_id, "numeric"]
                unchanged = ex.apply_op("eq", after, before)
                if num:
                    term = ex.implies(
                        ex.conj([ex.negate(self.cap(c, t)) for c in num]), unchanged
                    )
                else:
                    term = unchanged
                self.emit(term, "frame", state, t, "frame", state, f"t{t}", "real")

    def assert_mutexes(self, t: int) -> None:
        # Terms are immutable, so each `(not cap)` serves every pair it is in.
        idle = {cap.id: ex.negate(self.cap(cap.id, t)) for cap in self.caps}
        for first, second in self.index.mutexes:
            term = ex.disj([idle[first], idle[second]])
            self.emit(term, "mutex", f"{first}|{second}", t,
                      "mutex", first, second, f"t{t}")

    # Booleans and reals are kept in separate assertion families so the
    # boolean side can later diverge for durative behavior.

    def assert_boolean_continuation(self, t: int) -> None:
        if t == 0:
            return  # happening 0 continues nothing
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

    def assert_real_continuation(self, t: int) -> None:
        if t == 0:
            return
        for state in self.state_ids:
            if self.state_sort(state) is Datatype.BOOLEAN:
                continue
            term = ex.apply_op(
                "eq", self.state_ref(state, t, 0), self.state_ref(state, t - 1, 1)
            )
            self.emit(term, "cont", state, t, "cont", state, f"t{t}", "real")


# The happening families, in emission order; each asserts the block of one
# happening.
_HAPPENING_FAMILIES = (
    _Builder.assert_capability_semantics,
    _Builder.assert_layer_frame_axioms,
    _Builder.assert_mutexes,
    _Builder.assert_boolean_continuation,
    _Builder.assert_real_continuation,
)


def select_logic(model: CapabilityModel) -> str:
    for cap in model.capabilities():
        for constraint in cap.constraints:
            if not ex.is_linear(constraint):
                return "QF_NRA"
    return "QF_LRA"


def build(model: CapabilityModel, index: SynonymyIndex, bound: int,
          expanded: bool = False, previous: Optional[Encoding] = None) -> Encoding:
    """Build the complete encoding for happenings 0..bound.

    `previous` is an encoding that build() made from the same model, index
    and mode, at any bound.  Its happening blocks and Ref table are reused,
    and only the happenings it lacks are encoded; the result does not
    depend on it.  Pure and deterministic: identical inputs produce
    identical assertion lists, byte for byte after emission.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    reused = previous.blocks if previous is not None else None
    if reused is not None and reused.expanded != expanded:
        raise ValueError("previous encoding was built in the other synonym mode")
    builder = _Builder(model, index, expanded, dict(reused.refs) if reused else {})
    builder.declare_variables(bound)
    happenings = []
    for f, fill in enumerate(_HAPPENING_FAMILIES):
        blocks = list(reused.happenings[f][: bound + 1]) if reused else []
        blocks += [builder.block(fill, t) for t in range(len(blocks), bound + 1)]
        happenings.append(tuple(blocks))
    assertions = list(builder.block(_Builder.assert_boundaries, bound))
    for blocks in happenings:
        for block in blocks:
            assertions += block

    classes = {
        cls.class_id: cls.member_ids for cls in index.classes
    }
    unbound_inputs = {}
    for cap in model.provided:
        entries = tuple(
            (pid, builder.state_of(pid)) for pid in model.parameter_ids(cap)
        )
        if entries:
            unbound_inputs[cap.id] = entries
    return Encoding(
        bound=bound,
        logic=select_logic(model),
        variables=builder.variables,
        assertions=assertions,
        classes=classes,
        unbound_inputs=unbound_inputs,
        blocks=_Blocks(expanded, builder.refs, tuple(happenings)),
    )
