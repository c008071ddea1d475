"""Synonym alignment: the identity machinery that replaces global variables.

Capabilities modeled by different vendors refer to the same physical object
under different identifiers.  Products (and information entities) of the
same type are synonymous; their same-typed properties are synonymous and
are closed transitively into classes.  A property's class key is its
carrier's kind, the carrier's type and the property's type description,
so a product and an information entity of one type id stay apart; a
resource property is a class of its own.  The encoder creates one state
variable per class, so a capability writing one member is visible to every
capability reading another.

The index also holds the tables the encoder and the oracle read at every
happening: the mutex pairs and, per class, the capabilities affecting it.
They depend only on the model, so build_index computes them once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Capability, CapabilityModel, Datatype, Relation
from . import expr as ex


@dataclass(frozen=True)
class PropertyClass:
    """One equivalence class of synonymous properties.

    class_id is the lexicographically smallest member id and doubles as the
    SMT state-variable name in the class-collapsed encoding.
    """

    class_id: str
    member_ids: tuple
    type_description_id: str
    datatype: Datatype


@dataclass(frozen=True)
class EffectSets:
    """Directly affected output properties of one capability."""

    eff: frozenset
    positive: frozenset
    negative: frozenset
    numeric: frozenset
    # The outputs referenced by a constraint that touches outputs.
    constrained: frozenset


# The effect kinds a class can be affected by, as named in EffectSets.
_KINDS = ("positive", "negative", "numeric")


@dataclass
class SynonymyIndex:
    classes: tuple
    class_of: dict
    syn_props: dict
    effects: dict
    # (class id, kind) -> the provided capabilities, sorted, with an effect
    # of that kind ('positive', 'negative' or 'numeric') on any member of
    # the class.
    affecting: dict
    # Unordered provided-capability pairs, sorted, whose input/output
    # property sets, mapped to classes, intersect.
    mutexes: tuple

    def class_id(self, property_id: str) -> str:
        return self.class_of[property_id].class_id


def build_index(model: CapabilityModel) -> SynonymyIndex:
    """Group properties into classes: same carrier kind, carrier type and
    type description, or the identical resource property."""
    groups: dict = {}
    for prop in model.all_properties():
        carrier = model.entities[prop.carrier_id]
        if carrier.kind == "resource":
            # Resource-carried state never merges across resources; the
            # property id itself is the identity.
            key = ("resource-property", prop.id)
        else:
            key = (carrier.kind, carrier.type_id, prop.type_description.id)
        groups.setdefault(key, []).append(prop)

    classes = []
    class_of: dict = {}
    syn_props: dict = {}
    for _, members in sorted(groups.items(), key=lambda kv: min(p.id for p in kv[1])):
        member_ids = tuple(sorted(p.id for p in members))
        cls = PropertyClass(
            class_id=member_ids[0],
            member_ids=member_ids,
            type_description_id=members[0].type_description.id,
            datatype=members[0].datatype,
        )
        classes.append(cls)
        for pid in member_ids:
            class_of[pid] = cls
            syn_props[pid] = frozenset(m for m in member_ids if m != pid)

    effects = {cap.id: effect_sets(model, cap) for cap in model.provided}
    return SynonymyIndex(
        classes=tuple(classes),
        class_of=class_of,
        syn_props=syn_props,
        effects=effects,
        affecting=_affecting(classes, effects),
        mutexes=_mutexes(model, class_of),
    )


def effect_sets(model: CapabilityModel, cap: Capability) -> EffectSets:
    """Split the outputs of a provided capability into effect categories.

    An output is an effect when it carries an assurance or occurs in a
    constraint that touches outputs.  Boolean effects are signed by their
    assured constant; a valueless assurance means the value is kept and the
    capability stays out of the frame-axiom sets for that property.  Real
    effects are always numeric, even if the assured value happens to equal
    the previous one.
    """
    outputs = cap.outputs
    touched_by_constraint: set = set()
    for constraint in cap.constraints:
        if cap.is_effect(constraint):
            touched_by_constraint |= ex.references(constraint) & outputs

    eff: set = set()
    positive: set = set()
    negative: set = set()
    numeric: set = set()
    for pid in outputs:
        prop = model.properties[pid]
        assurances = prop.assurances()
        if not assurances and pid not in touched_by_constraint:
            continue
        eff.add(pid)
        if prop.datatype is Datatype.REAL:
            numeric.add(pid)
            continue
        for desc in assurances:
            if desc.value is not None and desc.relation in (Relation.EQ, Relation.NEQ):
                asserted_true = bool(desc.value) == (desc.relation is Relation.EQ)
                (positive if asserted_true else negative).add(pid)

    return EffectSets(
        eff=frozenset(eff),
        positive=frozenset(positive),
        negative=frozenset(negative),
        numeric=frozenset(numeric),
        constrained=frozenset(touched_by_constraint),
    )


def _affecting(classes, effects: dict) -> dict:
    """Per class and kind, the provided capabilities with an effect of that
    kind on any member of the class.

    This is the per-class union of the direct and synonymous-capability
    sets: reading "directly related" as "directly affected" keeps a
    capability that only writes the synonym of its own input inside the
    frame disjunction, which the transport pattern requires.
    """
    table = {}
    for cls in classes:
        members = set(cls.member_ids)
        for kind in _KINDS:
            table[cls.class_id, kind] = tuple(
                cap_id for cap_id in sorted(effects)
                if getattr(effects[cap_id], kind) & members
            )
    return table


def _mutexes(model: CapabilityModel, class_of: dict) -> tuple:
    caps = sorted(model.provided, key=lambda c: c.id)
    touched = [
        {class_of[p].class_id for p in cap.inputs | cap.outputs} for cap in caps
    ]
    return tuple(
        (first.id, caps[j].id)
        for i, first in enumerate(caps)
        for j in range(i + 1, len(caps))
        if touched[i] & touched[j]
    )

