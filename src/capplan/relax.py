"""Relaxed planning graph: can the goal hold after any number of happenings?

A forward relaxation over the synonymy classes, in the manner of Blum &
Furst, "Fast Planning Through Planning Graph Analysis" (AIJ 1997), with
the numeric relaxation of Hoffmann, "The Metric-FF Planning System"
(JAIR 2003).  Layer h maps each class to the values it may hold after h
happenings.  Values only accumulate: a layer holds every value of the
layer before, and no effect, mutex or frame axiom takes one away.  ⊤ is
a Real class that may hold any value; a Boolean class at ⊤ holds
{true, false}.

- Layer 0.  A class holds its `eq` pins: `eq` actual values, plus the
  required capability's `eq` input requirements.  Contradictory pins mean
  there is no initial state.  An unpinned class holds ⊤.
- Applicability.  A provided capability applies at layer h when each of
  its valued input requirements holds for some value of its class at
  layer h; ⊤ satisfies every relation.  Constraints that are no effects
  count as satisfiable.
- Effects.  Layer h+1 is layer h plus the effects of every capability
  applicable at layer h, for each property in `index.effects[cap].eff`:
  a Boolean `eq v` assurance adds v and a Boolean `neq v` one adds ¬v; a
  Real `eq` assurance adds its value; any other relation, or an output
  that an effect constraint touches, adds ⊤; a valueless (remain-the-same)
  assurance adds nothing.
- Goal.  The goal can hold at layer h when each valued output requirement
  of the required capability holds for some value of its class.  The
  required capability's constraints count as satisfiable.
- Level-off.  A layer that adds nothing: every later layer equals it.

Every state a plan of h happenings reaches is covered by layer h, so when
the layers level off without the goal, or there is no initial state, no
bound of any length has a plan.

`relevant_capabilities` is the backward rule of Nebel, Dimopoulos &
Koehler, "Ignoring Irrelevant Facts and Operators in Plan Generation"
(ECP 1997), over the same classes: a capability is relevant when it
writes a class the goal, or a relevant capability, touches.  An
irrelevant capability writes only classes that nothing relevant reads
and that only irrelevant capabilities write.  So in any plan it can be
left out, with those classes held at their initial values: fixing it
false changes no minimal bound, and a minimal unsat core never needs
that fact.

The module reads the model and the synonymy index only: it imports
neither the oracle, which stays independent ground truth, nor the
encoder.
"""

from __future__ import annotations

import operator
from typing import Optional

from . import expr as ex
from .model import Capability, CapabilityModel, Datatype, Relation
from .synonymy import SynonymyIndex

# The value of a Real class at ⊤.
_ANY = object()

_HOLDS = {
    Relation.EQ: operator.eq,
    Relation.NEQ: operator.ne,
    Relation.LT: operator.lt,
    Relation.GT: operator.gt,
    Relation.LEQ: operator.le,
    Relation.GEQ: operator.ge,
}


def goal_happenings(model: CapabilityModel, index: SynonymyIndex) -> Optional[int]:
    """The fewest happenings after which the relaxed goal can hold, or None
    when the layers level off without it: then no bound has a plan."""
    layer = _initial_layer(model, index)
    if layer is None:
        return None
    goal = _needs(model, index, model.required.outputs)
    steps = [(_needs(model, index, cap.inputs), _adds(model, index, cap))
             for cap in model.provided]
    happenings = 0
    while True:
        happenings += 1
        adds = [add for needs, effects in steps if _all_hold(needs, layer)
                for add in effects]
        grown = False
        for cid, values in adds:
            if not values <= layer[cid]:
                layer[cid] |= values
                grown = True
        if _all_hold(goal, layer):
            return happenings
        if not grown:
            return None


def relevant_capabilities(model: CapabilityModel, index: SynonymyIndex) -> frozenset:
    """The ids of the provided capabilities that can matter to the goal.

    The fixpoint starts from the classes of the required capability's
    outputs and of the properties its output-touching constraints read.
    A provided capability is relevant when `index.effects[cap].eff`
    writes a relevant class, and each class it touches (inputs, outputs,
    constraint references) becomes relevant."""
    required = model.required
    goal = set(required.outputs)
    for constraint in required.constraints:
        if required.is_effect(constraint):
            goal |= ex.references(constraint)
    writers: dict = {}
    for cap in model.provided:
        for pid in index.effects[cap.id].eff:
            writers.setdefault(index.class_id(pid), []).append(cap)
    classes = {index.class_id(pid) for pid in goal}
    pending = list(classes)
    relevant = set()
    while pending:
        for cap in writers.get(pending.pop(), ()):
            if cap.id in relevant:
                continue
            relevant.add(cap.id)
            touched = {*cap.inputs, *cap.outputs}
            for constraint in cap.constraints:
                touched |= ex.references(constraint)
            for cid in {index.class_id(pid) for pid in touched} - classes:
                classes.add(cid)
                pending.append(cid)
    return frozenset(relevant)


def _top(datatype: Datatype) -> frozenset:
    return frozenset((True, False)) if datatype is Datatype.BOOLEAN else frozenset((_ANY,))


def _initial_layer(model: CapabilityModel, index: SynonymyIndex) -> Optional[dict]:
    """Layer 0 as class id -> set of values, or None for contradictory
    pins."""
    pins: dict = {}
    required_inputs = set(model.required.inputs)
    for prop in model.all_properties():
        descriptions = prop.actual_values()
        if prop.id in required_inputs:
            descriptions += prop.requirements()
        for desc in descriptions:
            if desc.value is not None and desc.relation is Relation.EQ:
                pins.setdefault(index.class_id(prop.id), set()).add(desc.value)
    if any(len(values) > 1 for values in pins.values()):
        return None
    return {cls.class_id: set(pins.get(cls.class_id, _top(cls.datatype)))
            for cls in index.classes}


def _needs(model: CapabilityModel, index: SynonymyIndex, ports: tuple) -> tuple:
    """The valued requirements of the properties `ports`, as (class id,
    relation, value)."""
    return tuple(
        (index.class_id(pid), _HOLDS[desc.relation], desc.value)
        for pid in ports
        for desc in model.properties[pid].requirements() if desc.value is not None
    )


def _all_hold(needs: tuple, layer: dict) -> bool:
    return all(any(v is _ANY or holds(v, value) for v in layer[cid])
               for cid, holds, value in needs)


def _adds(model: CapabilityModel, index: SynonymyIndex, cap: Capability) -> tuple:
    """The values a provided capability adds, as (class id, frozenset)."""
    effects = index.effects[cap.id]
    adds = []
    for pid in sorted(effects.eff):
        prop = model.properties[pid]
        cid = index.class_id(pid)
        if pid in effects.constrained:
            adds.append((cid, _top(prop.datatype)))
            continue
        for desc in prop.assurances():
            if desc.value is None:
                continue
            if prop.datatype is Datatype.BOOLEAN:
                value = desc.value if desc.relation is Relation.EQ else not desc.value
                adds.append((cid, frozenset((value,))))
            elif desc.relation is Relation.EQ:
                adds.append((cid, frozenset((desc.value,))))
            else:
                adds.append((cid, _top(prop.datatype)))
    return tuple(adds)
