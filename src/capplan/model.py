"""Capability data model: typed properties, carriers, capabilities.

Parses the canonical JSON-shaped document format, resolves every
reference and validates the type invariants.  Each fact is stored once:
products, resources and information entities are Entity records in one
`entities` dict, told apart by `kind`, and a capability holds the sets of
property ids its input and output ports use.  Parsing checks each port
(a declared entity, a list of declared properties that entity carries)
and keeps only those ids.  Models are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from . import expr as ex
from .errors import DanglingReference, DuplicateId, InvalidModel, SchemaError


class Datatype(Enum):
    BOOLEAN = "Boolean"
    REAL = "Real"


class ExpressionGoal(Enum):
    REQUIREMENT = "requirement"
    ASSURANCE = "assurance"
    ACTUAL_VALUE = "actualValue"


class Relation(Enum):
    EQ = "eq"
    NEQ = "neq"
    LT = "lt"
    GT = "gt"
    LEQ = "leq"
    GEQ = "geq"


@dataclass(frozen=True, slots=True)
class TypeDescription:
    id: str
    datatype: Datatype
    unit: Optional[str] = None
    label: Optional[str] = None


@dataclass(frozen=True, slots=True)
class InstanceDescription:
    goal: ExpressionGoal
    relation: Relation = Relation.EQ
    value: Union[bool, Fraction, None] = None


@dataclass(frozen=True, slots=True)
class Property:
    id: str
    type_description: TypeDescription
    carrier_id: str
    instance_descriptions: tuple = ()

    @property
    def datatype(self) -> Datatype:
        return self.type_description.datatype

    def with_goal(self, goal: ExpressionGoal) -> tuple:
        return tuple(d for d in self.instance_descriptions if d.goal is goal)

    def requirements(self) -> tuple:
        return self.with_goal(ExpressionGoal.REQUIREMENT)

    def assurances(self) -> tuple:
        return self.with_goal(ExpressionGoal.ASSURANCE)

    def actual_values(self) -> tuple:
        return self.with_goal(ExpressionGoal.ACTUAL_VALUE)


@dataclass(frozen=True, slots=True)
class Entity:
    """A product, resource or information entity.  `type_id` is the
    product or information type; a resource has none.  The properties it
    carries name it as their `carrier_id`."""

    id: str
    kind: str  # "product" | "resource" | "information"
    type_id: Optional[str]


@dataclass(frozen=True, slots=True)
class Capability:
    """A capability; `inputs` and `outputs` are the ids of the properties
    its ports use."""

    id: str
    inputs: frozenset = frozenset()
    outputs: frozenset = frozenset()
    constraints: tuple = ()

    def is_effect(self, constraint) -> bool:
        """Whether a constraint of this capability references one of its
        outputs.  An effect relates the values before the capability
        applies to those after it (for the required capability: the
        initial state to the goal); any other constraint is a
        precondition on the values before."""
        return not self.outputs.isdisjoint(ex.references(constraint))


@dataclass(frozen=True, slots=True)
class CapabilityModel:
    type_descriptions: dict
    entities: dict
    provided: tuple
    required: Capability
    properties: dict = field(default_factory=dict)

    def all_properties(self) -> tuple:
        return tuple(self.properties.values())

    def capabilities(self) -> tuple:
        return self.provided + (self.required,)

    def capability(self, capability_id: str) -> Capability:
        for cap in self.capabilities():
            if cap.id == capability_id:
                return cap
        raise KeyError(capability_id)

    def parameter_ids(self, capability: Capability) -> tuple:
        """The capability's input properties, sorted, that no requirement
        and no actual value fixes: the plan chooses their values."""
        return tuple(
            pid for pid in sorted(capability.inputs)
            if not self.properties[pid].requirements()
            and not self.properties[pid].actual_values()
        )


@dataclass(frozen=True, slots=True)
class Diagnostic:
    code: str
    element_id: str
    message: str


_TOP_LEVEL_KEYS = ("typeDescriptions", "products", "resources", "information", "capabilities")

# Per entity kind, in parsing order: its document key, its kind, its name
# in messages and the key of its type id (a resource has none).
_ENTITY_KINDS = (
    ("products", "product", "product", "productTypeId"),
    ("resources", "resource", "resource", None),
    ("information", "information", "information entity", "typeId"),
)

# Characters that would break quoted SMT-LIB symbols.
_FORBIDDEN_ID_CHARS = ("|", "\\")


def merge_documents(domain, problem) -> dict:
    """Combine a domain and a problem document; duplicate ids are rejected
    later by parse_model."""
    merged = {key: [] for key in _TOP_LEVEL_KEYS}
    for doc in (domain, problem):
        if doc is None:
            continue
        for key in _TOP_LEVEL_KEYS:
            merged[key] = merged[key] + list(doc.get(key, []))
    return merged


def parse_model(document) -> CapabilityModel:
    """Parse the canonical model document into a fully resolved model.

    Accepts a JSON string or an already-decoded dict.  Raises SchemaError,
    DuplicateId or DanglingReference on malformed input.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("model document must be an object")
    unknown = [k for k in document if k not in _TOP_LEVEL_KEYS and not k.startswith("$")]
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")

    type_descriptions: dict = {}
    for doc in _as_list(document, "typeDescriptions"):
        td = _parse_type_description(doc)
        if td.id in type_descriptions:
            raise DuplicateId(f"type description {td.id!r} declared twice")
        type_descriptions[td.id] = td

    properties: dict = {}
    entities: dict = {}
    for key, kind, what, type_key in _ENTITY_KINDS:
        for doc in _as_list(document, key):
            eid = _require_id(doc, what)
            if eid in entities:
                raise DuplicateId(f"entity {eid!r} declared twice")
            type_id = _require_str(doc, type_key, f"{what} {eid}") if type_key else None
            for pdoc in _as_list(doc, "properties"):
                prop = _parse_property(pdoc, eid, type_descriptions)
                if prop.id in properties:
                    raise DuplicateId(f"property {prop.id!r} declared twice")
                properties[prop.id] = prop
            entities[eid] = Entity(eid, kind, type_id)

    by_kind = {"provided": [], "required": []}
    cap_ids: set = set()
    for doc in _as_list(document, "capabilities"):
        kind, cap = _parse_capability(doc, entities, properties)
        if cap.id in cap_ids:
            raise DuplicateId(f"capability {cap.id!r} declared twice")
        cap_ids.add(cap.id)
        by_kind[kind].append(cap)

    required = by_kind["required"]
    if len(required) != 1:
        raise SchemaError(
            f"exactly one required capability expected, found {len(required)}"
        )

    return CapabilityModel(
        type_descriptions=type_descriptions,
        entities=entities,
        provided=tuple(by_kind["provided"]),
        required=required[0],
        properties=properties,
    )


def _as_list(doc, key):
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{key} must be a list")
    return value


def _require_id(doc, what) -> str:
    return _require_str(doc, "id", what)


def _require_str(doc, key, what) -> str:
    if not isinstance(doc, dict) or not isinstance(doc.get(key), str) or not doc[key]:
        raise SchemaError(f"{what} needs a non-empty string {key!r}")
    return doc[key]


def _parse_type_description(doc) -> TypeDescription:
    tid = _require_id(doc, "type description")
    raw = doc.get("datatype")
    try:
        datatype = Datatype(raw)
    except ValueError:
        raise SchemaError(f"type description {tid}: datatype must be Boolean or Real")
    return TypeDescription(
        id=tid, datatype=datatype, unit=doc.get("unit"), label=doc.get("label")
    )


def _parse_property(doc, carrier_id, type_descriptions) -> Property:
    pid = _require_id(doc, "property")
    td_id = _require_str(doc, "typeDescription", f"property {pid}")
    if td_id not in type_descriptions:
        raise DanglingReference(f"property {pid}: unknown type description {td_id!r}")
    descriptions = []
    for idoc in _as_list(doc, "instanceDescriptions"):
        descriptions.append(_parse_instance_description(idoc, pid))
    return Property(
        id=pid,
        type_description=type_descriptions[td_id],
        carrier_id=carrier_id,
        instance_descriptions=tuple(descriptions),
    )


def _parse_instance_description(doc, pid) -> InstanceDescription:
    if not isinstance(doc, dict):
        raise SchemaError(f"property {pid}: instance description must be an object")
    try:
        goal = ExpressionGoal(doc.get("expressionGoal"))
    except ValueError:
        raise SchemaError(
            f"property {pid}: expressionGoal must be requirement/assurance/actualValue"
        )
    try:
        relation = Relation(doc.get("relation", "eq"))
    except ValueError:
        raise SchemaError(f"property {pid}: unknown relation {doc.get('relation')!r}")
    value = doc.get("value")
    if value is not None and not isinstance(value, bool):
        value = ex.parse_number(value)
    return InstanceDescription(goal=goal, relation=relation, value=value)


def _parse_capability(doc, entities, properties) -> tuple:
    """The capability's kind, "provided" or "required", and the capability."""
    cid = _require_id(doc, "capability")
    kind = doc.get("kind")
    if kind not in ("provided", "required"):
        raise SchemaError(f"capability {cid}: kind must be provided or required")

    def parse_ports(key) -> frozenset:
        used = set()
        for pdoc in _as_list(doc, key):
            eid = _require_str(pdoc, "entity", f"capability {cid} {key} entry")
            if eid not in entities:
                raise DanglingReference(f"capability {cid}: unknown entity {eid!r}")
            prop_ids = pdoc.get("properties", [])
            if not isinstance(prop_ids, list):
                raise SchemaError(f"capability {cid}: port properties must be a list")
            for prop_id in prop_ids:
                if not isinstance(prop_id, str):
                    raise SchemaError(f"capability {cid}: {prop_id!r} is not a string")
                if prop_id not in properties:
                    raise DanglingReference(
                        f"capability {cid}: unknown property {prop_id!r}"
                    )
                if properties[prop_id].carrier_id != eid:
                    raise SchemaError(
                        f"capability {cid}: property {prop_id!r} is not carried by {eid!r}"
                    )
            used.update(prop_ids)
        return frozenset(used)

    constraints = tuple(
        ex.parse_expression(cdoc) for cdoc in _as_list(doc, "constraints")
    )
    return kind, Capability(
        id=cid,
        inputs=parse_ports("inputs"),
        outputs=parse_ports("outputs"),
        constraints=constraints,
    )


def validate(model: CapabilityModel) -> list:
    """Check every type invariant; an empty list means the model is sound."""
    diagnostics: list = []

    def flag(code, element, message):
        diagnostics.append(Diagnostic(code=code, element_id=element, message=message))

    for prop in model.all_properties():
        if prop.type_description.id not in model.type_descriptions:
            flag(
                "UnknownTypeDescription",
                prop.id,
                f"type description {prop.type_description.id!r} is not declared",
            )
        for ch in _FORBIDDEN_ID_CHARS:
            if ch in prop.id:
                flag("IdCharset", prop.id, f"property id contains forbidden {ch!r}")
        actuals = prop.actual_values()
        if len(actuals) > 1:
            flag("MultipleActualValues", prop.id, "more than one actual value")
        for desc in actuals:
            if desc.value is None or desc.relation is not Relation.EQ:
                flag(
                    "ActualValueShape",
                    prop.id,
                    "actual values must carry a value and use relation eq",
                )
        for desc in prop.instance_descriptions:
            if desc.value is None:
                continue
            is_bool = isinstance(desc.value, bool)
            if is_bool != (prop.datatype is Datatype.BOOLEAN):
                flag(
                    "DatatypeMismatch",
                    prop.id,
                    f"{desc.goal.value} value {desc.value!r} does not match "
                    f"datatype {prop.datatype.value}",
                )
            if is_bool and desc.relation not in (Relation.EQ, Relation.NEQ):
                flag(
                    "DatatypeMismatch",
                    prop.id,
                    f"ordering relation {desc.relation.value} on a boolean property",
                )

    for entity in model.entities.values():
        if entity.kind != "resource" and not entity.type_id:
            key = "productTypeId" if entity.kind == "product" else "typeId"
            flag("EmptyProductType", entity.id, f"{key} must be non-empty")

    for cap in model.capabilities():
        attached = cap.inputs | cap.outputs
        for ch in _FORBIDDEN_ID_CHARS:
            if ch in cap.id:
                flag("IdCharset", cap.id, f"capability id contains forbidden {ch!r}")
        for i, constraint in enumerate(cap.constraints):
            refs = ex.references(constraint)
            outside = refs - attached
            if outside:
                flag(
                    "ConstraintReference",
                    cap.id,
                    f"constraint {i} references properties not attached to the "
                    f"capability: {sorted(outside)}",
                )
                continue
            for pid, used_as in ex.infer_ref_types(constraint).items():
                declared = model.properties[pid].datatype
                if (used_as == "bool") != (declared is Datatype.BOOLEAN):
                    flag(
                        "ExpressionDatatype",
                        cap.id,
                        f"constraint {i} uses {pid} as {used_as} but it is "
                        f"{declared.value}",
                    )

    return diagnostics


def require_valid(diagnostics: list) -> None:
    """Raise InvalidModel naming every diagnostic `validate` gave, if any:
    neither the planner nor the oracle's search takes an invalid model."""
    if diagnostics:
        raise InvalidModel(
            "; ".join(f"{d.code}({d.element_id}): {d.message}" for d in diagnostics)
        )


def load_model(*paths) -> CapabilityModel:
    """Read one (single-file) or two (domain + problem) documents."""
    docs = []
    for path in paths:
        if path is None:
            continue
        with open(path, "r", encoding="utf-8") as handle:
            docs.append(json.load(handle))
    if not docs:
        raise SchemaError("no model documents given")
    if len(docs) == 1:
        return parse_model(docs[0])
    merged = docs[0]
    for extra in docs[1:]:
        merged = merge_documents(merged, extra)
    return parse_model(merged)
