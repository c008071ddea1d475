import pytest
from dataclasses import replace
from fractions import Fraction

import fixtures
from capplan.errors import DanglingReference, DuplicateId, SchemaError
from capplan.model import (
    Datatype,
    Entity,
    ExpressionGoal,
    InstanceDescription,
    Relation,
    merge_documents,
    parse_model,
    validate,
)


def test_parse_transport_single_document():
    model = parse_model(fixtures.transport_single_doc())
    assert len(model.provided) == 1
    assert model.provided[0].id == "Transport"
    assert model.required.id == "TransportRequest"
    assert len(model.properties) == 4
    assert all(p.datatype is Datatype.REAL for p in model.all_properties())


def test_parse_two_document_merge():
    model = fixtures.transport_model()
    assert {c.id for c in model.provided} == {"Transport"}
    assert len(model.properties) == 6
    assert model.properties["TargetPosition"].carrier_id == "TransportOrder"


def test_zero_provided_capabilities_is_schema_legal():
    doc = {
        "typeDescriptions": [{"id": "td.x", "datatype": "Real"}],
        "products": [
            {
                "id": "P",
                "productTypeId": "T",
                "properties": [
                    {
                        "id": "p.x",
                        "typeDescription": "td.x",
                        "instanceDescriptions": [
                            {"expressionGoal": "requirement", "value": "1"}
                        ],
                    }
                ],
            }
        ],
        "capabilities": [
            {
                "id": "req",
                "kind": "required",
                "inputs": [],
                "outputs": [{"entity": "P", "properties": ["p.x"]}],
            }
        ],
    }
    model = parse_model(doc)
    assert model.provided == ()
    assert validate(model) == []


def test_dangling_type_description():
    doc = fixtures.transport_single_doc()
    doc["products"][0]["properties"][0]["typeDescription"] = "td.position.missing"
    with pytest.raises(DanglingReference):
        parse_model(doc)


def test_unknown_port_entity():
    doc = fixtures.transport_single_doc()
    doc["capabilities"][0]["inputs"][0]["entity"] = "NoSuchProduct"
    with pytest.raises(DanglingReference):
        parse_model(doc)


def test_required_capability_count_is_enforced():
    doc = fixtures.transport_domain()
    with pytest.raises(SchemaError):
        parse_model(doc)  # zero required
    both = merge_documents(
        fixtures.transport_single_doc(), fixtures.transport_problem()
    )
    with pytest.raises(SchemaError):
        parse_model(both)  # two required


@pytest.mark.parametrize("prop_id", [["x"], {"id": "x"}, 3, None])
def test_port_property_ids_must_be_strings(prop_id):
    doc = _tiny_doc([])
    doc["capabilities"][0]["outputs"][0]["properties"] = [prop_id]
    with pytest.raises(SchemaError, match="is not a string"):
        parse_model(doc)


def test_duplicate_ids_rejected_on_merge():
    merged = merge_documents(fixtures.transport_domain(), fixtures.transport_domain())
    with pytest.raises(DuplicateId):
        parse_model(merged)


def _with_entities(**lists):
    doc = fixtures.transport_single_doc()
    for key, entities in lists.items():
        doc[key] = doc.get(key, []) + entities
    return doc


@pytest.mark.parametrize("doc, error, message", [
    (_with_entities(resources=[{"id": "Input_Product"}]),
     DuplicateId, "entity 'Input_Product' declared twice"),
    (_with_entities(resources=[{"id": "R"}], information=[{"id": "R", "typeId": "I"}]),
     DuplicateId, "entity 'R' declared twice"),
    (_with_entities(products=[{"id": "P"}]),
     SchemaError, "product P needs a non-empty string 'productTypeId'"),
    (_with_entities(products=[{"id": "P", "productTypeId": ""}]),
     SchemaError, "product P needs a non-empty string 'productTypeId'"),
    (_with_entities(information=[{"id": "I"}]),
     SchemaError, "information entity I needs a non-empty string 'typeId'"),
    (_with_entities(products=[{"productTypeId": "T"}]),
     SchemaError, "product needs a non-empty string 'id'"),
    (_with_entities(resources=[{"properties": []}]),
     SchemaError, "resource needs a non-empty string 'id'"),
    (_with_entities(information=[{"typeId": "I"}]),
     SchemaError, "information entity needs a non-empty string 'id'"),
], ids=["product-resource", "resource-information", "missing-product-type",
        "empty-product-type", "missing-type-id", "product-id", "resource-id",
        "information-id"])
def test_malformed_entities_are_rejected(doc, error, message):
    with pytest.raises(error) as caught:
        parse_model(doc)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_validate_flags_an_empty_type_on_a_hand_built_model():
    model = fixtures.drive_transport_model()
    entities = {eid: replace(entity, type_id="")
                for eid, entity in model.entities.items()}
    diagnostics = validate(replace(model, entities=entities))
    # Resources have no type; products and information entities do.
    assert [(d.code, d.element_id, d.message) for d in diagnostics] == [
        ("EmptyProductType", eid,
         "productTypeId must be non-empty" if entity.kind == "product"
         else "typeId must be non-empty")
        for eid, entity in model.entities.items() if entity.kind != "resource"
    ]
    assert {e.kind for e in model.entities.values()} == {
        "product", "resource", "information"}


def test_constraint_must_reference_attached_properties():
    doc = fixtures.transport_single_doc()
    doc["capabilities"][0]["inputs"] = doc["capabilities"][0]["inputs"][:2]
    model = parse_model(doc)  # AGVPosition no longer attached to Transport
    codes = {d.code for d in validate(model)}
    assert "ConstraintReference" in codes


def test_parameters_are_the_inputs_nothing_fixes():
    model = fixtures.transport_model()
    # CurrentProductPosition and AGVPosition carry actual values.
    assert model.parameter_ids(model.capability("Transport")) == ("TargetPosition",)
    assert model.parameter_ids(model.required) == ("RequestedPositionBefore",)
    pinned = fixtures.transport_model(require_input_at=3)
    assert pinned.parameter_ids(pinned.required) == ()


def test_effects_are_the_constraints_that_reference_an_output():
    transport = fixtures.transport_model().capability("Transport")
    at_agv, to_target = transport.constraints
    assert not transport.is_effect(at_agv)
    assert transport.is_effect(to_target)


def test_validate_clean_transport():
    assert validate(fixtures.transport_model()) == []


def _tiny_doc(instance_descriptions, datatype="Boolean"):
    return {
        "typeDescriptions": [{"id": "td.flag", "datatype": datatype}],
        "products": [
            {
                "id": "P",
                "productTypeId": "T",
                "properties": [
                    {
                        "id": "p.flag",
                        "typeDescription": "td.flag",
                        "instanceDescriptions": instance_descriptions,
                    }
                ],
            }
        ],
        "capabilities": [{"id": "req", "kind": "required", "inputs": [],
                          "outputs": [{"entity": "P", "properties": ["p.flag"]}]}],
    }


def test_validate_datatype_mismatch():
    doc = _tiny_doc([{"expressionGoal": "actualValue", "value": "3.5"}])
    diagnostics = validate(parse_model(doc))
    assert [d.code for d in diagnostics] == ["DatatypeMismatch"]
    assert diagnostics[0].element_id == "p.flag"


def test_validate_multiple_actual_values():
    doc = _tiny_doc(
        [
            {"expressionGoal": "actualValue", "value": True},
            {"expressionGoal": "actualValue", "value": False},
        ]
    )
    codes = [d.code for d in validate(parse_model(doc))]
    assert "MultipleActualValues" in codes


def test_validate_actual_value_shape():
    doc = _tiny_doc([{"expressionGoal": "actualValue"}])
    codes = [d.code for d in validate(parse_model(doc))]
    assert "ActualValueShape" in codes


def test_instance_values_are_exact():
    model = fixtures.transport_model(product_at="2.5")
    prop = model.properties["CurrentProductPosition"]
    assert prop.actual_values()[0].value == Fraction(5, 2)


def _product(eid, type_id, *properties):
    return {"id": eid, "productTypeId": type_id, "properties": [
        {"id": pid, "typeDescription": td, "instanceDescriptions": descriptions}
        for pid, td, descriptions in properties]}


def test_ports_are_sorted_tuples():
    doc = _tiny_doc([])
    doc["products"][0]["properties"] += [
        {"id": pid, "typeDescription": "td.flag"} for pid in ("p.c", "p.a")]
    doc["capabilities"][0]["inputs"] = [
        {"entity": "P", "properties": ["p.c", "p.a"]},
        {"entity": "P", "properties": ["p.flag", "p.a"]}]
    model = parse_model(doc)
    assert model.required.inputs == ("p.a", "p.c", "p.flag")
    assert model.required.outputs == ("p.flag",)
    for cap in fixtures.drive_transport_model().capabilities():
        for ports in (cap.inputs, cap.outputs):
            assert type(ports) is tuple and list(ports) == sorted(set(ports))


def test_equal_descriptions_are_one_object_per_parse():
    one = {"expressionGoal": "requirement", "value": "1"}
    doc = {
        "typeDescriptions": [{"id": "td.x", "datatype": "Real"}],
        "products": [
            _product("A", "T", ("a.x", "td.x", [one]), ("a.y", "td.x", [dict(one)])),
            # The relation written out: the same document fields.
            _product("B", "T", ("b.x", "td.x", [dict(one, relation="eq")])),
            _product("C", "U", ("c.x", "td.x", [one, one])),
        ],
        "capabilities": [{"id": "req", "kind": "required", "inputs": [],
                          "outputs": [{"entity": "A", "properties": ["a.x"]}]}],
    }
    model = parse_model(doc)
    first = model.properties["a.x"].instance_descriptions
    assert first == (InstanceDescription(ExpressionGoal.REQUIREMENT, Relation.EQ,
                                         Fraction(1)),)
    assert model.properties["a.y"].instance_descriptions is first
    assert model.properties["b.x"].instance_descriptions is first
    assert model.properties["c.x"].instance_descriptions == (first[0], first[0])
    # Entities of one kind and type are one record; the key is the id.
    assert model.entities["A"] is model.entities["B"] == Entity("product", "T")
    assert model.entities["C"] == Entity("product", "U")
    # Nothing is shared across parses.
    assert parse_model(doc).properties["a.x"].instance_descriptions is not first


def test_a_boolean_true_and_a_real_one_stay_apart():
    # true == 1 == Fraction(1), and all three hash alike.
    doc = {
        "typeDescriptions": [{"id": "td.on", "datatype": "Boolean"},
                             {"id": "td.x", "datatype": "Real"}],
        "products": [_product("P", "T",
                              ("p.on", "td.on", [{"expressionGoal": "actualValue",
                                                  "value": True}]),
                              ("p.x", "td.x", [{"expressionGoal": "actualValue",
                                                "value": 1}]),
                              ("p.y", "td.x", [{"expressionGoal": "actualValue",
                                                "value": "1"}]))],
        "capabilities": [{"id": "req", "kind": "required", "inputs": [],
                          "outputs": [{"entity": "P", "properties": ["p.on"]}]}],
    }
    model = parse_model(doc)
    [on] = model.properties["p.on"].actual_values()
    assert on.value is True
    for pid in ("p.x", "p.y"):
        [x] = model.properties[pid].actual_values()
        assert type(x.value) is Fraction and x.value == 1
    assert validate(model) == []


def test_an_empty_type_is_named_by_each_entity_id_sharing_the_record():
    doc = {
        "typeDescriptions": [{"id": "td.x", "datatype": "Real"}],
        "products": [_product("A", "T"), _product("B", "T")],
        "resources": [{"id": "R"}],
        "capabilities": [{"id": "req", "kind": "required"}],
    }
    model = parse_model(doc)
    shared = model.entities["A"]
    assert model.entities["B"] is shared
    empty = replace(shared, type_id="")
    diagnostics = validate(replace(model, entities={**model.entities, "A": empty,
                                                    "B": empty}))
    assert [(d.code, d.element_id) for d in diagnostics] == [
        ("EmptyProductType", "A"), ("EmptyProductType", "B")]
