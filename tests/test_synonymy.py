import fixtures
from capplan.model import parse_model
from capplan.synonymy import build_index, effect_sets


def test_information_and_products_do_not_mix():
    # A product and an information entity with the same type id and type
    # description keep their properties in separate classes.
    doc = {
        "typeDescriptions": [{"id": "td.pos", "datatype": "Real"}],
        "products": [{"id": "part", "productTypeId": "T", "properties": [
            {"id": "part.pos", "typeDescription": "td.pos"}]}],
        "information": [{"id": "order", "typeId": "T", "properties": [
            {"id": "order.pos", "typeDescription": "td.pos"}]}],
        "capabilities": [{"id": "req", "kind": "required"}],
    }
    index = build_index(parse_model(doc))
    assert index.class_id("part.pos") != index.class_id("order.pos")


def test_property_classes_transport():
    index = build_index(fixtures.transport_model())
    classes = {cls.class_id: set(cls.member_ids) for cls in index.classes}
    assert classes["CurrentProductPosition"] == {
        "CurrentProductPosition",
        "ProductPositionAfter",
        "RequestedPositionAfter",
        "RequestedPositionBefore",
    }
    assert classes["AGVPosition"] == {"AGVPosition"}
    assert classes["TargetPosition"] == {"TargetPosition"}
    assert len(classes) == 3


def test_same_type_different_product_type_stays_apart():
    doc = fixtures.transport_domain()
    doc["products"][1]["productTypeId"] = "PartB"
    doc["capabilities"][0]["constraints"] = doc["capabilities"][0]["constraints"][:1]
    doc["capabilities"].append(
        {"id": "req", "kind": "required", "inputs": [], "outputs": []}
    )
    index = build_index(parse_model(doc))
    assert index.class_id("CurrentProductPosition") != index.class_id(
        "ProductPositionAfter"
    )


def test_resource_property_is_one_shared_class():
    index = build_index(fixtures.drive_transport_model())
    cls = index.class_of["AGVPosition"]
    assert cls.member_ids == ("AGVPosition",)
    # Both capabilities reference exactly this property id.
    model = fixtures.drive_transport_model()
    for cap in model.provided:
        assert "AGVPosition" in set(cap.inputs + cap.outputs)


def test_syn_props_excludes_self():
    index = build_index(fixtures.transport_model())
    for pid, synonyms in index.syn_props.items():
        assert pid not in synonyms


def test_three_capabilities_sharing_one_class():
    properties = []
    capabilities = []
    products = []
    for i in range(3):
        products.append(
            {"id": f"P{i}", "productTypeId": "Blank", "properties": [
                {"id": f"p{i}.width", "typeDescription": "td.width"}]}
        )
        capabilities.append(
            {"id": f"cap{i}", "kind": "provided",
             "inputs": [{"entity": f"P{i}", "properties": [f"p{i}.width"]}],
             "outputs": []}
        )
    capabilities.append({"id": "req", "kind": "required", "inputs": [],
                         "outputs": []})
    doc = {
        "typeDescriptions": [{"id": "td.width", "datatype": "Real"}],
        "products": products,
        "capabilities": capabilities,
    }
    index = build_index(parse_model(doc))
    widths = ("p0.width", "p1.width", "p2.width")
    assert index.class_of["p0.width"].member_ids == widths
    for i in range(3):
        assert index.class_id(f"p{i}.width") == "p0.width"
        assert index.syn_props[f"p{i}.width"] == set(widths) - {f"p{i}.width"}


def test_classes_partition_and_share_type():
    for seed in range(20):
        model = fixtures.random_model(seed)
        index = build_index(model)
        seen = set()
        for cls in index.classes:
            assert not (set(cls.member_ids) & seen)
            seen |= set(cls.member_ids)
            type_ids = {
                model.properties[p].type_description.id for p in cls.member_ids
            }
            assert type_ids == {cls.type_description_id}
        assert seen == set(model.properties)


def test_effect_sets_transport():
    model = fixtures.transport_model()
    sets = effect_sets(model, model.provided[0])
    assert sets.eff == {"ProductPositionAfter"}
    assert sets.numeric == {"ProductPositionAfter"}
    assert sets.constrained == {"ProductPositionAfter"}
    assert sets.positive == frozenset() and sets.negative == frozenset()


def test_effect_sets_boolean_assurance():
    doc = {
        "typeDescriptions": [{"id": "td.clamped", "datatype": "Boolean"}],
        "products": [
            {
                "id": "P",
                "productTypeId": "T",
                "properties": [
                    {
                        "id": "clamped",
                        "typeDescription": "td.clamped",
                        "instanceDescriptions": [
                            {"expressionGoal": "assurance", "value": True}
                        ],
                    },
                    {
                        "id": "released",
                        "typeDescription": "td.clamped",
                        "instanceDescriptions": [{"expressionGoal": "assurance"}],
                    },
                ],
            }
        ],
        "capabilities": [
            {
                "id": "Clamp",
                "kind": "provided",
                "inputs": [],
                "outputs": [{"entity": "P", "properties": ["clamped", "released"]}],
            },
            {"id": "req", "kind": "required", "inputs": [], "outputs": []},
        ],
    }
    model = parse_model(doc)
    sets = effect_sets(model, model.provided[0])
    assert sets.positive == {"clamped"}
    assert sets.negative == frozenset()
    assert sets.eff == {"clamped", "released"}
    assert sets.constrained == frozenset()


def test_effect_sets_no_outputs():
    model = fixtures.transport_model()
    bare = model.required  # required capability has no assurances either
    sets = effect_sets(model, bare)
    assert sets.eff == frozenset()


def test_effect_set_inclusions_hold_everywhere():
    for seed in range(25):
        model = fixtures.random_model(seed)
        for cap in model.provided:
            sets = effect_sets(model, cap)
            assert sets.positive <= sets.eff
            assert sets.negative <= sets.eff
            assert sets.numeric <= sets.eff
            assert not sets.positive & sets.negative


def test_mutex_pairs():
    model = fixtures.drive_transport_model()
    index = build_index(model)
    assert index.mutexes == (("DriveTo", "Transport"),)
    single = fixtures.transport_model()
    assert build_index(single).mutexes == ()


def test_disjoint_capabilities_have_no_mutex():
    doc = {
        "typeDescriptions": [
            {"id": "td.a", "datatype": "Real"},
            {"id": "td.b", "datatype": "Real"},
        ],
        "products": [
            {"id": "PA", "productTypeId": "A", "properties": [
                {"id": "a.val", "typeDescription": "td.a"}]},
            {"id": "PB", "productTypeId": "B", "properties": [
                {"id": "b.val", "typeDescription": "td.b"}]},
        ],
        "capabilities": [
            {"id": "CA", "kind": "provided",
             "inputs": [{"entity": "PA", "properties": ["a.val"]}], "outputs": []},
            {"id": "CB", "kind": "provided",
             "inputs": [{"entity": "PB", "properties": ["b.val"]}], "outputs": []},
            {"id": "req", "kind": "required", "inputs": [], "outputs": []},
        ],
    }
    model = parse_model(doc)
    assert build_index(model).mutexes == ()
