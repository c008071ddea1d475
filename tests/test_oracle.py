import itertools
from fractions import Fraction

import pytest

import fixtures
from capplan.errors import DomainTooLarge, InvalidModel
from capplan.model import Datatype, parse_model, validate
from capplan.oracle import Violation, brute_force_plan, model_constants, simulate
from capplan.planner import Happening, Plan
from capplan.synonymy import build_index

F = Fraction


def _transport_setup(**kwargs):
    model = fixtures.transport_model(**kwargs)
    return model, build_index(model)


def _plan(happenings):
    return Plan(
        happenings=tuple(happenings),
        bound_happenings=len(happenings),
        classes={},
        parameters={},
    )


def _happening(applied, layer0, layer1):
    return Happening(applied=tuple(applied), layer0=dict(layer0), layer1=dict(layer1))


POS, TGT, AGV = "CurrentProductPosition", "TargetPosition", "AGVPosition"


def test_simulate_accepts_valid_transport_plan():
    model, index = _transport_setup()
    plan = _plan([
        _happening(["Transport"],
                   {POS: F(5), TGT: F(10), AGV: F(5)},
                   {POS: F(10), TGT: F(10), AGV: F(5)}),
    ])
    verdict = simulate(model, index, plan)
    assert verdict.ok, verdict.violations


def test_simulate_precondition_failure():
    model, index = _transport_setup(agv_at=7, product_at=5)
    plan = _plan([
        _happening(["Transport"],
                   {POS: F(5), TGT: F(10), AGV: F(7)},
                   {POS: F(10), TGT: F(10), AGV: F(7)}),
    ])
    verdict = simulate(model, index, plan)
    kinds = {v.kind for v in verdict.violations}
    assert "PreconditionFailed" in kinds


def test_simulate_frame_violation():
    model, index = _transport_setup()
    plan = _plan([
        _happening([],
                   {POS: F(5), TGT: F(10), AGV: F(5)},
                   {POS: F(5), TGT: F(10), AGV: F(9)}),
    ])
    verdict = simulate(model, index, plan)
    violations = {(v.kind, v.element_id) for v in verdict.violations}
    assert ("FrameViolation", AGV) in violations


def test_simulate_continuation_violation():
    model, index = _transport_setup()
    fine = {POS: F(5), TGT: F(10), AGV: F(5)}
    moved = {POS: F(10), TGT: F(10), AGV: F(5)}
    plan = _plan([
        _happening([], fine, fine),
        _happening(["Transport"], moved, moved),
    ])
    verdict = simulate(model, index, plan)
    kinds = {v.kind for v in verdict.violations}
    assert "ContinuationViolation" in kinds


def test_simulate_goal_and_init_checks():
    model, index = _transport_setup()
    stale = {POS: F(5), TGT: F(10), AGV: F(5)}
    plan = _plan([_happening([], stale, stale)])
    verdict = simulate(model, index, plan)
    kinds = {v.kind for v in verdict.violations}
    assert "GoalFailed" in kinds
    wrong_init = {POS: F(6), TGT: F(10), AGV: F(5)}
    plan = _plan([_happening([], wrong_init, wrong_init)])
    kinds = {v.kind for v in simulate(model, index, plan).violations}
    assert "InitMismatch" in kinds


def test_simulate_mutex_violation():
    model = fixtures.drive_transport_model(product_at=5, agv_at=5)
    index = build_index(model)
    state0 = {POS: F(5), TGT: F(10), AGV: F(5), "DriveTarget": F(5)}
    state1 = {POS: F(10), TGT: F(10), AGV: F(5), "DriveTarget": F(5)}
    plan = _plan([_happening(["Transport", "DriveTo"], state0, state1)])
    kinds = {v.kind for v in simulate(model, index, plan).violations}
    assert "MutexViolation" in kinds


def test_simulate_division_by_zero_is_a_violation_not_an_error():
    doc = fixtures.transport_single_doc()
    doc["capabilities"][0]["constraints"].append(
        {
            "apply": "eq",
            "args": [
                {"apply": "divide",
                 "args": [{"const": "1"}, {"ref": "TargetPosition"}]},
                {"const": "1"},
            ],
        }
    )
    model = parse_model(doc)
    index = build_index(model)
    plan = _plan([
        _happening(["Transport"],
                   {POS: F(5), TGT: F(0), AGV: F(5)},
                   {POS: F(0), TGT: F(0), AGV: F(5)}),
    ])
    verdict = simulate(model, index, plan)
    assert not verdict.ok  # 1/0 cannot hold; reported, not raised


@pytest.mark.parametrize("layer, cid", [("layer0", AGV), ("layer1", POS)])
def test_simulate_reports_a_real_class_given_a_boolean_as_structure(layer, cid):
    model, index = _transport_setup()
    layers = {"layer0": {POS: F(5), TGT: F(10), AGV: F(5)},
              "layer1": {POS: F(10), TGT: F(10), AGV: F(5)}}
    layers[layer][cid] = True
    verdict = simulate(model, index, _plan([_happening(["Transport"], **layers)]))
    assert verdict.violations == (
        Violation("Structure", 0, cid, f"{layer} value of {cid} is not Real"),
    )


def test_simulate_reports_a_boolean_class_given_a_number_as_structure():
    model = parse_model(fixtures.lamp_doc())
    index = build_index(model)
    good = _happening(["SwitchOn"], {"lamp.on": False}, {"lamp.on": True})
    assert simulate(model, index, _plan([good])).ok
    bad = _happening(["SwitchOn"], {"lamp.on": False}, {"lamp.on": F(1)})
    assert simulate(model, index, _plan([bad])).violations == (
        Violation("Structure", 0, "lamp.on", "layer1 value of lamp.on is not Boolean"),
    )


def test_brute_force_refuses_a_model_that_validate_rejects():
    # SwitchOn sets the Boolean lamp.on.after through an eq constraint,
    # which types both sides as Real, instead of through an assurance.
    doc = fixtures.lamp_doc()
    doc["products"][0]["properties"][1]["instanceDescriptions"] = []
    doc["resources"] = [{"id": "Switch", "properties": [
        {"id": "switch", "typeDescription": "td.on",
         "instanceDescriptions": [{"expressionGoal": "actualValue", "value": True}]}]}]
    switch_on = doc["capabilities"][0]
    switch_on["inputs"] = [{"entity": "Switch", "properties": ["switch"]}]
    switch_on["constraints"] = [fixtures._eq(fixtures._ref("lamp.on.after"),
                                             fixtures._ref("switch"))]
    model = parse_model(doc)
    assert [d.code for d in validate(model)] == ["ExpressionDatatype"] * 2
    with pytest.raises(InvalidModel, match=r"^ExpressionDatatype\(SwitchOn\): "):
        brute_force_plan(model, build_index(model), 2)


def test_model_constants():
    model = fixtures.drive_transport_model(product_at=3, agv_at=5, goal=10)
    assert model_constants(model) == (F(3), F(5), F(10))


def test_brute_force_transport_minimal_plan():
    model, index = _transport_setup()
    plan = brute_force_plan(model, index, 3)
    assert plan is not None
    assert plan.bound_happenings == 1
    assert plan.happenings[0].applied == ("Transport",)
    assert plan.parameters["TargetPosition"] == F(10)
    assert simulate(model, index, plan).ok


def test_brute_force_chained_fixture_needs_two_happenings():
    model = fixtures.drive_transport_model(product_at=3, agv_at=5, goal=10)
    index = build_index(model)
    plan = brute_force_plan(model, index, 3)
    assert plan is not None
    assert plan.bound_happenings == 2
    applied = [h.applied for h in plan.happenings]
    assert applied == [("DriveTo",), ("Transport",)]
    assert simulate(model, index, plan).ok


def test_brute_force_unreachable_goal_is_none():
    model = fixtures.inert_goal_model()
    index = build_index(model)
    assert brute_force_plan(model, index, 4) is None


def test_brute_force_goal_value_outside_domain_is_none():
    model, index = _transport_setup()
    # Restricting the domain below the goal value makes the target
    # unreachable for the finite search; a documented limitation.
    assert brute_force_plan(model, index, 2, value_domain=(F(5),)) is None


def test_brute_force_empty_plan_when_goal_holds_initially():
    model = fixtures.satisfied_goal_model()
    index = build_index(model)
    plan = brute_force_plan(model, index, 2)
    assert plan is not None
    assert plan.bound_happenings == 1
    assert plan.happenings[0].applied == ()


def test_brute_force_budget_guard():
    # Ten unconstrained real classes blow the initial-state enumeration.
    doc = {
        "typeDescriptions": [{"id": f"td{i}", "datatype": "Real"} for i in range(10)],
        "products": [
            {
                "id": f"P{i}",
                "productTypeId": f"T{i}",
                "properties": [{"id": f"p{i}", "typeDescription": f"td{i}"}],
            }
            for i in range(10)
        ],
        "capabilities": [
            {
                "id": "req",
                "kind": "required",
                "inputs": [],
                "outputs": [{"entity": "P0", "properties": ["p0"]}],
            }
        ],
    }
    model = parse_model(doc)
    index = build_index(model)
    with pytest.raises(DomainTooLarge):
        brute_force_plan(model, index, 1, value_domain=tuple(F(v) for v in range(6)))


def _assert_the_search_finds_what_the_replay_accepts(model, domain):
    """Enumerate every 1-happening plan over `domain`; when the replay
    accepts one, the search over `domain` must find a plan that replays."""
    index = build_index(model)
    assert len(index.classes) <= 3 and len(model.provided) <= 3
    pools = [(True, False) if cls.datatype is Datatype.BOOLEAN else domain
             for cls in index.classes]
    states = [dict(zip((cls.class_id for cls in index.classes), values))
              for values in itertools.product(*pools)]
    cap_ids = sorted(cap.id for cap in model.provided)
    plans = [
        _plan([_happening(applied, layer0, layer1)])
        for r in range(len(cap_ids) + 1)
        for applied in itertools.combinations(cap_ids, r)
        for layer0 in states
        for layer1 in states
    ]
    assert any(simulate(model, index, plan).ok for plan in plans)
    found = brute_force_plan(model, index, 1, value_domain=domain)
    assert found is not None
    assert simulate(model, index, found).ok


# Tiny random fixtures whose 1-happening plans over their constants
# include one that replays OK.
@pytest.mark.parametrize("seed", (2, 14, 42, 43, 49, 54, 62, 69, 102, 107))
def test_search_finds_a_plan_whenever_the_replay_accepts_one(seed):
    model = fixtures.random_model(seed)
    _assert_the_search_finds_what_the_replay_accepts(model, model_constants(model))


@pytest.mark.parametrize("seed", (
    82, 113, 174, 309, 353, 707, 781, 882, 1015, 1217, 1414))
def test_search_finds_a_plan_whenever_the_replay_accepts_one_in_tiny_models(seed):
    model = parse_model(fixtures.tiny_model_doc(seed))
    assert validate(model) == []
    domain = tuple(F(v) for v in range(4))
    _assert_the_search_finds_what_the_replay_accepts(model, domain)


def test_search_finds_a_plan_that_applies_two_capabilities_at_once():
    # Two lamps that are off, each switched on by a capability of its own;
    # both must be on after one happening.
    doc = {"typeDescriptions": [], "products": [], "capabilities": []}
    goal = []
    for lamp in ("a", "b"):
        doc["typeDescriptions"].append({"id": f"td.{lamp}", "datatype": "Boolean"})
        doc["products"] += [
            {"id": f"Lamp.{lamp}", "productTypeId": lamp, "properties": [
                {"id": f"{lamp}.on", "typeDescription": f"td.{lamp}",
                 "instanceDescriptions": [
                     {"expressionGoal": "actualValue", "value": False},
                     {"expressionGoal": "requirement", "value": True}]}]},
            {"id": f"Lamp.{lamp}.after", "productTypeId": lamp, "properties": [
                {"id": f"{lamp}.after", "typeDescription": f"td.{lamp}",
                 "instanceDescriptions": [
                     {"expressionGoal": "assurance", "value": True}]}]},
        ]
        doc["capabilities"].append({
            "id": f"Switch.{lamp}", "kind": "provided", "inputs": [],
            "outputs": [{"entity": f"Lamp.{lamp}.after",
                         "properties": [f"{lamp}.after"]}]})
        goal.append({"entity": f"Lamp.{lamp}", "properties": [f"{lamp}.on"]})
    doc["capabilities"].append({"id": "req", "kind": "required", "inputs": [],
                                "outputs": goal})
    model = parse_model(doc)
    assert validate(model) == []
    _assert_the_search_finds_what_the_replay_accepts(model, ())
    plan = brute_force_plan(model, build_index(model), 1)
    assert plan.happenings[0].applied == ("Switch.a", "Switch.b")
