import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fixtures
from capplan import expr as ex
from capplan.encoder import build
from capplan.model import Datatype, merge_documents, parse_model
from capplan.smtlib import emit
from capplan.synonymy import build_index


def _distinct_model():
    return parse_model(
        merge_documents(
            fixtures.transport_distinct_domain(), fixtures.transport_distinct_problem()
        )
    )


def _counts(model, bound, expanded=False):
    index = build_index(model)
    variables = build(model, index, bound, expanded).variables
    reals = sum(1 for k in variables.values()
                if k.kind == "prop" and k.sort is Datatype.REAL)
    bools = sum(1 for k in variables.values()
                if k.kind == "prop" and k.sort is Datatype.BOOLEAN)
    caps = sum(1 for k in variables.values() if k.kind == "cap")
    return reals, bools, caps


def test_variable_counts_distinct_classes():
    model = _distinct_model()
    assert len(build_index(model).classes) == 4
    assert _counts(model, 0) == (8, 0, 1)
    assert _counts(model, 2) == (24, 0, 3)


def test_variable_count_empty_model():
    model = parse_model({"capabilities": [{"id": "req", "kind": "required"}]})
    assert _counts(model, 3) == (0, 0, 0)


def test_variable_count_law():
    for seed in range(15):
        model = fixtures.random_model(seed)
        index = build_index(model)
        for bound in (0, 1, 3):
            encoding = build(model, index, bound)
            expected = 2 * (bound + 1) * len(index.classes) + (bound + 1) * len(
                model.provided
            )
            assert len(encoding.variables) == expected


def _chain(model, index, bound, expanded=False):
    """The encoding for `bound` reached through every smaller bound."""
    encoding = None
    for n in range(bound + 1):
        encoding = build(model, index, n, expanded, previous=encoding)
    return encoding


@pytest.mark.parametrize("expanded", [False, True])
def test_references_to_one_variable_share_one_ref(expanded):
    model = fixtures.transport_model()
    index = build_index(model)
    # The chained encoding mixes blocks reused from bounds 0 and 1 with the
    # blocks built at bound 2 and the boundary block.
    for encoding in (build(model, index, 2, expanded=expanded),
                     _chain(model, index, 2, expanded)):
        nodes: dict = {}
        uses: dict = {}

        def walk(node):
            if isinstance(node, ex.Ref):
                nodes.setdefault(node.property_id, set()).add(id(node))
                uses[node.property_id] = uses.get(node.property_id, 0) + 1
            elif isinstance(node, ex.Apply):
                for arg in node.args:
                    walk(arg)

        for assertion in encoding.assertions:
            walk(assertion.term)
        assert max(uses.values()) > 1
        assert all(len(ids) == 1 for ids in nodes.values())


def test_reused_blocks_emit_what_a_fresh_build_emits():
    models = [fixtures.transport_model(), fixtures.drive_transport_model()]
    models += [fixtures.random_model(seed) for seed in range(40)]
    for model in models:
        index = build_index(model)
        for expanded in (False, True):
            fresh = [emit(build(model, index, n, expanded)) for n in range(4)]
            encoding = None
            for n in range(4):
                encoding = build(model, index, n, expanded, previous=encoding)
                assert emit(encoding) == fresh[n]
            # A larger bound lends its first happenings to a smaller one.
            assert emit(build(model, index, 1, expanded, previous=encoding)) == fresh[1]


def test_names_clashing_after_sanitising_match_on_both_paths():
    doc = {
        "typeDescriptions": [{"id": "td.x", "datatype": "Real"}],
        "products": [
            {"id": "P", "productTypeId": "T", "properties": [
                {"id": "x", "typeDescription": "td.x",
                 "instanceDescriptions": [
                     {"expressionGoal": "assurance", "value": "1"}]}]}
        ],
        "capabilities": [
            {"id": cap_id, "kind": "provided", "inputs": [],
             "outputs": [{"entity": "P", "properties": ["x"]}]}
            for cap_id in ("a b", "a_b")
        ] + [{"id": "req", "kind": "required", "inputs": [], "outputs": []}],
    }
    model = parse_model(doc)
    index = build_index(model)
    fresh = _assertion_names(build(model, index, 2))
    assert _assertion_names(_chain(model, index, 2)) == fresh
    assert len(set(fresh)) == len(fresh)
    for t in range(3):
        assert f"eff.a_b.t{t}" in fresh
        assert f"eff.a_b.t{t}~2" in fresh


def test_reuse_keeps_no_reference_to_the_previous_encoding():
    # The planner keeps the last unsat encoding for explanations, so one
    # encoding must not keep every smaller bound's alive.  And a build
    # leaves no reference cycle, so what it does not return is freed at
    # once, not whenever the cycle collector runs.
    model = fixtures.drive_transport_model()
    index = build_index(model)
    gc.collect()
    gc.disable()
    try:
        previous = build(model, index, 0)
        gone = weakref.ref(previous)
        encoding = build(model, index, 1, previous=previous)
        del previous
        assert gone() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert encoding.bound == 1


def test_previous_encoding_of_the_other_mode_is_rejected():
    model = fixtures.transport_model()
    index = build_index(model)
    with pytest.raises(ValueError):
        build(model, index, 1, expanded=True, previous=build(model, index, 0))


def test_expanded_variable_count():
    model = fixtures.transport_model()
    index = build_index(model)
    encoding = build(model, index, 1, expanded=True)
    expected = 2 * 2 * len(model.properties) + 2 * len(model.provided)
    assert len(encoding.variables) == expected


def _assertion_names(encoding):
    return [a.name for a in encoding.assertions]


def test_boundaries_and_goal():
    model = fixtures.transport_model()
    encoding = build(model, build_index(model), 0)
    names = _assertion_names(encoding)
    assert "init.AGVPosition" in names
    assert "init.CurrentProductPosition" in names
    assert "goal.RequestedPositionAfter" in names
    goal = encoding.by_name["goal.RequestedPositionAfter"]
    # The goal lands on the class variable of the position class at (n,1).
    assert goal.term == ex.apply_op(
        "eq", ex.ref("CurrentProductPosition#t0#l1"), ex.const(10)
    )


def test_required_input_requirement_becomes_init():
    model = fixtures.contradictory_model()
    encoding = build(model, build_index(model), 0)
    assertion = encoding.by_name["init.RequestedPositionBefore"]
    assert assertion.term == ex.apply_op(
        "eq", ex.ref("CurrentProductPosition#t0#l0"), ex.const(3)
    )


def test_capability_semantics_layers():
    model = fixtures.transport_model()
    encoding = build(model, build_index(model), 0)
    pre = encoding.by_name["constraint.Transport.0.t0"]
    # Input-only constraint reads layer 0 of happening 0.
    assert pre.term == ex.implies(
        ex.ref("Transport#t0"),
        ex.apply_op(
            "eq",
            ex.ref("CurrentProductPosition#t0#l0"),
            ex.ref("AGVPosition#t0#l0"),
        ),
    )
    effect = encoding.by_name["constraint.Transport.1.t0"]
    # Mixed constraint: the input parameter at layer 0, the output at layer 1.
    assert effect.term == ex.implies(
        ex.ref("Transport#t0"),
        ex.apply_op(
            "eq",
            ex.ref("TargetPosition#t0#l0"),
            ex.ref("CurrentProductPosition#t0#l1"),
        ),
    )


def test_assurance_effect_desugaring():
    doc = fixtures.random_model_doc(3)
    model = parse_model(doc)
    encoding = build(model, build_index(model), 0)
    for assertion in encoding.assertions:
        if assertion.family == "eff":
            assert isinstance(assertion.term, ex.Apply)
            assert assertion.term.op == "implies"


def test_constant_assurance_effect_term():
    doc = {
        "typeDescriptions": [{"id": "td.level", "datatype": "Real"}],
        "products": [
            {"id": "P", "productTypeId": "T", "properties": [
                {"id": "level", "typeDescription": "td.level",
                 "instanceDescriptions": [
                     {"expressionGoal": "assurance", "value": "7"}]}]}
        ],
        "capabilities": [
            {"id": "Fill", "kind": "provided", "inputs": [],
             "outputs": [{"entity": "P", "properties": ["level"]}]},
            {"id": "req", "kind": "required", "inputs": [], "outputs": []},
        ],
    }
    model = parse_model(doc)
    encoding = build(model, build_index(model), 0)
    assert encoding.by_name["eff.Fill.t0"].term == ex.implies(
        ex.ref("Fill#t0"), ex.apply_op("eq", ex.ref("level#t0#l1"), ex.const(7))
    )


def test_remain_the_same_effect_term():
    doc = {
        "typeDescriptions": [{"id": "td.held", "datatype": "Boolean"}],
        "products": [
            {"id": "P", "productTypeId": "T", "properties": [
                {"id": "held", "typeDescription": "td.held",
                 "instanceDescriptions": [{"expressionGoal": "assurance"}]}]}
        ],
        "capabilities": [
            {"id": "Keep", "kind": "provided", "inputs": [],
             "outputs": [{"entity": "P", "properties": ["held"]}]},
            {"id": "req", "kind": "required", "inputs": [], "outputs": []},
        ],
    }
    model = parse_model(doc)
    index = build_index(model)
    encoding = build(model, index, 0)
    # The value is restated across layers...
    assert encoding.by_name["eff.Keep.t0"].term == ex.implies(
        ex.ref("Keep#t0"), ex.apply_op("eq", ex.ref("held#t0#l1"),
                                       ex.ref("held#t0#l0"))
    )
    # ...and the capability stays out of the signed frame disjunctions.
    pos = encoding.by_name["frame.held.t0.pos"]
    assert pos.term == ex.implies(ex.ref("held#t0#l1"), ex.ref("held#t0#l0"))


def test_frame_axiom_unaffected_class_is_frozen():
    model = fixtures.transport_model()
    encoding = build(model, build_index(model), 0)
    agv = encoding.by_name["frame.AGVPosition.t0.real"]
    assert agv.term == ex.apply_op(
        "eq", ex.ref("AGVPosition#t0#l1"), ex.ref("AGVPosition#t0#l0")
    )
    position = encoding.by_name["frame.CurrentProductPosition.t0.real"]
    assert position.term == ex.implies(
        ex.negate(ex.ref("Transport#t0")),
        ex.apply_op(
            "eq",
            ex.ref("CurrentProductPosition#t0#l1"),
            ex.ref("CurrentProductPosition#t0#l0"),
        ),
    )


def test_frame_axiom_two_affecting_capabilities():
    doc = fixtures.drive_transport_domain()
    # A second capability that also moves the AGV.
    doc["capabilities"].append(
        {
            "id": "DriveHome",
            "kind": "provided",
            "inputs": [{"entity": "AGV", "properties": ["AGVPosition"]}],
            "outputs": [{"entity": "AGV", "properties": ["AGVPosition"]}],
            "constraints": [
                {"apply": "eq", "args": [{"ref": "AGVPosition"}, {"const": "0"}]}
            ],
        }
    )
    model = parse_model(merge_documents(doc, fixtures.transport_problem()))
    encoding = build(model, build_index(model), 0)
    agv = encoding.by_name["frame.AGVPosition.t0.real"]
    assert agv.term == ex.implies(
        ex.conj(
            [
                ex.negate(ex.ref("DriveHome#t0")),
                ex.negate(ex.ref("DriveTo#t0")),
            ]
        ),
        ex.apply_op("eq", ex.ref("AGVPosition#t0#l1"), ex.ref("AGVPosition#t0#l0")),
    )


def test_frame_antecedent_includes_synonymously_affecting_capability():
    # Assemble writes a different member of the position class than
    # Transport does; the class frame must exclude change while either runs.
    doc = fixtures.transport_domain()
    doc["products"].append(
        {
            "id": "Assembled_Product",
            "productTypeId": "PartA",
            "properties": [
                {"id": "AssembledPosition", "typeDescription": "td.position",
                 "instanceDescriptions": [{"expressionGoal": "assurance",
                                           "value": "0"}]}
            ],
        }
    )
    doc["capabilities"].append(
        {
            "id": "Assemble",
            "kind": "provided",
            "inputs": [],
            "outputs": [
                {"entity": "Assembled_Product", "properties": ["AssembledPosition"]}
            ],
        }
    )
    model = parse_model(merge_documents(doc, fixtures.transport_problem()))
    encoding = build(model, build_index(model), 0)
    frame = encoding.by_name["frame.AssembledPosition.t0.real"]
    assert frame.term == ex.implies(
        ex.conj([ex.negate(ex.ref("Assemble#t0")), ex.negate(ex.ref("Transport#t0"))]),
        ex.apply_op(
            "eq",
            ex.ref("AssembledPosition#t0#l1"),
            ex.ref("AssembledPosition#t0#l0"),
        ),
    )
    # Transport and Assemble now touch one class: they become mutex.
    assert "mutex.Assemble.Transport.t0" in encoding.by_name


def test_boolean_continuation_assertions():
    doc = {
        "typeDescriptions": [{"id": "td.flag", "datatype": "Boolean"}],
        "products": [
            {"id": "P", "productTypeId": "T", "properties": [
                {"id": "flag", "typeDescription": "td.flag"}]}
        ],
        "capabilities": [{"id": "req", "kind": "required", "inputs": [],
                          "outputs": [{"entity": "P", "properties": ["flag"]}]}],
    }
    model = parse_model(doc)
    encoding = build(model, build_index(model), 1)
    assert encoding.by_name["cont.flag.t1.pos"].term == ex.implies(
        ex.ref("flag#t1#l0"), ex.ref("flag#t0#l1")
    )
    assert encoding.by_name["cont.flag.t1.neg"].term == ex.implies(
        ex.negate(ex.ref("flag#t1#l0")), ex.negate(ex.ref("flag#t0#l1"))
    )


def test_boolean_frame_axioms():
    doc = {
        "typeDescriptions": [{"id": "td.flag", "datatype": "Boolean"}],
        "products": [
            {"id": "P", "productTypeId": "T", "properties": [
                {"id": "flag", "typeDescription": "td.flag",
                 "instanceDescriptions": []}]}
        ],
        "capabilities": [{"id": "req", "kind": "required", "inputs": [],
                          "outputs": [{"entity": "P", "properties": ["flag"]}]}],
    }
    model = parse_model(doc)
    encoding = build(model, build_index(model), 0)
    pos = encoding.by_name["frame.flag.t0.pos"]
    neg = encoding.by_name["frame.flag.t0.neg"]
    # No capability affects the class: the value is frozen in both directions.
    assert pos.term == ex.implies(ex.ref("flag#t0#l1"), ex.ref("flag#t0#l0"))
    assert neg.term == ex.implies(
        ex.negate(ex.ref("flag#t0#l1")), ex.negate(ex.ref("flag#t0#l0"))
    )


def test_mutex_assertions():
    model = fixtures.drive_transport_model()
    encoding = build(model, build_index(model), 1)
    for t in (0, 1):
        mutex = encoding.by_name[f"mutex.DriveTo.Transport.t{t}"]
        assert mutex.term == ex.disj(
            [ex.negate(ex.ref(f"DriveTo#t{t}")), ex.negate(ex.ref(f"Transport#t{t}"))]
        )


def test_continuation_assertions():
    model = fixtures.transport_model()
    encoding = build(model, build_index(model), 2)
    names = _assertion_names(encoding)
    assert "cont.AGVPosition.t1.real" in names
    assert "cont.AGVPosition.t2.real" in names
    term = encoding.by_name["cont.AGVPosition.t1.real"]
    assert term.term == ex.apply_op(
        "eq", ex.ref("AGVPosition#t1#l0"), ex.ref("AGVPosition#t0#l1")
    )
    assert not [n for n in names if n.startswith("cont.") and ".t0." in n]


def test_every_referenced_variable_is_declared():
    for seed in range(10):
        model = fixtures.random_model(seed)
        encoding = build(model, build_index(model), 2)
        declared = set(encoding.variables)
        for assertion in encoding.assertions:
            assert ex.references(assertion.term) <= declared
        names = _assertion_names(encoding)
        assert len(names) == len(set(names))


def test_family_order():
    model = fixtures.drive_transport_model()
    encoding = build(model, build_index(model), 1)
    families = [a.family for a in encoding.assertions]
    order = {"init": 0, "goal": 1, "align": 1, "pre": 2, "eff": 2, "constraint": 2,
             "prop": 2, "frame": 3, "mutex": 4, "cont": 5}
    ranks = [order[f] for f in families]
    assert ranks == sorted(ranks)


def test_build_is_deterministic():
    model = fixtures.drive_transport_model()
    index = build_index(model)
    for expanded in (False, True):
        first = emit(build(model, index, 2, expanded=expanded))
        second = emit(build(model, index, 2, expanded=expanded))
        assert first == second


def test_expanded_mode_alignment_and_propagation():
    model = fixtures.transport_model()
    encoding = build(model, build_index(model), 0, expanded=True)
    names = _assertion_names(encoding)
    assert "align.init.ProductPositionAfter" in names
    assert any(n.startswith("prop.Transport.") for n in names)
    align = encoding.by_name["align.init.ProductPositionAfter"]
    assert align.term == ex.apply_op(
        "eq",
        ex.ref("ProductPositionAfter#t0#l0"),
        ex.ref("CurrentProductPosition#t0#l0"),
    )


def test_nonlinear_selects_qfnra():
    doc = fixtures.transport_single_doc()
    doc["capabilities"][0]["constraints"].append(
        {
            "apply": "eq",
            "args": [
                {"apply": "times",
                 "args": [{"ref": "TargetPosition"}, {"ref": "AGVPosition"}]},
                {"ref": "ProductPositionAfter"},
            ],
        }
    )
    model = parse_model(doc)
    encoding = build(model, build_index(model), 0)
    assert encoding.logic == "QF_NRA"
    linear = parse_model(fixtures.transport_single_doc())
    assert build(linear, build_index(linear), 0).logic == "QF_LRA"


def test_negative_bound_rejected():
    model = fixtures.transport_model()
    with pytest.raises(ValueError):
        build(model, build_index(model), -1)


def test_retractable_assertions_are_the_goal_side():
    # Incremental solving asserts every other assertion once and keeps it
    # for all larger bounds, so those must be re-encoded unchanged.
    models = [fixtures.transport_model(), fixtures.drive_transport_model()]
    models += [fixtures.random_model(seed) for seed in range(10)]
    for model in models:
        index = build_index(model)
        for expanded in (False, True):
            encodings = [build(model, index, n, expanded) for n in range(3)]
            for smaller, larger in zip(encodings, encodings[1:]):
                for a in smaller.assertions:
                    goal_side = a.family == "goal" or a.name.startswith("align.goal")
                    assert a.retractable == goal_side, a.name
                    if not a.retractable:
                        assert larger.by_name[a.name] == a


@given(st.lists(st.lists(st.text(), max_size=3), min_size=1, max_size=6))
def test_assertion_names_use_only_simple_symbol_characters(parts_list):
    from capplan.encoder import _Names
    from capplan.sexp import SIMPLE_SYMBOL_CHARS

    names = _Names()
    for parts in parts_list + parts_list:  # repeats get a ~n suffix
        assert set(names.make(*parts)) <= SIMPLE_SYMBOL_CHARS
