"""The relaxed planning graph (capplan.relax) against the oracle, the
bounds the planner skips on its word, and the capabilities it prunes."""

from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from capplan import planner
from capplan.encoder import build
from capplan.model import merge_documents, parse_model
from capplan.oracle import brute_force_plan
from capplan.planner import GOAL_UNREACHABLE, PlannerConfig, minimize_core, plan
from capplan.relax import goal_happenings, relevant_capabilities
from capplan.smtlib import SolverConfig, emit, parse_answer
from capplan.synonymy import build_index

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# Of the fixtures, and of the no-plan cases, those with a capability that
# cannot reach the goal.
PRUNED_FIXTURES = 71
PRUNED_NO_PLAN_CASES = 70


def _named_models() -> dict:
    return {
        "transport": fixtures.transport_model(),
        "chained": fixtures.drive_transport_model(product_at=3),
        "single document": parse_model(fixtures.transport_single_doc()),
        "distinct": parse_model(merge_documents(fixtures.transport_distinct_domain(),
                                                fixtures.transport_distinct_problem())),
        "inert goal": fixtures.inert_goal_model(),
        "parked AGV": fixtures.parked_agv_model(),
        "contradictory": fixtures.contradictory_model(),
        "satisfied goal": fixtures.satisfied_goal_model(),
        "lamp": parse_model(fixtures.lamp_doc()),
    }


def _reach(doc_changes=None):
    """goal_happenings of the lamp model after `doc_changes(doc)`."""
    doc = fixtures.lamp_doc()
    if doc_changes:
        doc_changes(doc)
    model = parse_model(doc)
    return goal_happenings(model, build_index(model))


def _assurance(doc, *descriptions):
    """Give SwitchOn's output these instance descriptions instead."""
    doc["products"][0]["properties"][1]["instanceDescriptions"] = list(descriptions)


def test_the_rules_on_one_boolean_class():
    assert _reach() == 1
    # A negative assurance adds ¬v: `neq false` turns the lamp on.
    assert _reach(lambda d: _assurance(
        d, {"expressionGoal": "assurance", "relation": "neq", "value": False})) == 1
    # `eq false` keeps it off.
    assert _reach(lambda d: _assurance(
        d, {"expressionGoal": "assurance", "value": False})) is None
    # A valueless assurance adds nothing.
    assert _reach(lambda d: _assurance(d, {"expressionGoal": "assurance"})) is None

    def unreachable_precondition(doc):
        # SwitchOn needs the lamp on, which only SwitchOn makes true.
        doc["capabilities"][0]["inputs"] = [{"entity": "Lamp", "properties": ["lamp.on"]}]
    assert _reach(unreachable_precondition) is None

    def contradictory_pins(doc):
        # The required capability also needs the lamp on at the start.
        doc["capabilities"][1]["inputs"] = [
            {"entity": "Lamp", "properties": ["lamp.on.after"]}]
        doc["products"][0]["properties"][1]["instanceDescriptions"].append(
            {"expressionGoal": "requirement", "value": True})
    assert _reach(contradictory_pins) is None


def test_the_rules_on_real_classes():
    # Transport's effect constraint widens the goal class to ⊤.
    model = fixtures.transport_model()
    assert goal_happenings(model, build_index(model)) == 1
    # Transport's precondition constraint counts as satisfiable, so the
    # relaxed goal needs one happening where the plan needs two.
    chained = fixtures.drive_transport_model(product_at=3)
    assert goal_happenings(chained, build_index(chained)) == 1
    # An `eq` assurance adds its value, and only that value.
    doc = fixtures.transport_single_doc()
    transport = doc["capabilities"][0]
    transport["constraints"] = []
    doc["products"][1]["properties"][0]["instanceDescriptions"] = [
        {"expressionGoal": "requirement", "value": "10"},
        {"expressionGoal": "assurance", "value": "8"}]
    model = parse_model(doc)
    assert goal_happenings(model, build_index(model)) is None
    doc["products"][1]["properties"][0]["instanceDescriptions"][1]["relation"] = "geq"
    model = parse_model(doc)
    assert goal_happenings(model, build_index(model)) == 1


def test_a_goal_two_steps_away_is_reached_at_layer_two():
    # SwitchOn now needs a switch that Arm sets: two relaxed happenings.
    doc = fixtures.lamp_doc()
    doc["typeDescriptions"].append({"id": "td.armed", "datatype": "Boolean"})
    doc["products"].append({"id": "Switch", "productTypeId": "S", "properties": [
        {"id": "armed", "typeDescription": "td.armed", "instanceDescriptions": [
            {"expressionGoal": "actualValue", "value": False},
            {"expressionGoal": "requirement", "value": True}]},
        {"id": "armed.after", "typeDescription": "td.armed", "instanceDescriptions": [
            {"expressionGoal": "assurance", "value": True}]}]})
    doc["capabilities"][0]["inputs"] = [{"entity": "Switch", "properties": ["armed"]}]
    doc["capabilities"].append({"id": "Arm", "kind": "provided", "inputs": [],
                                "outputs": [{"entity": "Switch",
                                             "properties": ["armed.after"]}]})
    model = parse_model(doc)
    index = build_index(model)
    assert goal_happenings(model, index) == 2
    assert brute_force_plan(model, index, 3).bound_happenings == 2


def _assert_sound(label, model, value_domain=None):
    """Whenever the oracle finds a plan up to bound 3, the relaxation
    reaches the goal no later than the plan does.  Returns the oracle's
    plan and the relaxation's answer."""
    index = build_index(model)
    found = brute_force_plan(model, index, 4, value_domain=value_domain)
    reach = goal_happenings(model, index)
    if found is not None:
        assert reach is not None and reach <= found.bound_happenings, label
    return found, reach


def test_level_off_never_refutes_a_fixture_with_a_plan():
    for label, model in _named_models().items():
        _assert_sound(label, model)
    verdicts = [_assert_sound(f"random {seed}", fixtures.random_model(seed))
                for seed in range(110)]
    no_plan = [reach for found, reach in verdicts if found is None]
    assert len(no_plan) == 71
    assert sum(reach is None for reach in no_plan) == 62


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 10**6))
def test_level_off_never_refutes_a_tiny_model_with_a_plan(seed):
    _assert_sound(f"tiny {seed}", parse_model(fixtures.tiny_model_doc(seed)))


def _skipped_bounds(models, monkeypatch) -> list:
    """(label, model, bound) of every bound plan() skips, planning each
    (label, model, max bound) one-shot with its solved bounds answered in
    this process."""
    monkeypatch.setattr(planner, "start", lambda solver: None)
    monkeypatch.setattr(planner, "solve", lambda text, config, process=None:
                        parse_answer(fixtures.run_inprocess(text)))
    config = PlannerConfig(solver=SolverConfig(command=fixtures.REFSOLVER_CMD))
    skipped = []
    for label, model, max_bound in models:
        result = plan(model, max_bound, config)
        skipped += [(label, model, o.bound) for o in getattr(result, "outcomes", ())
                    if o.reason == GOAL_UNREACHABLE]
    return skipped


def _assert_unsat(skipped):
    for label, model, bound in skipped:
        encoding = build(model, build_index(model), bound)
        assert parse_answer(fixtures.run_inprocess(emit(encoding))).is_unsat, (
            label, bound)


def test_every_skipped_bound_of_the_fixtures_is_unsat(monkeypatch):
    models = [(label, model, 3) for label, model in _named_models().items()]
    models += [(f"random {seed}", fixtures.random_model(seed), 2) for seed in range(110)]
    skipped = _skipped_bounds(models, monkeypatch)
    assert {label for label, *_ in skipped} >= {"inert goal", "contradictory"}
    assert len(skipped) == 3 * 2 + 2 * 62
    _assert_unsat(skipped)


def test_every_skipped_bound_of_the_benchmark_requests_is_unsat(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    models = [(f"{name} {i}", parse_model(request.doc), request.max_bound)
              for name in ("suite", "explain")
              for i, request in enumerate(workloads.generate(name, 1).requests)]
    skipped = _skipped_bounds(models, monkeypatch)
    # 21 suite requests skip bounds 0 and 1, 7 explain requests bound 0.
    assert len(skipped) == 21 * 2 + 7
    _assert_unsat(skipped)


# -- goal relevance ----------------------------------------------------------------


def _fixture_models() -> list:
    """(label, model) of the named models and the 110 random fixtures."""
    return list(_named_models().items()) + [
        (f"random {seed}", fixtures.random_model(seed)) for seed in range(110)]


def _status(encoding) -> str:
    return parse_answer(fixtures.run_inprocess(emit(encoding))).status


def _assert_pruning_keeps_answers(label, model) -> bool:
    """At bounds 0-2, in both synonym modes, the encoding of the relevant
    capabilities answers as the full one does, in this process.  Returns
    whether a capability was pruned; if none was, the scripts are equal."""
    index = build_index(model)
    relevant = relevant_capabilities(model, index)
    pruning = len(relevant) < len(model.provided)
    for expanded in (False, True):
        full = pruned = None
        for bound in range(3):
            full = build(model, index, bound, expanded, previous=full)
            pruned = build(model, index, bound, expanded, previous=pruned,
                           relevant=relevant)
            if pruning:
                assert _status(pruned) == _status(full), (label, expanded, bound)
            else:
                assert emit(pruned) == emit(full), (label, expanded, bound)
    return pruning


def test_the_relevance_rule():
    # Transport writes the goal class and reads the AGV's position; Blink
    # reads it too, but writes only a beacon nothing relevant reads.
    model = parse_model(merge_documents(
        fixtures.with_distractor(fixtures.transport_domain()),
        fixtures.transport_problem()))
    assert relevant_capabilities(model, build_index(model)) == {"Transport"}
    # DriveTo becomes relevant through the AGV's position, which Transport
    # reads: two steps back from the goal.
    chained = fixtures.drive_transport_model()
    assert relevant_capabilities(chained, build_index(chained)) == {"DriveTo", "Transport"}
    # Nothing writes the goal class of the inert model.
    inert = fixtures.inert_goal_model()
    assert relevant_capabilities(inert, build_index(inert)) == frozenset()
    # An output with no effect writes nothing.
    doc = fixtures.lamp_doc()
    _assurance(doc)
    lamp = parse_model(doc)
    assert relevant_capabilities(lamp, build_index(lamp)) == frozenset()


def test_pruning_keeps_every_answer_of_the_fixtures():
    pruned = [label for label, model in _fixture_models()
              if _assert_pruning_keeps_answers(label, model)]
    assert "inert goal" in pruned and len(pruned) == PRUNED_FIXTURES


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 10**6))
def test_pruning_keeps_every_answer_of_a_tiny_model(seed):
    _assert_pruning_keeps_answers(f"tiny {seed}", parse_model(fixtures.tiny_model_doc(seed)))


def _answered_here(monkeypatch) -> None:
    """One-shot plan() scripts are answered in this process."""
    monkeypatch.setattr(planner, "start", lambda solver: None)
    monkeypatch.setattr(planner, "solve", lambda text, config, process=None:
                        parse_answer(fixtures.run_inprocess(text)))


def test_the_oracle_and_the_pruning_planner_agree_on_the_minimal_bound(monkeypatch):
    _answered_here(monkeypatch)
    config = PlannerConfig(solver=SolverConfig(command=fixtures.REFSOLVER_CMD))
    for label, model in _fixture_models():
        index = build_index(model)
        found = brute_force_plan(model, index, 3)
        expected = found and found.bound_happenings
        result = plan(model, 2, config)
        assert getattr(result, "bound_happenings", None) == expected, label
        # The oracle finds the same on the model without the irrelevant
        # capabilities.
        relevant = relevant_capabilities(model, index)
        kept = replace(model, provided=tuple(c for c in model.provided if c.id in relevant))
        found = brute_force_plan(kept, build_index(kept), 3)
        assert (found and found.bound_happenings) == expected, label


class _SessionHere:
    """A minimize_core session whose checks this process answers, each as
    the one-shot script of the assertions it pushes."""

    def check(self, encoding, pushed, kept=(), model=True):
        return parse_answer(fixtures.run_inprocess(
            emit(encoding.restricted([a.name for a in pushed]))))

    def close(self):
        pass


def test_no_minimal_core_names_a_pruned_capability(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    cases = [(f"random {seed}", fixtures.random_model(seed), 2) for seed in range(110)]
    cases = [(label, model, bound) for label, model, bound in cases
             if brute_force_plan(model, build_index(model), bound + 1) is None]
    assert len(cases) == 71
    cases += [(f"explain {seed}.{i}", parse_model(request.doc), request.max_bound)
              for seed in range(1, 5)
              for i, request in enumerate(workloads.generate("explain", seed).requests)]
    config = SolverConfig(command=fixtures.REFSOLVER_CMD)
    pruning = 0
    for label, model, bound in cases:
        index = build_index(model)
        encoding = build(model, index, bound,
                         relevant=relevant_capabilities(model, index))
        pruning += any(a.family == "pruned" for a in encoding.assertions)
        outcome = parse_answer(fixtures.run_inprocess(emit(encoding)))
        assert outcome.is_unsat, label
        core = minimize_core(encoding, outcome.core, config, _SessionHere())
        assert core and not [n for n in core if n.startswith("pruned.")], label
    assert pruning == PRUNED_NO_PLAN_CASES
