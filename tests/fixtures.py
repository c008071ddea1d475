"""Shared model documents: transport scenarios and a random model generator.

The transport family models an AGV that can move a product from its
current position to a freely chosen target position; the chained variant
adds a drive capability that relocates the AGV itself.  The random
generator produces small, planner- and oracle-tractable models for the
property suites.
"""

from __future__ import annotations

import io
import random
import sys

from capplan.model import merge_documents, parse_model
from capplan.refsolver import RefSolver
from capplan.sexp import SexpReader

REFSOLVER_CMD = [sys.executable, "-m", "capplan.refsolver"]


def run_inprocess(text: str) -> str:
    """The reference solver's output for a script, run in this process."""
    out = io.StringIO()
    solver = RefSolver(out)
    reader = SexpReader(io.StringIO(text))
    while True:
        sexp = reader.read()
        if sexp is None or not solver.execute(sexp):
            break
    return out.getvalue()


# The reference solver, except that the check-sat numbered `at`, counted
# over every process in the counter file, hangs, exits unanswered or is
# answered `unknown`.
FAULTY_REFSOLVER = """
import sys, time
from pathlib import Path
from capplan.refsolver import RefSolver
from capplan.sexp import SexpReader
counter, fault, at = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
reader, solver = SexpReader(sys.stdin), RefSolver(sys.stdout)
while True:
    sexp = reader.read()
    if sexp is None:
        break
    if sexp == ["check-sat"]:
        calls = int(counter.read_text()) + 1 if counter.exists() else 1
        counter.write_text(str(calls))
        if calls == at and fault == "hang":
            time.sleep(60)
        if calls == at and fault == "exit":
            sys.exit(0)
        if calls == at and fault == "unknown":
            print("unknown", flush=True)
            continue
    solver.execute(sexp)
"""


def faulty_refsolver(counter, fault: str, at: int) -> list:
    """The command of FAULTY_REFSOLVER, counting check-sats in `counter`."""
    return [sys.executable, "-c", FAULTY_REFSOLVER, str(counter), fault, str(at)]


# Two solvers that would block a writer that does not read meanwhile, once
# a check is larger than a pipe holds (64 KiB on Linux): one never reads
# its input, and one writes 320 KB of `(error "noise")` lines before it
# reads, then answers `unsat` and an empty core.  Each ends itself after
# 20 s, so a client that blocks on them fails instead of hanging.
NEVER_READS_CMD = [sys.executable, "-c", "import time; time.sleep(20)"]
FLOODS_BEFORE_READING_CMD = [sys.executable, "-c", """
import signal, sys
signal.alarm(20)
sys.stdout.write('(error "noise")\\n' * 20000)
sys.stdout.flush()
for line in sys.stdin:
    answer = {"(check-sat)": "unsat", "(get-unsat-core)": "()"}.get(line.strip())
    if answer:
        print(answer, flush=True)
"""]


def _actual(value):
    return {"expressionGoal": "actualValue", "relation": "eq", "value": str(value)}


def _requirement(value, relation="eq"):
    return {"expressionGoal": "requirement", "relation": relation, "value": str(value)}


def _assurance(value, relation="eq"):
    return {"expressionGoal": "assurance", "relation": relation, "value": str(value)}


def _eq(a, b):
    return {"apply": "eq", "args": [a, b]}


def _ref(pid):
    return {"ref": pid}


def transport_domain(product_at=5, agv_at=5) -> dict:
    """One AGV transport capability; current and after positions are
    synonymous product properties, so they share one state variable."""
    return {
        "typeDescriptions": [
            {"id": "td.position", "datatype": "Real", "unit": "mm"},
            {"id": "td.targetPosition", "datatype": "Real", "unit": "mm"},
        ],
        "products": [
            {
                "id": "Input_Product",
                "productTypeId": "PartA",
                "properties": [
                    {
                        "id": "CurrentProductPosition",
                        "typeDescription": "td.position",
                        "instanceDescriptions": [_actual(product_at)],
                    }
                ],
            },
            {
                "id": "Output_Product",
                "productTypeId": "PartA",
                "properties": [
                    {
                        "id": "ProductPositionAfter",
                        "typeDescription": "td.position",
                        "instanceDescriptions": [],
                    }
                ],
            },
        ],
        "resources": [
            {
                "id": "AGV",
                "properties": [
                    {
                        "id": "AGVPosition",
                        "typeDescription": "td.position",
                        "instanceDescriptions": [_actual(agv_at)],
                    }
                ],
            }
        ],
        "information": [
            {
                "id": "TransportOrder",
                "typeId": "OrderA",
                "properties": [
                    {
                        "id": "TargetPosition",
                        "typeDescription": "td.targetPosition",
                        "instanceDescriptions": [],
                    }
                ],
            }
        ],
        "capabilities": [
            {
                "id": "Transport",
                "kind": "provided",
                "inputs": [
                    {"entity": "Input_Product", "properties": ["CurrentProductPosition"]},
                    {"entity": "TransportOrder", "properties": ["TargetPosition"]},
                    {"entity": "AGV", "properties": ["AGVPosition"]},
                ],
                "outputs": [
                    {"entity": "Output_Product", "properties": ["ProductPositionAfter"]}
                ],
                "constraints": [
                    _eq(_ref("CurrentProductPosition"), _ref("AGVPosition")),
                    _eq(_ref("TargetPosition"), _ref("ProductPositionAfter")),
                ],
            }
        ],
    }


def with_distractor(domain: dict) -> dict:
    """The domain plus Blink, which reads the AGV's position and switches
    on a beacon that no goal reads: a capability that cannot reach the
    goal, though it shares a class, and so a mutex, with Transport."""
    flag = {"expressionGoal": "actualValue", "relation": "eq", "value": False}
    on = {"expressionGoal": "assurance", "relation": "eq", "value": True}
    return {
        **domain,
        "typeDescriptions": domain["typeDescriptions"] + [
            {"id": "td.beaconOn", "datatype": "Boolean"}],
        "products": domain["products"] + [{
            "id": "Beacon", "productTypeId": "BeaconType", "properties": [
                {"id": "BeaconOn", "typeDescription": "td.beaconOn",
                 "instanceDescriptions": [flag]},
                {"id": "BeaconOnAfter", "typeDescription": "td.beaconOn",
                 "instanceDescriptions": [on]}]}],
        "capabilities": domain["capabilities"] + [{
            "id": "Blink", "kind": "provided",
            "inputs": [{"entity": "AGV", "properties": ["AGVPosition"]},
                       {"entity": "Beacon", "properties": ["BeaconOn"]}],
            "outputs": [{"entity": "Beacon", "properties": ["BeaconOnAfter"]}]}],
    }


def transport_problem(goal=10, require_input_at=None) -> dict:
    before_descriptions = []
    if require_input_at is not None:
        before_descriptions.append(_requirement(require_input_at))
    return {
        "products": [
            {
                "id": "Requested_Product",
                "productTypeId": "PartA",
                "properties": [
                    {
                        "id": "RequestedPositionBefore",
                        "typeDescription": "td.position",
                        "instanceDescriptions": before_descriptions,
                    },
                    {
                        "id": "RequestedPositionAfter",
                        "typeDescription": "td.position",
                        "instanceDescriptions": [_requirement(goal)],
                    },
                ],
            }
        ],
        "capabilities": [
            {
                "id": "TransportRequest",
                "kind": "required",
                "inputs": [
                    {
                        "entity": "Requested_Product",
                        "properties": ["RequestedPositionBefore"],
                    }
                ],
                "outputs": [
                    {
                        "entity": "Requested_Product",
                        "properties": ["RequestedPositionAfter"],
                    }
                ],
            }
        ],
    }


def transport_model(product_at=5, agv_at=5, goal=10, require_input_at=None):
    merged = merge_documents(
        transport_domain(product_at, agv_at),
        transport_problem(goal, require_input_at),
    )
    return parse_model(merged)


def transport_single_doc(product_at=5, agv_at=5, goal=10) -> dict:
    """The whole scenario in one document: the required capability points
    at the very same product properties, so the model has exactly four
    properties."""
    doc = transport_domain(product_at, agv_at)
    doc["products"][1]["properties"][0]["instanceDescriptions"] = [_requirement(goal)]
    doc["capabilities"].append(
        {
            "id": "TransportRequest",
            "kind": "required",
            "inputs": [
                {"entity": "Input_Product", "properties": ["CurrentProductPosition"]}
            ],
            "outputs": [
                {"entity": "Output_Product", "properties": ["ProductPositionAfter"]}
            ],
            "constraints": [],
        }
    )
    return doc


def transport_distinct_domain() -> dict:
    """Variant in which all four properties have distinct type descriptions
    (so every property is its own class); used for variable-count checks
    and the emission golden file."""
    doc = transport_domain()
    doc["typeDescriptions"] = [
        {"id": "td.currentPosition", "datatype": "Real"},
        {"id": "td.targetPosition", "datatype": "Real"},
        {"id": "td.positionAfter", "datatype": "Real"},
        {"id": "td.agvPosition", "datatype": "Real"},
    ]
    doc["products"][0]["properties"][0]["typeDescription"] = "td.currentPosition"
    doc["products"][0]["properties"][0]["instanceDescriptions"] = [
        _requirement(0, relation="geq")
    ]
    doc["products"][1]["properties"][0]["typeDescription"] = "td.positionAfter"
    doc["resources"][0]["properties"][0]["typeDescription"] = "td.agvPosition"
    doc["resources"][0]["properties"][0]["instanceDescriptions"] = []
    return doc


def transport_distinct_problem() -> dict:
    return {
        "products": [
            {
                "id": "Requested_Product",
                "productTypeId": "PartA",
                "properties": [
                    {
                        "id": "RequestedPositionAfter",
                        "typeDescription": "td.positionAfter",
                        "instanceDescriptions": [_requirement(10)],
                    }
                ],
            }
        ],
        "capabilities": [
            {
                "id": "TransportRequest",
                "kind": "required",
                "inputs": [],
                "outputs": [
                    {
                        "entity": "Requested_Product",
                        "properties": ["RequestedPositionAfter"],
                    }
                ],
            }
        ],
    }


def crowded_transport_model(copies=40):
    """The transport scenario with `copies` identical Transport
    capabilities.  Each writes the goal class, so relevance keeps them all,
    and their pairwise mutexes make bound 0's script 94 KB: larger than a
    pipe holds."""
    domain = transport_domain()
    transport = domain["capabilities"][0]
    domain["capabilities"] = [dict(transport, id=f"Transport{i}") for i in range(copies)]
    return parse_model(merge_documents(domain, transport_problem()))


def drive_transport_domain(product_at=3, agv_at=5) -> dict:
    """Transport plus a DriveTo capability that relocates the AGV to a
    freely chosen position; they are mutex through AGVPosition."""
    doc = transport_domain(product_at, agv_at)
    doc["typeDescriptions"].append(
        {"id": "td.driveTarget", "datatype": "Real", "unit": "mm"}
    )
    doc["information"].append(
        {
            "id": "DriveOrder",
            "typeId": "OrderB",
            "properties": [
                {
                    "id": "DriveTarget",
                    "typeDescription": "td.driveTarget",
                    "instanceDescriptions": [],
                }
            ],
        }
    )
    doc["capabilities"].append(
        {
            "id": "DriveTo",
            "kind": "provided",
            "inputs": [
                {"entity": "DriveOrder", "properties": ["DriveTarget"]},
                {"entity": "AGV", "properties": ["AGVPosition"]},
            ],
            "outputs": [{"entity": "AGV", "properties": ["AGVPosition"]}],
            "constraints": [_eq(_ref("DriveTarget"), _ref("AGVPosition"))],
        }
    )
    return doc


def drive_transport_model(product_at=3, agv_at=5, goal=10):
    merged = merge_documents(
        drive_transport_domain(product_at, agv_at), transport_problem(goal)
    )
    return parse_model(merged)


def inert_goal_model(product_at=5, goal=10):
    """No capability affects the goal class: unsatisfiable for any bound."""
    domain = drive_transport_domain(product_at=product_at)
    domain["capabilities"] = [
        c for c in domain["capabilities"] if c["id"] == "DriveTo"
    ]
    # Without Transport the transport order is noise; keep documents minimal.
    domain["information"] = [
        e for e in domain["information"] if e["id"] == "DriveOrder"
    ]
    domain["products"] = [p for p in domain["products"] if p["id"] == "Input_Product"]
    problem = transport_problem(goal=goal)
    problem["products"][0]["properties"] = problem["products"][0]["properties"][1:]
    problem["capabilities"][0]["inputs"] = []
    return parse_model(merge_documents(domain, problem))


def parked_agv_model():
    """The AGV is parked away from the product, and nothing moves it:
    Transport never applies, so no bound has a plan.  Relaxed planning
    counts Transport's constraints as satisfiable and reaches the goal
    after one happening, so the planner solves every bound."""
    return transport_model(product_at=5, agv_at=7, goal=10)


def contradictory_model():
    """The required capability demands an initial product position that
    contradicts the actual value."""
    return transport_model(product_at=5, agv_at=5, goal=10, require_input_at=3)


def satisfied_goal_model():
    """Initial state already satisfies the goal; Transport cannot even run."""
    return transport_model(product_at=10, agv_at=5, goal=10)


def lamp_doc() -> dict:
    """One Boolean class: the lamp is off, SwitchOn turns it on, and the
    goal is that it is on."""
    return {
        "typeDescriptions": [{"id": "td.on", "datatype": "Boolean"}],
        "products": [
            {"id": "Lamp", "productTypeId": "L", "properties": [
                {"id": "lamp.on", "typeDescription": "td.on",
                 "instanceDescriptions": [
                     {"expressionGoal": "actualValue", "value": False},
                     {"expressionGoal": "requirement", "value": True}]},
                {"id": "lamp.on.after", "typeDescription": "td.on",
                 "instanceDescriptions": [
                     {"expressionGoal": "assurance", "value": True}]}]}
        ],
        "capabilities": [
            {"id": "SwitchOn", "kind": "provided", "inputs": [],
             "outputs": [{"entity": "Lamp", "properties": ["lamp.on.after"]}]},
            {"id": "req", "kind": "required", "inputs": [],
             "outputs": [{"entity": "Lamp", "properties": ["lamp.on"]}]},
        ],
    }


# -- random models -------------------------------------------------------------


def random_model_doc(seed: int) -> dict:
    """A small random planning model.

    Kept oracle-friendly on purpose: requirements and goals are equalities
    over a small constant pool, unbound parameters only occur as the bare
    right-hand side of an output equality, and arithmetic is limited to
    offsets of input references.
    """
    rng = random.Random(seed)
    n_real = rng.randint(1, 3)
    n_bool = rng.randint(0, min(2, 4 - n_real))
    param_budget = 2  # with at most 4 slots this caps the classes at 6
    slots = []
    for i in range(n_real):
        slots.append({"name": f"pos{i}", "td": f"td.pos{i}", "ptype": f"Part{i}",
                      "real": True})
    for i in range(n_bool):
        slots.append({"name": f"flag{i}", "td": f"td.flag{i}",
                      "ptype": f"Part{n_real + i}", "real": False})

    consts = list(range(0, 5))
    doc = {
        "typeDescriptions": [
            {"id": s["td"], "datatype": "Real" if s["real"] else "Boolean"}
            for s in slots
        ],
        "products": [],
        "information": [],
        "capabilities": [],
    }

    def add_product(name, slot, descriptions):
        doc["products"].append(
            {
                "id": name,
                "productTypeId": slot["ptype"],
                "properties": [
                    {
                        "id": f"{name}.{slot['name']}",
                        "typeDescription": slot["td"],
                        "instanceDescriptions": descriptions,
                    }
                ],
            }
        )
        return f"{name}.{slot['name']}"

    n_caps = rng.randint(1, 3)
    for j in range(n_caps):
        cap_inputs = []
        cap_outputs = []
        constraints = []
        in_slots = rng.sample(slots, k=min(len(slots), rng.randint(1, 2)))
        out_slots = rng.sample(slots, k=min(len(slots), rng.randint(0, 2)))
        real_inputs = []
        for s in in_slots:
            descriptions = []
            if s["real"]:
                if rng.random() < 0.55:
                    descriptions.append(_requirement(rng.choice(consts)))
            else:
                if rng.random() < 0.55:
                    descriptions.append(
                        {"expressionGoal": "requirement", "relation": "eq",
                         "value": rng.random() < 0.5}
                    )
            pid = add_product(f"c{j}in.{s['name']}", s, descriptions)
            cap_inputs.append({"entity": f"c{j}in.{s['name']}", "properties": [pid]})
            if s["real"]:
                real_inputs.append(pid)
        for s in out_slots:
            descriptions = []
            pid = add_product(f"c{j}out.{s['name']}", s, [])
            cap_outputs.append({"entity": f"c{j}out.{s['name']}", "properties": [pid]})
            if s["real"]:
                choice = rng.random()
                if choice < 0.35:
                    descriptions.append(_assurance(rng.choice(consts)))
                elif choice < 0.6 and real_inputs:
                    constraints.append(
                        _eq(_ref(pid),
                            {"apply": "plus",
                             "args": [_ref(rng.choice(real_inputs)),
                                      {"const": str(rng.choice([1, 2]))}]})
                    )
                elif choice < 0.8 and param_budget > 0:
                    # Unbound parameter feeding the output directly.
                    param_budget -= 1
                    param = {
                        "id": f"c{j}.param.{s['name']}",
                        "typeId": f"Order{j}{s['name']}",
                        "properties": [
                            {
                                "id": f"c{j}.param.{s['name']}.value",
                                "typeDescription": s["td"],
                                "instanceDescriptions": [],
                            }
                        ],
                    }
                    doc["information"].append(param)
                    cap_inputs.append(
                        {"entity": param["id"],
                         "properties": [param["properties"][0]["id"]]}
                    )
                    constraints.append(
                        _eq(_ref(pid), _ref(param["properties"][0]["id"]))
                    )
                elif real_inputs:
                    constraints.append(_eq(_ref(pid), _ref(rng.choice(real_inputs))))
                else:
                    descriptions.append(_assurance(rng.choice(consts)))
            else:
                if rng.random() < 0.85:
                    descriptions.append(
                        {"expressionGoal": "assurance", "relation": "eq",
                         "value": rng.random() < 0.5}
                    )
                else:
                    descriptions.append({"expressionGoal": "assurance"})
            doc["products"][-1]["properties"][0]["instanceDescriptions"] = descriptions
        doc["capabilities"].append(
            {
                "id": f"cap{j}",
                "kind": "provided",
                "inputs": cap_inputs,
                "outputs": cap_outputs,
                "constraints": constraints,
            }
        )

    # Actual values pin most slots so the oracle's initial enumeration
    # stays small.
    pins = {}
    for i, s in enumerate(slots):
        if rng.random() < 0.8:
            value = rng.choice(consts) if s["real"] else rng.random() < 0.5
            pins[s["name"]] = value
            descriptions = [
                {"expressionGoal": "actualValue", "relation": "eq",
                 "value": str(value) if s["real"] else value}
            ]
            add_product(f"state.{s['name']}", s, descriptions)

    goal_slots = rng.sample(slots, k=rng.randint(1, min(2, len(slots))))
    req_outputs = []
    for s in goal_slots:
        pin = pins.get(s["name"])
        if s["real"]:
            pool = [c for c in consts if c != pin] if (
                pin is not None and rng.random() < 0.8) else consts
            value = rng.choice(pool)
        else:
            if pin is not None and rng.random() < 0.8:
                value = not pin
            else:
                value = rng.random() < 0.5
        pid = add_product(
            f"goal.{s['name']}", s,
            [{"expressionGoal": "requirement", "relation": "eq",
              "value": str(value) if s["real"] else value}],
        )
        req_outputs.append({"entity": f"goal.{s['name']}", "properties": [pid]})
    doc["capabilities"].append(
        {
            "id": "request",
            "kind": "required",
            "inputs": [],
            "outputs": req_outputs,
            "constraints": [],
        }
    )
    return doc


def random_model(seed: int):
    return parse_model(random_model_doc(seed))


REAL_RELATIONS = ("eq", "neq", "lt", "gt", "leq", "geq")


def tiny_model_doc(seed: int) -> dict:
    """A random model of at most 3 classes and 3 provided capabilities.
    Beyond `random_model`, it draws every relation, valueless
    assurances, precondition constraints, effect constraints that are no
    assignments, and constraints of the required capability."""
    rng = random.Random(seed)
    reals = [rng.random() < 0.6 for _ in range(rng.randint(1, 3))]  # per class
    classes = range(len(reals))
    doc = {
        "typeDescriptions": [{"id": f"td{k}", "datatype": "Real" if real else "Boolean"}
                             for k, real in enumerate(reals)],
        "products": [],
        "capabilities": [],
    }

    def port(name, k, *descriptions):
        """A port of a new property of class k, on a product of its own."""
        doc["products"].append({
            "id": f"E.{name}", "productTypeId": f"T{k}",
            "properties": [{"id": name, "typeDescription": f"td{k}",
                            "instanceDescriptions": list(descriptions)}],
        })
        return {"entity": f"E.{name}", "properties": [name]}

    def desc(goal, k, relation=None):
        if relation is None:
            relation = rng.choice(REAL_RELATIONS if reals[k] else ("eq", "neq"))
        value = str(rng.randint(0, 2)) if reals[k] else rng.random() < 0.5
        return {"expressionGoal": goal, "relation": relation, "value": value}

    def maybe(goal, k):
        return [desc(goal, k)] if rng.random() < 0.5 else []

    for k in classes:
        if rng.random() < 0.8:
            port(f"now{k}", k, desc("actualValue", k, "eq"))
    for j in range(rng.randint(1, 3)):
        width = rng.randint(1, len(reals)) if rng.random() < 0.4 else 1
        ins = rng.sample(classes, width)
        outs = ins if rng.random() < 0.6 else rng.sample(
            classes, rng.randint(0, min(2, len(reals))))
        inputs = [port(f"c{j}in{k}", k, *maybe("requirement", k)) for k in ins]
        real_inputs = [{"ref": f"c{j}in{k}"} for k in ins if reals[k]]
        constraints, outputs = [], []
        if real_inputs and rng.random() < 0.3:  # a precondition
            constraints.append({"apply": rng.choice(REAL_RELATIONS), "args": [
                rng.choice(real_inputs), {"const": str(rng.randint(0, 2))}]})
        for k in outs:
            name, choice = f"c{j}out{k}", rng.random()
            if reals[k] and real_inputs and choice < 0.5:  # an effect
                source = rng.choice(real_inputs)
                if rng.random() < 0.5:
                    source = {"apply": "plus", "args": [source, {"const": "1"}]}
                relation = "eq" if choice < 0.3 else rng.choice(REAL_RELATIONS)
                constraints.append({"apply": relation, "args": [{"ref": name}, source]})
                outputs.append(port(name, k))
            elif choice < 0.85:
                outputs.append(port(name, k, desc("assurance", k)))
            else:
                outputs.append(port(name, k, {"expressionGoal": "assurance"}))
        doc["capabilities"].append({"id": f"cap{j}", "kind": "provided",
                                    "inputs": inputs, "outputs": outputs,
                                    "constraints": constraints})

    goals = rng.sample(classes, rng.randint(1, min(2, len(reals))))
    outputs = [port(f"goal{k}", k, desc("requirement", k, rng.choice(("eq", None))))
               for k in goals]
    inputs, constraints = [], []
    k = rng.choice(classes)
    if rng.random() < 0.5:
        inputs.append(port(f"before{k}", k, *maybe("requirement", k)))
        real_goals = [g for g in goals if reals[g]]
        if reals[k] and real_goals:  # relates the goal to the initial state
            constraints.append({"apply": rng.choice(REAL_RELATIONS), "args": [
                {"ref": f"goal{rng.choice(real_goals)}"}, {"ref": f"before{k}"}]})
    doc["capabilities"].append({"id": "request", "kind": "required", "inputs": inputs,
                                "outputs": outputs, "constraints": constraints})
    return doc
