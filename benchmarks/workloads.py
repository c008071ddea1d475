"""Seeded workload generators for the capplan benchmark.

Every generator takes a `random.Random` built from the command-line seed
and returns model documents plus what the oracle expects of them, so the
same seed always yields the same inputs.  The program under test only
ever sees the documents.

Workloads (one request = parse_model + plan, plus explain on no plan):

suite    small random models, bounds 0..2, one-shot, no core minimisation.
         Mostly solver spawn and import time.
chain    a k-station chain whose plan needs exactly k happenings, one-shot.
         Mostly the reference solver's search and theory checks.
wide     the chain plus many boolean distractor capabilities sharing a few
         synonymy classes, incremental (push/pop) solving.  The encoder,
         the synonymy index and SMT-LIB text volume carry real weight.
explain  infeasible random models planned with core minimisation, then
         explained.  The only workload whose result is an unsat core.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from capplan.encoder import build
from capplan.errors import DomainTooLarge
from capplan.model import parse_model
from capplan.oracle import brute_force_plan
from capplan.synonymy import build_index

SUITE_MAX_BOUND = 2
# Requests of one suite block, by oracle verdict: 4 of 11 with a plan, as
# in the test suite's 110-model random suite (39 of 110).  Fixing the mix
# per block keeps the solver calls per request the same for every seed.
SUITE_BLOCK = (("plan", 4), ("none", 7))
SUITE_BLOCKS = 3

CHAIN_STATIONS = 8
CHAIN_REQUESTS = 6

WIDE_STATIONS = 3
WIDE_DISTRACTORS = 64
WIDE_FLAG_CLASSES = 4
WIDE_REQUESTS = 16

EXPLAIN_MAX_BOUND = 1
# Assertions of the encoding at the last bound.  The refsolver's raw core
# is every assertion and minimisation makes one solve per core member, so
# this fixes the number of solver calls per request.
EXPLAIN_ASSERTIONS = 16
EXPLAIN_REQUESTS = 8

# Random models with more unpinned state classes than this are redrawn:
# the oracle enumerates every initial value of an unpinned class, and its
# cost, paid in set-up, grows steeply with their number.
RANDOM_FREE_CLASSES = 1


@dataclass(frozen=True)
class Request:
    """One benchmark request: a model document and the planner's bound."""

    doc: dict
    max_bound: int
    # Happenings of the minimal plan, or None when no plan exists within
    # max_bound.  Known from the oracle or from the construction.
    expected: Optional[int]


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple
    incremental: bool = False
    minimize: bool = False


WORKLOADS = ("suite", "chain", "wide", "explain")


def generate(name: str, seed: int) -> Workload:
    """The workload `name` for `seed`; identical seeds give identical
    documents."""
    rng = random.Random(f"{name}:{seed}")
    if name == "suite":
        return Workload(name, _suite(rng))
    if name == "chain":
        return Workload(name, tuple(
            Request(chain_doc(rng, CHAIN_STATIONS), CHAIN_STATIONS, CHAIN_STATIONS)
            for _ in range(CHAIN_REQUESTS)
        ))
    if name == "wide":
        return Workload(name, tuple(
            Request(wide_doc(rng, WIDE_STATIONS, WIDE_DISTRACTORS,
                             WIDE_FLAG_CLASSES),
                    WIDE_STATIONS, WIDE_STATIONS)
            for _ in range(WIDE_REQUESTS)
        ), incremental=True)
    if name == "explain":
        return Workload(name, _explain(rng), minimize=True)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# -- documents -------------------------------------------------------------------


def _desc(goal, value=None):
    doc = {"expressionGoal": goal}
    if value is not None:
        doc["relation"] = "eq"
        doc["value"] = value if isinstance(value, bool) else str(value)
    return doc


def _ref(pid):
    return {"ref": pid}


class _Doc:
    """Accumulates one model document; each property gets its own
    single-property carrier so synonymy is decided by the type alone."""

    def __init__(self):
        self.doc = {"typeDescriptions": [], "products": [], "information": [],
                    "capabilities": []}

    def type(self, td, datatype):
        self.doc["typeDescriptions"].append({"id": td, "datatype": datatype})

    def product(self, entity, ptype, td, *descriptions) -> str:
        pid = f"{entity}.v"
        self.doc["products"].append({
            "id": entity, "productTypeId": ptype,
            "properties": [{"id": pid, "typeDescription": td,
                            "instanceDescriptions": list(descriptions)}],
        })
        return pid

    def information(self, entity, type_id, td) -> str:
        pid = f"{entity}.v"
        self.doc["information"].append({
            "id": entity, "typeId": type_id,
            "properties": [{"id": pid, "typeDescription": td,
                            "instanceDescriptions": []}],
        })
        return pid

    def capability(self, cap_id, inputs, outputs, constraints=(), kind="provided"):
        self.doc["capabilities"].append({
            "id": cap_id, "kind": kind,
            "inputs": [{"entity": p.rsplit(".", 1)[0], "properties": [p]} for p in inputs],
            "outputs": [{"entity": p.rsplit(".", 1)[0], "properties": [p]} for p in outputs],
            "constraints": list(constraints),
        })


def chain_doc(rng: random.Random, stations: int, doc: Optional[_Doc] = None) -> dict:
    """A part moves along `stations` stations, one real-valued move per
    station: move_i needs the part at p_i and leaves it at p_{i+1}.  All
    moves touch the one position class, so they are mutex and the shortest
    plan applies one per happening: exactly `stations` happenings."""
    doc = doc or _Doc()
    doc.type("td.pos", "Real")
    start, step = rng.randrange(100), rng.randint(1, 9)
    positions = [start + step * i for i in range(stations + 1)]
    doc.product("Part.state", "Part", "td.pos", _desc("actualValue", positions[0]))
    for i in range(stations):
        needs = doc.product(f"Part.in{i}", "Part", "td.pos",
                            _desc("requirement", positions[i]))
        leaves = doc.product(f"Part.out{i}", "Part", "td.pos",
                             _desc("assurance", positions[i + 1]))
        doc.capability(f"move{i}", [needs], [leaves])
    goal = doc.product("Part.goal", "Part", "td.pos",
                       _desc("requirement", positions[-1]))
    doc.capability("request", [], [goal], kind="required")
    return doc.doc


def wide_doc(rng: random.Random, stations: int, distractors: int,
             flag_classes: int) -> dict:
    """The chain plus boolean distractor capabilities.  Each distractor
    reads one flag class and writes one; with few classes most distractor
    pairs are mutex, so the encoding grows with the square of their
    number while the plan stays the chain's.  The seed draws the flags'
    values."""
    doc = _Doc()
    doc.type("td.flag", "Boolean")
    for c in range(flag_classes):
        doc.product(f"Flag{c}.state", f"Flag{c}", "td.flag",
                    _desc("actualValue", rng.random() < 0.5))
    for d in range(distractors):
        # Every (read, write) class pair equally often, so the number of
        # mutex pairs, and the encoding's size, is the same for every seed.
        reads, writes = d % flag_classes, (d // flag_classes) % flag_classes
        needs = doc.product(f"Flag{reads}.in{d}", f"Flag{reads}", "td.flag",
                            _desc("requirement", rng.random() < 0.5))
        sets = doc.product(f"Flag{writes}.out{d}", f"Flag{writes}", "td.flag",
                           _desc("assurance", rng.random() < 0.5))
        doc.capability(f"distract{d}", [needs], [sets])
    return chain_doc(rng, stations, doc)


def random_doc(rng: random.Random) -> dict:
    """A small random model: up to four state slots (real positions and
    boolean flags), one to three capabilities with requirements,
    assurances, offsets and free parameters, pinned initial values and a
    goal on one or two slots.  Values come from a small constant pool so
    the oracle's enumeration stays small."""
    doc = _Doc()
    n_real = rng.randint(1, 3)
    n_bool = rng.randint(0, min(2, 4 - n_real))
    slots = [(f"pos{i}", True) for i in range(n_real)]
    slots += [(f"flag{i}", False) for i in range(n_bool)]
    for name, real in slots:
        doc.type(f"td.{name}", "Real" if real else "Boolean")
    consts = range(5)

    def value(real):
        return rng.choice(consts) if real else rng.random() < 0.5

    def product(entity, slot, *descriptions):
        name = slot[0]
        return doc.product(f"{entity}.{name}", f"T.{name}", f"td.{name}", *descriptions)

    params = 2
    for j in range(rng.randint(1, 3)):
        inputs, outputs, constraints, real_inputs = [], [], [], []
        for slot in rng.sample(slots, k=min(len(slots), rng.randint(1, 2))):
            descriptions = [_desc("requirement", value(slot[1]))] if rng.random() < 0.55 else []
            pid = product(f"c{j}in", slot, *descriptions)
            inputs.append(pid)
            if slot[1]:
                real_inputs.append(pid)
        for slot in rng.sample(slots, k=min(len(slots), rng.randint(0, 2))):
            if not slot[1]:
                keep = rng.random() >= 0.85
                outputs.append(product(f"c{j}out", slot,
                                       _desc("assurance", None if keep else value(False))))
                continue
            roll = rng.random()
            if roll < 0.35:
                written = "assured"
            elif roll < 0.6 and real_inputs:
                written = "offset"
            elif roll < 0.8 and params:
                written = "parameter"
            elif real_inputs:
                written = "copy"
            else:
                written = "assured"
            if written == "assured":
                outputs.append(product(f"c{j}out", slot, _desc("assurance", value(True))))
                continue
            pid = product(f"c{j}out", slot)
            outputs.append(pid)
            if written == "offset":
                source = {"apply": "plus",
                          "args": [_ref(rng.choice(real_inputs)),
                                   {"const": str(rng.choice((1, 2)))}]}
            elif written == "parameter":
                params -= 1
                source = _ref(doc.information(f"c{j}.param.{slot[0]}",
                                              f"Order{j}{slot[0]}", f"td.{slot[0]}"))
                inputs.append(source["ref"])
            else:
                source = _ref(rng.choice(real_inputs))
            constraints.append({"apply": "eq", "args": [_ref(pid), source]})
        doc.capability(f"cap{j}", inputs, outputs, constraints)

    pins = {}
    for slot in slots:
        if rng.random() < 0.8:
            pins[slot[0]] = value(slot[1])
            product("state", slot, _desc("actualValue", pins[slot[0]]))
    goals = []
    for slot in rng.sample(slots, k=rng.randint(1, min(2, len(slots)))):
        pin = pins.get(slot[0])
        if pin is None or rng.random() >= 0.8:
            target = value(slot[1])
        elif slot[1]:
            target = rng.choice([c for c in consts if c != pin])
        else:
            target = not pin
        goals.append(product("goal", slot, _desc("requirement", target)))
    doc.capability("request", [], goals, kind="required")
    return doc.doc


# -- oracle-labelled draws -------------------------------------------------------


def _labelled(rng: random.Random, max_bound: int, accept=None):
    """Endless random documents with the oracle's answer for bounds
    0..max_bound, as (document, happenings or None).  Documents that fail
    accept(model, index) are skipped before the oracle runs, and so are
    those the oracle cannot decide, since their answers could not be
    checked."""
    while True:
        doc = random_doc(rng)
        model = parse_model(doc)
        index = build_index(model)
        free = sum(
            1 for cls in index.classes
            if not any(model.properties[p].actual_values() for p in cls.member_ids)
        )
        if free > RANDOM_FREE_CLASSES or (accept and not accept(model, index)):
            continue
        try:
            found = brute_force_plan(model, index, max_bound + 1)
        except DomainTooLarge:
            continue
        yield doc, None if found is None else found.bound_happenings


def _suite(rng: random.Random) -> tuple:
    draws = _labelled(rng, SUITE_MAX_BOUND)
    requests = []
    for _ in range(SUITE_BLOCKS):
        wanted = dict(SUITE_BLOCK)
        block = []
        while any(wanted.values()):
            doc, expected = next(draws)
            kind = "none" if expected is None else "plan"
            if wanted[kind]:
                wanted[kind] -= 1
                block.append(Request(doc, SUITE_MAX_BOUND, expected))
        rng.shuffle(block)
        requests.extend(block)
    return tuple(requests)


def _explain(rng: random.Random) -> tuple:
    def sized(model, index):
        encoding = build(model, index, EXPLAIN_MAX_BOUND)
        return len(encoding.assertions) == EXPLAIN_ASSERTIONS

    requests = []
    for doc, expected in _labelled(rng, EXPLAIN_MAX_BOUND, sized):
        if expected is None:
            requests.append(Request(doc, EXPLAIN_MAX_BOUND, None))
            if len(requests) == EXPLAIN_REQUESTS:
                return tuple(requests)
