"""Iterative-deepening planning loop, plan extraction and explanations.

One loop encodes the problem for bound k = 0, 1, ... and stops at the
first satisfiable bound, so a returned plan always uses the smallest
possible number of happenings (bound k means k+1 happenings; the empty
plan lives at bound 0).  Each bound yields one BoundOutcome.  A bound the
solver cannot decide, a timeout included, is recorded as unknown and the
loop goes on.  When every bound fails, the last unsat core is kept so the
failure can be mapped back to model elements.

Before the loop, the relaxed planning graph of `relax` is asked once
whether the goal can ever hold.  When its layers level off without the
goal, no bound has a plan: every bound below the last is recorded unsat
for GOAL_UNREACHABLE, with no encoding and no solver contact, and only
the last bound is solved, so that its core can explain the failure.
`relax` also gives, once, the capabilities that can reach the goal: every
bound encodes only those, and fixes the others false.

Only where a bound's outcome comes from depends on the mode.  Plain
one-shot mode runs a fresh solver process over the emitted script: each
process is sent one complete script, then EOF.  So that the next solver's
start-up runs while the current bound is solved, the process for bound
n+1 is started when bound n's script is sent: one process ahead, none
past the last bound.  When a plan is found, or an error raised, before
the last bound, that process is killed unused, so a wrapper that counts
solver starts sees one more start than bounds solved.  A bound's timeout
counts from when its script is sent.

Every other check goes through one push/pop session (_Session): one
process that is sent the script header when it starts, each declaration
once, and a check's assertions under (push 1).  Its process is replaced
only after a check times out.  A run that minimizes its core checks every
bound with the whole encoding under (push 1), with or without
incremental mode, and core minimization goes on in the same session.
Plain incremental mode sends the encoding's stable assertions once,
outside any push, so only the retractable (goal-side) ones are popped
between bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import expr as ex
from . import relax
from .encoder import Encoding, VariableKey, build
from .errors import CoresUnavailable, IncompleteModel
from .model import CapabilityModel, require_valid, validate
from .smtlib import (
    SmtProcess,
    SolveOutcome,
    SolverConfig,
    _render_term,
    assertion_line,
    declaration,
    emit,
    reap,
    script_header,
    solve,
    start,
)
from .synonymy import build_index


@dataclass(frozen=True, slots=True)
class Happening:
    applied: tuple
    layer0: dict
    layer1: dict


@dataclass(frozen=True, slots=True)
class Plan:
    happenings: tuple
    bound_happenings: int
    classes: dict
    parameters: dict


# The reason of a bound that was not solved because the relaxed planning
# graph levels off without the goal.
GOAL_UNREACHABLE = "goal unreachable at level-off"


@dataclass(frozen=True, slots=True)
class BoundOutcome:
    bound: int
    status: str
    reason: Optional[str] = None
    core: Optional[tuple] = None


@dataclass
class NoPlanFound:
    """Every bound up to the maximum failed.  `last_core` is the core of
    the last bound the solver answered unsat, minimized if asked;
    `last_encoding` is that bound's encoding restricted to `last_core`,
    enough to explain it.  `goal_unreachable` is set when the relaxed
    planning graph proves that no bound of any length has a plan."""

    outcomes: tuple
    all_unsat: bool
    last_core: Optional[list] = None
    last_encoding: Optional[Encoding] = field(default=None, repr=False)
    goal_unreachable: bool = False


@dataclass(frozen=True, slots=True)
class ExplanationElement:
    name: str
    family: str
    element_id: str
    happening: Optional[int]
    rendering: str


@dataclass(frozen=True, slots=True)
class Explanation:
    core_names: tuple
    elements: tuple


@dataclass
class PlannerConfig:
    solver: SolverConfig
    expanded: bool = False
    incremental: bool = False
    minimize: bool = False


def plan(model: CapabilityModel, max_happenings: int,
         config: PlannerConfig) -> Union[Plan, NoPlanFound]:
    """Find a minimal-bound plan within bounds 0..max_happenings."""
    require_valid(validate(model))
    if max_happenings < 0:
        raise ValueError("max_happenings must be >= 0")
    index = build_index(model)
    unreachable = relax.goal_happenings(model, index) is None
    relevant = relax.relevant_capabilities(model, index)
    first = max_happenings if unreachable else 0
    outcomes = [BoundOutcome(bound, "unsat", GOAL_UNREACHABLE)
                for bound in range(first)]
    solver = config.solver
    session = _Session(solver) if config.incremental or config.minimize else None
    # The next bound's one-shot process, started while this bound solves;
    # none past the last bound.
    ahead = None
    last_core = None
    last_encoding = None
    encoding = None
    try:
        for bound in range(first, max_happenings + 1):
            # Each bound reuses the happening blocks of the one before.
            encoding = build(model, index, bound, expanded=config.expanded,
                             previous=encoding, relevant=relevant)
            if session is None:
                # A process is `ahead`, for the finally clause to reap,
                # until the next bound's has started.
                ahead = ahead or start(solver)
                process, ahead = ahead, start(solver) if bound < max_happenings else None
                script = emit(encoding, random_seed=solver.random_seed)
                result = solve(script, solver, process)
            elif config.minimize:
                # Nothing outside the push, so the trials can follow.
                result = session.check(encoding, encoding.assertions)
            else:
                stable = [a for a in encoding.assertions if not a.retractable]
                goal = [a for a in encoding.assertions if a.retractable]
                result = session.check(encoding, goal, kept=stable)
            if result.is_sat:
                return extract_plan(encoding, result.valuation)
            core = list(result.core) if result.core else None
            outcomes.append(BoundOutcome(bound, result.status, result.reason,
                                         tuple(core) if core else None))
            if result.is_unsat:
                last_core = core
                last_encoding = encoding
        if config.minimize and last_core:
            last_core = minimize_core(last_encoding, last_core, solver, session)
    finally:
        if session is not None:
            session.close()
        if ahead is not None:
            reap(ahead)
    if last_encoding is not None:
        last_encoding = last_encoding.restricted(last_core or ())
    return NoPlanFound(
        outcomes=tuple(outcomes),
        all_unsat=all(o.status == "unsat" for o in outcomes),
        last_core=last_core,
        last_encoding=last_encoding,
        goal_unreachable=unreachable,
    )


class _Session:
    """One solver process checked with push/pop over an encoding.

    A check that starts a process sends it the script header; any other
    check pops what the check before pushed.  The session tracks what its
    process holds by happening: `held` is the last happening it has been
    sent, -1 for a fresh process.  Declarations and `kept` assertions read
    the same at every larger bound (see encoder), so each check sends, in
    encoding order, the declarations and `kept` assertions of the
    happenings above `held`, outside any push, then asserts `pushed` under
    (push 1).  A process that timed out was killed by SmtProcess, so the
    next check starts a fresh one.
    """

    def __init__(self, solver: SolverConfig):
        self.solver = solver
        self.process = None

    def check(self, encoding: Encoding, pushed, kept=(),
              model: bool = True) -> SolveOutcome:
        if self.process is None or self.process.closed:
            self.process = SmtProcess(self.solver)
            self.held = -1
            lines = script_header(encoding.logic, self.solver.random_seed)
        else:
            lines = ["(pop 1)"]
        lines += [declaration(symbol, key)
                  for symbol, key in encoding.variables.items() if key.t > self.held]
        lines += [_line(a) for a in kept if a.t > self.held]
        self.held = encoding.bound
        lines.append("(push 1)")
        lines += [_line(a) for a in pushed]
        return self.process.exchange("\n".join(lines) + "\n", model=model)

    def close(self) -> None:
        if self.process is not None:
            self.process.close()


def _line(assertion) -> str:
    return assertion_line(assertion.name, _render_term(assertion.term))


def minimize_core(encoding: Encoding, core: list, config: SolverConfig,
                  session: Optional[_Session] = None) -> list:
    """Deletion-based core minimization in one solver session.

    Starting from the solver's core, each member in turn is dropped and
    the rest re-checked; when that trial is unsat, its own core prunes the
    candidates still to be tried, so a solver with small cores needs few
    checks.  Each trial is one check of its members, pushed in encoding
    order, so the solver checks the assertions of a one-shot script of
    encoding.restricted(trial).  Only an unsat trial's answer is read, so
    no model is fetched.  A trial that times out counts as not unsat, and
    the next trial starts a fresh process.  The result is a minimal
    unsatisfiable subset: dropping any single member makes the remainder
    satisfiable.

    `session`, if given, is the one the bounds were checked in, with
    nothing asserted outside its push; the trials go on in it.  The
    session is closed at the end.
    """
    order = {a.name: i for i, a in enumerate(encoding.assertions)}
    kept = [name for name in core if name in order]
    session = session or _Session(config)
    try:
        for name in list(kept):
            if name not in kept:
                continue
            trial = [n for n in kept if n != name]
            members = sorted(set(trial), key=order.__getitem__)
            outcome = session.check(encoding, [encoding.by_name[n] for n in members],
                                    model=False)
            if outcome.is_unsat:
                kept = [n for n in trial if outcome.core is None or n in outcome.core]
    finally:
        session.close()
    return sorted(kept, key=order.__getitem__)


def extract_plan(encoding: Encoding, valuation: dict) -> Plan:
    """Regroup the flat variable valuation into happenings with layers."""
    for symbol in encoding.variables:
        if symbol not in valuation:
            raise IncompleteModel(f"model misses variable {symbol}")

    cap_ids = sorted(
        {key.ident for key in encoding.variables.values() if key.kind == "cap"}
    )
    happenings = []
    for t in range(encoding.bound + 1):
        applied = tuple(
            cap_id
            for cap_id in cap_ids
            if valuation[VariableKey("cap", cap_id, t).symbol] is True
        )
        layers = ({}, {})
        for class_id in encoding.classes:
            # The class representative's variable exists in both modes.
            for layer in (0, 1):
                symbol = VariableKey("prop", class_id, t, layer).symbol
                layers[layer][class_id] = valuation[symbol]
        happenings.append(
            Happening(applied=applied, layer0=layers[0], layer1=layers[1])
        )

    # Parameter values are whatever the solver chose for unbound inputs of
    # the capabilities actually applied, read at the application's layer 0.
    parameters: dict = {}
    for t, happening in enumerate(happenings):
        for cap_id in happening.applied:
            for pid, state in encoding.unbound_inputs.get(cap_id, ()):
                symbol = VariableKey("prop", state, t, 0).symbol
                parameters.setdefault(pid, valuation[symbol])
    return Plan(
        happenings=tuple(happenings),
        bound_happenings=encoding.bound + 1,
        classes=dict(encoding.classes),
        parameters=parameters,
    )


def explain(no_plan: NoPlanFound, model: CapabilityModel) -> Explanation:
    """Map unsat core names back to the originating model elements."""
    if not no_plan.last_core or no_plan.last_encoding is None:
        raise CoresUnavailable("no unsat core was produced")
    encoding = no_plan.last_encoding
    elements = []
    for name in no_plan.last_core:
        assertion = encoding.by_name.get(name)
        if assertion is None:
            continue
        elements.append(
            ExplanationElement(
                name=name,
                family=assertion.family,
                element_id=assertion.element_id,
                happening=assertion.t,
                rendering=render_term(assertion.term, encoding.variables),
            )
        )
    return Explanation(core_names=tuple(no_plan.last_core), elements=tuple(elements))


def render_term(term, variables: dict) -> str:
    """Human-oriented rendering of an assertion term; `variables` maps each
    symbol to its VariableKey.  A state prints as state@(happening,layer),
    a capability as capability@happening."""
    if isinstance(term, ex.Const):
        return ex.value_to_text(term.value)
    if isinstance(term, ex.Ref):
        key = variables[term.property_id]
        if key.layer is None:
            return f"{key.ident}@{key.t}"
        return f"{key.ident}@({key.t},{key.layer})"
    if term.op == "not":
        return f"(not {render_term(term.args[0], variables)})"
    symbol = ex.SYMBOLS[term.op]
    return "(" + f" {symbol} ".join(render_term(a, variables) for a in term.args) + ")"
