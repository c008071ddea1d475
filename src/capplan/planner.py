"""Iterative-deepening planning loop, plan extraction and explanations.

One loop encodes the problem for bound k = 0, 1, ... and stops at the
first satisfiable bound, so a returned plan always uses the smallest
possible number of happenings (bound k means k+1 happenings; the empty
plan lives at bound 0).  Each bound yields one SolveOutcome; a bound the
solver cannot decide, a timeout included, is recorded as unknown and the
loop goes on.  When every bound fails, the last unsat core is kept so the
failure can be mapped back to model elements.

Only where a bound's outcome comes from depends on the mode.  One-shot
mode runs a fresh solver process over the emitted script.  Incremental
mode keeps one process across bounds: it sends each declaration and
stable assertion once, and asserts the encoding's retractable (goal-side)
assertions under push/pop.  A one-shot run that minimizes its core sends
the last bound's assertions under (push 1) instead, so that when that
bound is unsat, minimization goes on in the process that proved it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import expr as ex
from .encoder import Encoding, VariableKey, build
from .errors import CoresUnavailable, IncompleteModel, InvalidModel
from .model import CapabilityModel, validate
from .smtlib import (
    SmtProcess,
    SolveOutcome,
    SolverConfig,
    _render_term,
    assertion_line,
    declaration,
    emit,
    minimize_core,
    preamble,
    script_header,
    solve,
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


@dataclass(frozen=True, slots=True)
class BoundOutcome:
    bound: int
    status: str
    reason: Optional[str] = None
    core: Optional[tuple] = None


@dataclass
class NoPlanFound:
    """Every bound up to the maximum failed.  `last_core` is the core of
    the last unsat bound, minimized if asked; `last_encoding` is that
    bound's encoding restricted to `last_core`, enough to explain it."""

    outcomes: tuple
    all_unsat: bool
    last_core: Optional[list] = None
    last_encoding: Optional[Encoding] = field(default=None, repr=False)


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
    diagnostics = validate(model)
    if diagnostics:
        raise InvalidModel(
            "; ".join(f"{d.code}({d.element_id}): {d.message}" for d in diagnostics)
        )
    if max_happenings < 0:
        raise ValueError("max_happenings must be >= 0")
    index = build_index(model)
    solver = config.solver
    session = _Incremental(solver) if config.incremental else None
    # The last bound's process while it may go on to minimize its core.
    handoff: Optional[SmtProcess] = None
    outcomes = []
    last_core = None
    last_encoding = None
    encoding = None
    try:
        for bound in range(max_happenings + 1):
            # Each bound reuses the happening blocks of the one before.
            encoding = build(model, index, bound, expanded=config.expanded,
                             previous=encoding)
            if session is not None:
                result = session.solve(encoding)
            elif config.minimize and bound == max_happenings:
                handoff = SmtProcess(solver)
                result = handoff.exchange(_pushed_script(encoding, solver))
                if not result.is_unsat:
                    handoff.close()
                    handoff = None
            else:
                result = solve(emit(encoding, random_seed=solver.random_seed), solver)
            if result.is_sat:
                return extract_plan(encoding, result.valuation)
            core = list(result.core) if result.core else None
            outcomes.append(BoundOutcome(bound, result.status, result.reason,
                                         tuple(core) if core else None))
            if result.is_unsat:
                last_core = core
                last_encoding = encoding
        if session is not None:
            session.close()  # before minimization starts its own process
        if config.minimize and last_core:
            last_core = minimize_core(last_encoding, last_core, solver, handoff)
    finally:
        if session is not None:
            session.close()
        if handoff is not None:
            handoff.close()
    if last_encoding is not None:
        last_encoding = last_encoding.restricted(last_core or ())
    return NoPlanFound(
        outcomes=tuple(outcomes),
        all_unsat=all(o.status == "unsat" for o in outcomes),
        last_core=last_core,
        last_encoding=last_encoding,
    )


class _Incremental:
    """One solver process reused across bounds.

    A process is sent each declaration and stable assertion once; a
    bound's retractable assertions go under (push 1) and are popped before
    the next bound.  After a timeout the process is gone (SmtProcess
    kills it) and the next bound starts a fresh one.
    """

    def __init__(self, solver: SolverConfig):
        self.solver = solver
        self.process: Optional[SmtProcess] = None
        self.declared: set = set()
        self.asserted: set = set()

    def solve(self, encoding: Encoding) -> SolveOutcome:
        if self.process is None or self.process.closed:
            self.process = SmtProcess(self.solver)
            self.declared, self.asserted = set(), set()
            lines = script_header(encoding.logic, self.solver.random_seed)
        else:
            lines = ["(pop 1)"]
        for symbol, key in encoding.variables.items():
            if symbol not in self.declared:
                self.declared.add(symbol)
                lines.append(declaration(symbol, key))
        goal = []
        for assertion in encoding.assertions:
            if assertion.retractable:
                goal.append(_line(assertion))
            elif assertion.name not in self.asserted:
                self.asserted.add(assertion.name)
                lines.append(_line(assertion))
        lines.append("(push 1)")
        lines += goal
        return self.process.exchange("\n".join(lines) + "\n")

    def close(self) -> None:
        if self.process is not None:
            self.process.close()


def _line(assertion) -> str:
    return assertion_line(assertion.name, _render_term(assertion.term))


def _pushed_script(encoding: Encoding, solver: SolverConfig) -> str:
    """The one-shot script's declarations and assertions, with (push 1)
    before the assertions: minimize_core's trials pop them."""
    lines = preamble(encoding, solver.random_seed)
    lines.append("(push 1)")
    lines += [_line(assertion) for assertion in encoding.assertions]
    return "\n".join(lines) + "\n"


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
                rendering=render_term(assertion.term),
            )
        )
    return Explanation(core_names=tuple(no_plan.last_core), elements=tuple(elements))


_INFIX = {
    "eq": "=", "neq": "!=", "lt": "<", "gt": ">", "leq": "<=", "geq": ">=",
    "plus": "+", "minus": "-", "times": "*", "divide": "/",
    "and": "and", "or": "or", "implies": "=>",
}


def render_term(term) -> str:
    """Human-oriented rendering of an assertion term; variables print as
    state@(happening,layer)."""
    if isinstance(term, ex.Const):
        return ex.value_to_text(term.value)
    if isinstance(term, ex.Ref):
        symbol = term.property_id
        parts = symbol.split("#")
        if len(parts) == 3 and parts[1].startswith("t") and parts[2].startswith("l"):
            return f"{parts[0]}@({parts[1][1:]},{parts[2][1:]})"
        if len(parts) == 2 and parts[1].startswith("t"):
            return f"{parts[0]}@{parts[1][1:]}"
        return symbol
    if term.op == "not":
        return f"(not {render_term(term.args[0])})"
    symbol = _INFIX[term.op]
    return "(" + f" {symbol} ".join(render_term(a) for a in term.args) + ")"
