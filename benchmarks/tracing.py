"""Span tracing of capplan's modules, installed from outside the package.

A Tracer replaces public functions and methods by wrappers that record a
span per call: [name, start, end, parent span index, request id].  Spans
stay in memory until the run ends.  A layer's self time is its spans'
duration minus the time covered by their child spans.

install_client() wraps the names the planner calls, in the modules it
calls them from; install_solver() wraps the reference solver's internals
and runs inside the solver process (see solver_launcher.py).
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# Span names that time the client talking to a solver process.
SOLVER_IO = ("smtlib.solve", "smtlib.session")
# Environment variables read by traced solver processes: the request id to
# tag their spans with, and the file their spans and counts go to.
REQUEST_ENV = "CAPPLAN_BENCH_REQUEST"
SOLVER_LOG_ENV = "CAPPLAN_BENCH_SOLVER_LOG"


class Tracer:
    def __init__(self, request=None):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.request = request
        self._originals: list = []

    def is_open(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, owner, attr: str, name: str, after=None, flat: bool = False):
        """Record a span `name` around every call of owner.attr, then call
        after(tracer, result, args).  With flat=True a call made directly
        inside a span of the same name (recursion) is not recorded."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if flat and self.stack and self.spans[self.stack[-1]][0] == name:
                return original(*args, **kwargs)
            span = [name, perf_counter(), 0.0,
                    self.stack[-1] if self.stack else None, self.request]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, result, args)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def self_times(spans) -> Counter:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: Counter = Counter()
    for i, (name, start, end, *_) in enumerate(spans):
        totals[name] += end - start - covered[i]
    return totals


def inclusive_time(spans, names) -> float:
    """Wall time inside spans named in `names`, not counting those nested
    in another such span twice."""
    return sum(
        end - start
        for name, start, end, parent, *_ in spans
        if name in names and (parent is None or spans[parent][0] not in names)
    )


# -- client side -----------------------------------------------------------------


def _count_index(tracer, index, args):
    tracer.counts["synonymy.classes"] += len(index.classes)


def _count_encoding(tracer, encoding, args):
    tracer.counts["encoder.builds"] += 1
    tracer.counts["encoder.assertions"] += len(encoding.assertions)
    tracer.counts["encoder.variables"] += len(encoding.variables)


def _count_emit(tracer, text, args):
    tracer.counts["smtlib.bytes"] += len(text.encode("utf-8"))


def _count_solve(tracer, outcome, args):
    tracer.counts["smtlib.solver_calls"] += 1
    tracer.counts["smtlib.spawns"] += 1
    if tracer.is_open("planner.minimize"):
        tracer.counts["planner.minimize_solves"] += 1


def _count_session(method):
    def count(tracer, result, args):
        if method == "__init__":
            tracer.counts["smtlib.spawns"] += 1
        elif method == "send":
            tracer.counts["smtlib.bytes"] += len(args[1].encode("utf-8"))
        elif method == "check_sat":
            tracer.counts["smtlib.solver_calls"] += 1
    return count


def _count_minimize(tracer, kept, args):
    tracer.counts["planner.cores"] += 1
    tracer.counts["planner.core_raw"] += len(args[1])
    tracer.counts["planner.core_final"] += len(kept)


def _count_plan(tracer, result, args):
    from capplan.planner import Plan

    if isinstance(result, Plan):
        tracer.counts["planner.bounds_tried"] += result.bound_happenings
        return
    tracer.counts["planner.bounds_tried"] += len(result.outcomes)
    if result.last_core and not args[2].minimize:
        tracer.counts["planner.cores"] += 1
        tracer.counts["planner.core_raw"] += len(result.last_core)
        tracer.counts["planner.core_final"] += len(result.last_core)


def install_client(tracer: Tracer) -> None:
    from capplan import model, oracle, planner, smtlib

    wrap = tracer.wrap
    wrap(model, "parse_model", "model.parse")
    wrap(planner, "validate", "model.validate")
    wrap(planner, "build_index", "synonymy.index", _count_index)
    wrap(planner, "build", "encoder.build", _count_encoding)
    # minimize_core reaches emit and solve through smtlib's own namespace.
    for module in (planner, smtlib):
        wrap(module, "emit", "smtlib.emit", _count_emit)
        wrap(module, "solve", "smtlib.solve", _count_solve)
    # The incremental path renders each assertion with smtlib's term
    # renderer from inside the planner instead of calling emit.
    wrap(planner, "_render_term", "smtlib.emit")
    wrap(smtlib, "parse_answer", "smtlib.answer_parse")
    wrap(smtlib, "parse_sexprs", "smtlib.answer_parse", flat=True)
    for method in ("__init__", "send", "check_sat", "get_model",
                   "get_unsat_core", "close"):
        wrap(smtlib.SmtProcess, method, "smtlib.session", _count_session(method))
    wrap(planner, "extract_plan", "planner.extract")
    wrap(planner, "minimize_core", "planner.minimize", _count_minimize)
    wrap(planner, "plan", "planner.plan", _count_plan)
    # Turning the solver's answer into the user's: a plan or an explanation.
    wrap(planner, "explain", "planner.extract")
    wrap(oracle, "simulate", "oracle.simulate")


# -- solver side -----------------------------------------------------------------


def _count_theory(tracer, result, args):
    tracer.counts["theory_checks"] += 1
    if result[0] == "unsat":
        tracer.counts["theory_conflicts"] += 1


def _count_learned(tracer, status, args):
    dpll = args[0]
    tracer.counts["learned_clauses"] += len(dpll.clauses) - len(dpll.sk.clauses)


def install_solver(tracer: Tracer) -> None:
    from capplan import refsolver

    wrap = tracer.wrap
    wrap(refsolver.SexpReader, "read", "refsolver.read", flat=True)
    # Blocking on the pipe is transport, not reading: a child span of read.
    wrap(refsolver.SexpReader, "_fill", "refsolver.wait")
    wrap(refsolver.RefSolver, "execute", "refsolver.execute")
    wrap(refsolver.Translator, "to_bool", "refsolver.translate", flat=True)
    wrap(refsolver.Skeleton, "tseitin", "refsolver.translate", flat=True)
    wrap(refsolver.Dpll, "solve", "refsolver.search", _count_learned)
    wrap(refsolver, "feasible", "refsolver.theory", _count_theory)
