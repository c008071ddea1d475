"""Answer checks against capplan's solver-free oracle.

Every answer of every run is checked after the timed region:

- a Plan must replay with oracle.simulate(...).ok and use exactly the
  number of happenings the workload expects (from the oracle's
  breadth-first search, or from the construction of the chain);
- a NoPlanFound must be all-unsat over every bound, agree with the
  oracle that no plan exists within the bound, and every name of its
  explanation core must resolve through the encoding's by_name.

A request that raised, or whose bounds ended unknown or timed out, has no
answer to check: it is `failed` ("capped" for timeouts and unknowns).  An
answer the oracle contradicts is `rejected`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from capplan import oracle
from capplan.planner import Plan
from capplan.synonymy import build_index

OK, FAILED, REJECTED = "ok", "failed", "rejected"


@dataclass
class Record:
    """One request as the closed loop saw it."""

    request: object  # workloads.Request
    answer: Optional[tuple]  # (model, result, explanation or None)
    error: Optional[str]
    latency: float


def check(record: Record, timeout: float) -> tuple:
    """(OK | FAILED | REJECTED, reason)."""
    if record.error is not None:
        return FAILED, record.error
    model, result, explanation = record.answer
    expected = record.request.expected
    if isinstance(result, Plan):
        verdict = oracle.simulate(model, build_index(model), result)
        if not verdict.ok:
            return REJECTED, f"plan fails replay: {verdict.violations[0]}"
        if expected is None:
            return REJECTED, "plan returned where the oracle has none within the bound"
        if result.bound_happenings != expected:
            return REJECTED, (f"plan uses {result.bound_happenings} happenings, "
                              f"the minimum is {expected}")
    else:
        open_bounds = [o for o in result.outcomes if o.status != "unsat"]
        if open_bounds:
            first = open_bounds[0]
            return FAILED, f"capped: bound {first.bound} {first.status} ({first.reason})"
        if len(result.outcomes) != record.request.max_bound + 1:
            return REJECTED, f"{len(result.outcomes)} bounds reported"
        if expected is not None:
            return REJECTED, f"no plan claimed, the oracle has one of {expected} happenings"
        unknown = [n for n in explanation.core_names
                   if n not in result.last_encoding.by_name]
        if unknown:
            return REJECTED, f"core names unknown to the encoding: {unknown[:3]}"
    # A one-shot replay after an incremental solver timed out can hide
    # the timeout; no single solver call may take this long.
    if record.latency >= timeout:
        return FAILED, f"capped: request took {record.latency:.1f}s"
    return OK, ""
