"""Command-line interface: plan, dump-smt, validate, check.

Exit codes: 0 success / plan found, 1 diagnostics or plan violations,
2 no plan within the bound, 3 solver or infrastructure error, 64 usage,
65 malformed model or plan document, 66 unreadable input file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import expr as ex
from . import oracle, relax
from .encoder import build
from .errors import CapPlanError, SchemaError, SolverError
from .model import CapabilityModel, load_model, validate
from .planner import (
    Explanation,
    Happening,
    Plan,
    PlannerConfig,
    explain,
    plan,
)
from .smtlib import SolverConfig, emit
from .synonymy import build_index

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66


def _value_doc(value):
    if isinstance(value, bool):
        return value
    return ex.number_to_text(value)


def _value_from_doc(value):
    if isinstance(value, bool):
        return value
    return ex.parse_number(value)


def plan_to_document(result: Plan) -> dict:
    return {
        "boundHappenings": result.bound_happenings,
        "happenings": [
            {
                "applied": list(h.applied),
                "layer0": {k: _value_doc(v) for k, v in sorted(h.layer0.items())},
                "layer1": {k: _value_doc(v) for k, v in sorted(h.layer1.items())},
            }
            for h in result.happenings
        ],
        "parameters": {k: _value_doc(v) for k, v in sorted(result.parameters.items())},
        "classes": {k: list(v) for k, v in sorted(result.classes.items())},
    }


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise SchemaError(f"plan {what} must be {noun}")
    return value


def _values(document: dict, key: str) -> dict:
    values = _typed(document.get(key, {}), dict, key)
    return {k: _value_from_doc(v) for k, v in values.items()}


def plan_from_document(document) -> Plan:
    if isinstance(document, str):
        document = json.loads(document)
    _typed(document, dict, "document")
    happenings = []
    for h in _typed(document.get("happenings", []), list, "happenings"):
        _typed(h, dict, "happening")
        applied = tuple(_typed(h.get("applied", []), list, "applied"))
        if not all(isinstance(cap_id, str) for cap_id in applied):
            raise SchemaError("plan applied entries must be capability id strings")
        happenings.append(Happening(
            applied=applied,
            layer0=_values(h, "layer0"),
            layer1=_values(h, "layer1"),
        ))
    classes = _typed(document.get("classes", {}), dict, "classes")
    bound = document.get("boundHappenings", len(happenings))
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise SchemaError("plan boundHappenings must be a non-negative integer")
    return Plan(
        happenings=tuple(happenings),
        bound_happenings=bound,
        classes={k: tuple(_typed(v, list, "class")) for k, v in classes.items()},
        parameters=_values(document, "parameters"),
    )


def explanation_to_document(explanation: Explanation) -> dict:
    return {
        "core": list(explanation.core_names),
        "elements": [
            {
                "name": e.name,
                "family": e.family,
                "element": e.element_id,
                **({"happening": e.happening} if e.happening is not None else {}),
                "constraint": e.rendering,
            }
            for e in explanation.elements
        ],
    }


def _emit_output(args, document) -> None:
    if args.format == "json":
        text = json.dumps(document, indent=2)
    else:
        text = _render_text(document)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _render_text(document, indent=0) -> str:
    pad = "  " * indent
    if isinstance(document, dict):
        lines = []
        for key, value in document.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(document, list):
        lines = []
        for value in document:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
        return "\n".join(lines)
    return f"{pad}{document}"


def _load(args) -> CapabilityModel:
    paths = [p for p in (getattr(args, "domain", None),
                         getattr(args, "problem", None),
                         getattr(args, "model", None)) if p]
    if not paths:
        raise SchemaError("no model documents given")
    return load_model(*paths)


def _cmd_plan(args) -> int:
    try:
        solver = SolverConfig(
            command=args.solver_cmd,
            timeout_seconds=args.timeout,
            random_seed=args.seed,
            transcript=args.transcript,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    model = _load(args)
    diagnostics = validate(model)
    if diagnostics:
        for diag in diagnostics:
            print(f"{diag.code} {diag.element_id}: {diag.message}", file=sys.stderr)
        return EX_DATAERR
    config = PlannerConfig(
        solver=solver,
        expanded=args.expanded_synonyms,
        incremental=args.incremental,
        minimize=args.minimize_core,
    )
    outcome = plan(model, args.max_happenings, config)
    if isinstance(outcome, Plan):
        _emit_output(args, plan_to_document(outcome))
        return 0
    document = {
        "noPlan": True,
        "allBoundsUnsat": outcome.all_unsat,
        "goalUnreachable": outcome.goal_unreachable,
        "bounds": [
            {"bound": o.bound, "status": o.status,
             **({"reason": o.reason} if o.reason else {})}
            for o in outcome.outcomes
        ],
    }
    if outcome.last_core:
        document["explanation"] = explanation_to_document(explain(outcome, model))
    _emit_output(args, document)
    return 2


def _cmd_dump_smt(args) -> int:
    """Print the script a one-shot `plan` sends for the bound."""
    model = _load(args)
    index = build_index(model)
    encoding = build(model, index, args.bound, expanded=args.expanded_synonyms,
                     relevant=relax.relevant_capabilities(model, index))
    text = emit(encoding, random_seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_validate(args) -> int:
    model = _load(args)
    diagnostics = validate(model)
    document = {
        "diagnostics": [
            {"code": d.code, "element": d.element_id, "message": d.message}
            for d in diagnostics
        ]
    }
    if args.explain_synonymy:
        document["classes"] = [
            {
                "classId": cls.class_id,
                "members": list(cls.member_ids),
                "typeDescription": cls.type_description_id,
                "datatype": cls.datatype.value,
            }
            for cls in build_index(model).classes
        ]
    _emit_output(args, document)
    return 1 if diagnostics else 0


def _cmd_check(args) -> int:
    model = _load(args)
    index = build_index(model)
    with open(args.plan, "r", encoding="utf-8") as handle:
        plan_doc = json.load(handle)
    verdict = oracle.simulate(model, index, plan_from_document(plan_doc))
    document = {
        "ok": verdict.ok,
        "violations": [
            {"kind": v.kind, "happening": v.happening, "element": v.element_id,
             "message": v.message}
            for v in verdict.violations
        ],
    }
    _emit_output(args, document)
    return 0 if verdict.ok else 1


def _add_model_arguments(parser, with_model_alias=False):
    parser.add_argument("--domain", help="domain document (provided capabilities)")
    parser.add_argument("--problem", help="problem document (required capability)")
    if with_model_alias:
        parser.add_argument("--model", help="single-file model document")
    parser.add_argument("--output", help="write the result here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capplan",
        description="Plan capability sequences with an SMT-LIB2 solver.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("plan", help="search for a minimal-length plan")
    _add_model_arguments(p, with_model_alias=True)
    p.add_argument("--max-happenings", type=int, required=True,
                   help="largest bound to try (bound k means k+1 happenings)")
    p.add_argument("--solver-cmd", required=True,
                   help="SMT-LIB2 solver command, e.g. 'capplan-refsolver' or 'z3 -in'")
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--transcript", help="append solver requests/responses here")
    p.add_argument("--expanded-synonyms", action="store_true",
                   help="one variable per property with explicit propagation")
    p.add_argument("--incremental", action="store_true",
                   help="reuse one solver process across bounds (push/pop)")
    p.add_argument("--minimize-core", action="store_true",
                   help="shrink the unsat core by deletion before explaining")
    p.set_defaults(func=_cmd_plan)

    p = commands.add_parser("dump-smt", help="print the SMT-LIB2 encoding")
    _add_model_arguments(p, with_model_alias=True)
    p.add_argument("--bound", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--expanded-synonyms", action="store_true")
    p.set_defaults(func=_cmd_dump_smt)

    p = commands.add_parser("validate", help="run model diagnostics")
    _add_model_arguments(p, with_model_alias=True)
    p.add_argument("--explain-synonymy", action="store_true",
                   help="also print the synonymy partition")
    p.set_defaults(func=_cmd_validate)

    p = commands.add_parser("check", help="replay a plan against the model")
    _add_model_arguments(p, with_model_alias=True)
    p.add_argument("--plan", required=True, help="plan document to check")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    for option in ("max_happenings", "bound"):
        if getattr(args, option, 0) < 0:
            print(f"--{option.replace('_', '-')} must be >= 0", file=sys.stderr)
            return EX_USAGE
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except json.JSONDecodeError as exc:
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return EX_DATAERR
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except SchemaError as exc:
        print(f"malformed document: {exc}", file=sys.stderr)
        return EX_DATAERR
    except CapPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
