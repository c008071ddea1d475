"""capplan's benchmark: closed-loop verdict latency and throughput.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload suite --seed 1 --seconds 20 --trace 0

One request is what a library user pays for one verdict:
parse_model(doc), then plan(model, max_bound, config), then explain(...)
when no plan is found.  One client sends requests one at a time (a closed
loop) for --seconds seconds.  The solver is the checkout's own reference
solver, launched as a subprocess exactly as SolverConfig launches it, with
the checkout's src/ on its PYTHONPATH.  Workloads are in workloads.py.

--trace 0 prints the end-to-end metrics.  --trace 1 prints per-layer
metrics instead: it runs the loop untraced for half the time, then the
same requests again with every capplan module wrapped from outside
(tracing.py) and the solver run through solver_launcher.py, and reports
self time and counts per layer, per request, plus the tracing overhead
(traced minus untraced wall time).

Every answer is checked against the solver-free oracle after the timed
region (check.py).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; human-readable
lines and the environment come before it, and the full result is written
to benchmarks/out/.  The exit code is 1 when the oracle rejects an
answer, 2 when the checkout has no capplan sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import (REQUEST_ENV, SOLVER_IO, SOLVER_LOG_ENV, Tracer, inclusive_time,
                     install_client, self_times)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Every solver call gets this cap; a call that hits it is a failed request.
SOLVER_TIMEOUT_S = 30.0
# Fresh processes timed to measure set-up; setup_s is their median.
SETUP_PROBES = 5
# latency_p90_s needs ten samples beyond the 90th percentile.
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "cpu_s_per_request": "s",
    "peak_rss_mb": "MB",
}
# Printed by name and written to the result file, but not part of the
# result object: each is zero or undefined on some workload, where no
# bound fits it and a time would read the same on every run.
REPORTED_UNITS = {
    "latency_p90_s": "s",
    "failed_ratio": "ratio",
    "core_assertions_mean": "count",
    # Per-layer, traced runs only: no minimisation outside explain, no plan
    # to replay on explain.
    "planner.minimize_s": "s/request",
    "oracle.simulate_s": "s/request",
}

PER_LAYER_UNITS = {
    "model.parse_s": "s/request",
    "model.validate_s": "s/request",
    "synonymy.index_s": "s/request",
    "synonymy.classes": "count/request",
    "encoder.build_s": "s/request",
    "encoder.builds": "count/request",
    "encoder.assertions": "count/request",
    "encoder.variables": "count/request",
    "smtlib.emit_s": "s/request",
    "smtlib.bytes": "bytes/request",
    "smtlib.solver_calls": "count/request",
    "smtlib.spawns": "count/request",
    "smtlib.solve_wall_s": "s/request",
    "smtlib.transport_s": "s/request",
    "smtlib.answer_parse_s": "s/request",
    "refsolver.read_s": "s/request",
    "refsolver.translate_s": "s/request",
    "refsolver.search_s": "s/request",
    "refsolver.theory_s": "s/request",
    "refsolver.theory_checks": "count/request",
    "refsolver.theory_conflict_ratio": "ratio",
    "refsolver.learned_clauses": "count/request",
    "planner.plan_s": "s/request",
    "planner.bounds_tried": "count/request",
    "planner.extract_s": "s/request",
    "planner.minimize_solves": "count/request",
    "planner.core_raw": "count/core",
    "planner.core_shrink_ratio": "ratio",
    "trace.overhead_s": "s/request",
    "trace.overhead_ratio": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    return parser.parse_args(argv)


def _use_checkout_sources() -> None:
    """Import capplan from this checkout, in this process and in every
    solver process it starts."""
    if not (SRC / "capplan" / "__init__.py").is_file():
        print(f"error: no capplan sources under {SRC}; "
              "run from the root of a capplan checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")


# -- the closed loop -------------------------------------------------------------


def answer(request, config):
    from capplan import model as model_module, planner

    model = model_module.parse_model(request.doc)
    result = planner.plan(model, request.max_bound, config)
    explanation = None
    if isinstance(result, planner.NoPlanFound):
        explanation = planner.explain(result, model)
    return model, result, explanation


def closed_loop(workload, config, seconds=None, count=None, tracer=None):
    """Send requests one at a time, for `seconds` or for `count` requests;
    returns the records and the wall time of the loop."""
    from check import Record

    records = []
    started = perf_counter()
    while (len(records) < count if count is not None
           else perf_counter() - started < seconds):
        request = workload.requests[len(records) % len(workload.requests)]
        os.environ[REQUEST_ENV] = str(len(records))
        if tracer is not None:
            tracer.request = len(records)
        sent = perf_counter()
        try:
            result, error = answer(request, config), None
        except Exception as exc:  # a failed request is recorded; the loop goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append(Record(request, result, error, perf_counter() - sent))
    return records, perf_counter() - started


def check_all(records, tracer=None) -> list:
    from check import check

    verdicts = []
    for i, record in enumerate(records):
        if tracer is not None:
            tracer.request = i
        verdicts.append(check(record, SOLVER_TIMEOUT_S))
    return verdicts


def planner_config(workload, command):
    from capplan.planner import PlannerConfig
    from capplan.smtlib import SolverConfig

    solver = SolverConfig(command=command, timeout_seconds=SOLVER_TIMEOUT_S)
    return PlannerConfig(solver=solver, incremental=workload.incremental,
                         minimize=workload.minimize)


# -- metrics ---------------------------------------------------------------------


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + largest_child) / 1024.0


def setup_seconds(args) -> list:
    """Wall time from starting a fresh benchmark process to its first
    request being ready, SETUP_PROBES times."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            samples.append(perf_counter() - started)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            sys.exit(f"error: set-up probe failed with exit code {probe.returncode}")
    return samples


def end_to_end(records, verdicts, wall, cpu, peak_rss_mb, setup):
    latencies = [r.latency for r in records]
    ok = sum(1 for status, _ in verdicts if status == "ok")
    cores = [len(r.answer[2].core_names) for r in records
             if r.answer is not None and r.answer[2] is not None]
    metrics = {
        "setup_s": statistics.median(setup),
        "requests_per_s": ok / wall,
        "latency_p50_s": statistics.median(latencies),
        "cpu_s_per_request": cpu / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    reported = {
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[8]
                          if len(latencies) >= P90_MIN_SAMPLES else None),
        "failed_ratio": (len(records) - ok) / len(records),
        "core_assertions_mean": statistics.mean(cores) if cores else None,
    }
    return metrics, reported


def _solver_stats(log_path: Path):
    """Self times, counts and busy time summed over every traced solver
    process."""
    times, counts, busy = Counter(), Counter(), 0.0
    with open(log_path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            own = self_times(record["spans"])
            times.update(own)
            counts.update(record["counts"])
            busy += own["refsolver.read"] + inclusive_time(
                record["spans"], ("refsolver.execute",))
    return times, counts, busy


def per_layer(tracer, n, log_path, untraced_wall, traced_wall):
    own = self_times(tracer.spans)
    counts = tracer.counts
    solver_times, solver_counts, solver_busy = _solver_stats(log_path)
    solve_wall = inclusive_time(tracer.spans, SOLVER_IO)
    checks = solver_counts["theory_checks"]
    cores = counts["planner.cores"]
    metrics = {
        "model.parse_s": own["model.parse"],
        "model.validate_s": own["model.validate"],
        "synonymy.index_s": own["synonymy.index"],
        "synonymy.classes": counts["synonymy.classes"],
        "encoder.build_s": own["encoder.build"],
        "encoder.builds": counts["encoder.builds"],
        "encoder.assertions": counts["encoder.assertions"],
        "encoder.variables": counts["encoder.variables"],
        "smtlib.emit_s": own["smtlib.emit"],
        "smtlib.bytes": counts["smtlib.bytes"],
        "smtlib.solver_calls": counts["smtlib.solver_calls"],
        "smtlib.spawns": counts["smtlib.spawns"],
        "smtlib.solve_wall_s": solve_wall,
        "smtlib.transport_s": solve_wall - own["smtlib.answer_parse"] - solver_busy,
        "smtlib.answer_parse_s": own["smtlib.answer_parse"],
        "refsolver.read_s": solver_times["refsolver.read"],
        "refsolver.translate_s": solver_times["refsolver.translate"],
        "refsolver.search_s": solver_times["refsolver.search"],
        "refsolver.theory_s": solver_times["refsolver.theory"],
        "refsolver.theory_checks": checks,
        "refsolver.learned_clauses": solver_counts["learned_clauses"],
        "planner.plan_s": own["planner.plan"],
        "planner.bounds_tried": counts["planner.bounds_tried"],
        "planner.extract_s": own["planner.extract"],
        "planner.minimize_s": own["planner.minimize"],
        "planner.minimize_solves": counts["planner.minimize_solves"],
        "oracle.simulate_s": own["oracle.simulate"],
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    metrics = {name: value / n for name, value in metrics.items()}
    metrics["refsolver.theory_conflict_ratio"] = (
        solver_counts["theory_conflicts"] / checks if checks else 0.0)
    metrics["planner.core_raw"] = counts["planner.core_raw"] / cores if cores else 0.0
    metrics["planner.core_shrink_ratio"] = (
        counts["planner.core_final"] / counts["planner.core_raw"]
        if counts["planner.core_raw"] else 0.0)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    return ({name: metrics[name] for name in PER_LAYER_UNITS},
            {name: metrics[name] for name in ("planner.minimize_s", "oracle.simulate_s")})


# -- environment and output ------------------------------------------------------


def environment(command) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "capplan").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "solver_command": command,
        "solver_timeout_s": SOLVER_TIMEOUT_S,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _emit(args, workload, records, verdicts, metrics, units, reported, env):
    failed = [(i, status, reason) for i, (status, reason) in enumerate(verdicts)
              if status != "ok"]
    rejected = [f for f in failed if f[1] == "rejected"]
    print(f"environment: {json.dumps(env)}")
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"requests={len(records)} failed={len(failed)} rejected={len(rejected)}")
    for i, status, reason in failed:
        print(f"  request {i} {status}: {reason}")
    samples = f" (n={len(records)})"
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}"
              + (samples if name.startswith("latency") else ""))
    for name, value in reported.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {REPORTED_UNITS[name]}"
              + (samples if name.startswith("latency") else ""))
    result = {
        "correct": not rejected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  reported=reported, environment=env,
                  latencies_s=[r.latency for r in records],
                  failures=[{"request": i, "status": s, "reason": r}
                            for i, s, r in failed])
    path = OUT / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 1 if rejected else 0


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    _use_checkout_sources()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.generate(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    plain = [sys.executable, "-m", "capplan.refsolver"]
    if not args.trace:
        config = planner_config(workload, plain)
        cpu_before = _cpu_seconds()
        records, wall = closed_loop(workload, config, seconds=args.seconds)
        cpu = _cpu_seconds() - cpu_before
        peak = _peak_rss_mb()
        verdicts = check_all(records)
        setup = setup_seconds(args)
        metrics, reported = end_to_end(records, verdicts, wall, cpu, peak, setup)
        return _emit(args, workload, records, verdicts, metrics, END_TO_END_UNITS,
                     reported, environment(plain))

    untraced, untraced_wall = closed_loop(
        workload, planner_config(workload, plain), seconds=args.seconds / 2)
    verdicts = check_all(untraced)
    OUT.mkdir(exist_ok=True)
    log_path = OUT / f"solver-{workload.name}-seed{args.seed}.jsonl"
    log_path.unlink(missing_ok=True)
    os.environ[SOLVER_LOG_ENV] = str(log_path)
    launcher = [sys.executable, str(BENCH_DIR / "solver_launcher.py")]
    tracer = Tracer()
    install_client(tracer)
    try:
        traced, traced_wall = closed_loop(
            workload, planner_config(workload, launcher), count=len(untraced),
            tracer=tracer)
        verdicts += check_all(traced, tracer)
    finally:
        tracer.uninstall()
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, request in tracer.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
    metrics, reported = per_layer(tracer, len(traced), log_path, untraced_wall,
                                  traced_wall)
    return _emit(args, workload, untraced + traced, verdicts, metrics,
                 PER_LAYER_UNITS, reported, environment(launcher))


if __name__ == "__main__":
    sys.exit(main())
