"""Self-test of the benchmark.

    python3 -m pytest benchmarks/test_benchmark.py -q

Checks that the generators are deterministic per seed, that a run emits
every metric BENCHMARK.json names with its unit, that the oracle check
rejects tampered answers, and that the benchmark refuses to run without
capplan's sources.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from check import OK, REJECTED, Record, check  # noqa: E402
from capplan.model import parse_model  # noqa: E402
from capplan.planner import PlannerConfig, plan  # noqa: E402
from capplan.smtlib import SolverConfig  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_generators_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 11)
        assert first == workloads.generate(name, 11), name
        assert first != workloads.generate(name, 12), name
        assert first.requests


def test_every_metric_is_emitted_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run("--workload", "suite", "--seed", "1", "--seconds", "1",
                    "--trace", trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        if trace == "0":
            expected.update(latency_p90_s="s", failed_ratio="ratio",
                            core_assertions_mean="count")
        else:
            expected.update({"planner.minimize_s": "s/request",
                             "oracle.simulate_s": "s/request"})
        for name, unit in expected.items():
            assert any(line.startswith(f"{name} = ") and f" {unit}" in line
                       for line in lines[:-1]), name


def test_oracle_check_rejects_tampered_answers(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    doc = workloads.chain_doc(random.Random(3), 2)
    request = workloads.Request(doc, 2, 2)
    model = parse_model(doc)
    solver = SolverConfig(command=[sys.executable, "-m", "capplan.refsolver"])
    found = plan(model, 2, PlannerConfig(solver=solver))

    def verdict(result, expected=2):
        record = Record(dataclasses.replace(request, expected=expected),
                        (model, result, None), None, 0.1)
        return check(record, timeout=30.0)[0]

    assert verdict(found) == OK
    last = found.happenings[-1]
    moved = {cid: (not v if isinstance(v, bool) else v + Fraction(1))
             for cid, v in last.layer1.items()}
    tampered = dataclasses.replace(
        found, happenings=found.happenings[:-1]
        + (dataclasses.replace(last, layer1=moved),))
    assert verdict(tampered) == REJECTED
    assert verdict(found, expected=3) == REJECTED
    assert verdict(found, expected=None) == REJECTED


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
