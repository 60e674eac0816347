"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, a one-second run with tracing off and
one with tracing on must each end with a result line that names every
metric of its kind, with the unit BENCHMARK.json gives, and no failed
operation.  A run whose reports are deliberately damaged must count them as
failed and still finish.  A copy of the benchmark without the program's
sources must exit nonzero without printing a result.  Exits 1 if any of
this does not hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_result(label: str, proc: subprocess.CompletedProcess, units: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = result_of(proc)
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{label}: {name} has value {value!r}")
        if name in units and metric.get("unit") != units[name]:
            problems.append(f"{label}: {name} has unit {metric.get('unit')!r}, expected {units[name]!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} trace={trace}"
            proc = run(["--workload", workload["name"], "--seed", "7", "--seconds", "1", "--trace", str(trace)])
            found = check_result(label, proc, units[trace])
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found

    proc = run(["--workload", "attend-short", "--seed", "7", "--seconds", "1", "--trace", "0", "--corrupt"])
    result = result_of(proc)
    if proc.returncode != 0 or result.get("correct") is not False or not result.get("failed"):
        problems.append(f"corrupted reports were not counted as failed: exit {proc.returncode}, {result}")
    print(f"corrupted reports: failed {result.get('failed')} of {result.get('attempted')}", flush=True)

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(["--workload", "attend-short", "--seed", "7", "--seconds", "1", "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
    print(f"without sources: exit code {proc.returncode}", flush=True)
    shutil.rmtree(bare)

    for problem in problems:
        print("problem: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
