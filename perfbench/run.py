"""Benchmark entry point for the coalattn CLI code paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The workload's documents are generated here from
``--seed`` and handed to a child process (``worker.py``) that runs the CLI's
operation in a closed loop with one client and BLAS pinned to one thread.

With ``--trace 0`` the run reports the end-to-end metrics: throughput and
latency of the loop, cold-start set-up time (median over several fresh
child processes) and the loop child's peak memory.  With ``--trace 1`` it
reports per-layer metrics from a traced run instead.  The last line of
standard output is one JSON object; the lines before it give the
environment, the tail percentile and its sample count, and the per-span
self-time breakdown.  Spans and the full result are also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, documents

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# fresh child processes timed for setup_s, on top of the loop child itself
SETUP_CHILDREN = 4
# a whole run, children included, must end well inside three minutes
RUN_DEADLINE_S = 170.0
TAIL_BEYOND = 10

_PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ChildError(RuntimeError):
    pass


def _child_env() -> dict:
    return {**os.environ, **_PINNED, "PYTHONPATH": str(SRC)}


def run_child(header: dict, docs: list[tuple[bytes, dict]], deadline: float) -> tuple[float, dict]:
    """Start a worker, feed it the documents, wait for it to end.

    Returns the monotonic start time and the worker's result.
    """
    header = {**header, "src": str(SRC), "docs": [{"bytes": len(d), "settings": s} for d, s in docs]}
    payload = json.dumps(header).encode("utf-8") + b"\n" + b"".join(d for d, _ in docs)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(payload, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError("worker did not finish before the run deadline") from None
    if proc.returncode != 0:
        raise ChildError(f"worker exited with code {proc.returncode}")
    return started, json.loads(out.decode("utf-8").splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it, or the
    maximum if there are too few samples: (value, percentile, samples above)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help="damage reports to exercise the checks")
    args = parser.parse_args()

    if not (SRC / "coalattn" / "cli.py").is_file():
        print(f"run.py: no coalattn sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    pool = documents(workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    header = {
        "command": workload.command,
        "mode": "loop",
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "corrupt": args.corrupt,
        "spans_path": str(OUT / f"spans-{stem}.tsv.gz"),
    }

    try:
        started, loop = run_child(header, pool, deadline)
        attempted, failed = loop["attempted"], loop["failed"]
        failures = list(loop["failures"])
        details: dict = {}
        if args.trace:
            metrics = loop["layers"]
            details["breakdown_ms_per_op"] = loop["breakdown"]
            details["unwrapped"] = loop["unwrapped"]
        else:
            setups = [(loop["first_done"] - started, loop["setup_factor"])]
            for k in range(SETUP_CHILDREN):
                doc = pool[(k + 1) % len(pool)]
                started, cold = run_child({**header, "mode": "setup"}, [doc], deadline)
                setups.append((cold["first_done"] - started, cold["setup_factor"]))
                attempted += cold["attempted"]
                failed += cold["failed"]
                failures += cold["failures"]
            raw = loop["latencies"]
            if not raw:
                raise ChildError(f"no operation completed: {failures[:1]}")
            scaled = [t * f for t, f in zip(raw, loop["factors"])]
            tail_value, tail_percentile, beyond = tail(scaled)
            metrics = {
                "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
                "latency_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
                "latency_tail_ms": (1000.0 * tail_value, "ms"),
                "setup_s": (statistics.median(t * f for t, f in setups), "s"),
                "peak_rss_mb": (loop["peak_rss_kb"] / 1024.0, "MB"),
            }
            details.update(
                completed=len(scaled),
                tail_percentile=tail_percentile,
                tail_samples_beyond=beyond,
                raw_ops_per_s=len(raw) / sum(raw),
                raw_latency_p50_ms=1000.0 * statistics.median(raw),
                raw_latency_tail_ms=1000.0 * tail(raw)[0],
                raw_setup_s=statistics.median(t for t, _ in setups),
                median_calibration_factor=statistics.median(loop["factors"]),
            )
    except ChildError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3

    details["failed_frac"] = failed / attempted
    environment = {
        **loop["environment"],
        "commit": commit(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": _PINNED["OPENBLAS_NUM_THREADS"],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "environment": environment, "details": details, "failures": failures, **result}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("environment " + json.dumps(environment))
    print("details " + json.dumps(details))
    for message in failures:
        print("failure " + message)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
