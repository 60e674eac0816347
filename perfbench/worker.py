"""Workload child process: one client running CLI operations in a closed loop.

``run.py`` starts this with BLAS pinned to one thread and ``src`` on the
import path.  Standard input carries one JSON header line, then the raw
bytes of each document; standard output gets one JSON line of measurements.

An operation is what ``coalattn attend|oracle|estimate`` does after argument
parsing: decode the document text, ``inputs.parse_document``, build the
``RunConfig``, ``reports.run_*``, ``reports.dump_json``.  Only that is timed;
the output checks run after the clock stops.

Modes: ``setup`` runs one operation and exits, which times a cold start;
``loop`` also warms up, then runs operations for the requested seconds.
With tracing on, traced and untraced operations alternate, so the gap
between the two is the tracing overhead even while the machine's speed
drifts.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, Calibration

perf_counter = time.perf_counter

# the tail latency is the highest percentile with ten samples above it
MIN_OPS = 11
# the first operations of a process run slower while the allocator and the
# caches settle; every document runs once and the loop keeps warming for
# at least this long before anything is timed
WARMUP_S = 3.0

RUNNERS = {"attend": "run_attend", "oracle": "run_oracle", "estimate": "run_estimate"}

_UNSET = object()


class CountingHandler(logging.Handler):
    """Formats every record the way the CLI's log handler does, then drops
    it; counts WARNING and above."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        self.warnings = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.format(record)
        if record.levelno >= logging.WARNING:
            self.warnings += 1


class Bench:
    """One client: runs, times and checks operations on the document pool,
    and counts the failed ones."""

    def __init__(self, command: str, docs: list[tuple[bytes, dict]], corrupt: bool):
        from coalattn import inputs, reports

        import checks

        self._inputs, self._reports, self._checks = inputs, reports, checks
        self.command = command
        self.docs = docs
        self.corrupt = corrupt
        self.references: list[str | None] = [None] * len(docs)
        self.expected: list = [_UNSET] * len(docs)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.done_at = 0.0
        self.calibration = Calibration()
        self._last_pass: float | None = None
        self.log = CountingHandler()
        root = logging.getLogger()
        root.setLevel(logging.INFO)
        root.addHandler(self.log)

    def _execute(self, index: int, tracer) -> str:
        inputs, reports = self._inputs, self._reports
        data, settings = self.docs[index]
        op = tracer.begin("op")
        parse = tracer.begin("inputs.parse")
        doc = inputs.parse_document(json.loads(data.decode("utf-8")))
        tracer.end(parse)
        cfg = inputs.load_config(None, **settings)
        report = getattr(reports, RUNNERS[self.command])(doc, cfg)
        text = reports.dump_json(report)
        tracer.end(op)
        return text

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def attempt(self, index: int, tracer, totals=None) -> tuple[float, float] | None:
        """Run and check one operation.

        Returns its latency in seconds and its calibration factor, or None
        if it failed.  The factor compares the reference time with the mean
        of the kernel times measured just before and just after the
        operation; each of those is the median of a few passes.
        """
        self.attempted += 1
        if totals is not None:
            first = tracer.start_op(self.attempted)
            warnings = self.log.warnings
        start = perf_counter()
        try:
            text = self._execute(index, tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            if totals is not None:
                tracer.abort_op(first)
            self._fail(f"op {self.attempted} raised {type(exc).__name__}: {exc}")
            return None
        seconds = perf_counter() - start
        self.done_at = time.monotonic()
        # about 5% of the operation's time, so long operations get a steadier factor
        passes = min(8, max(1, round(seconds / (20.0 * (self._last_pass or seconds)))))
        after = sorted(self.calibration.run() for _ in range(passes))[passes // 2]
        before = after if self._last_pass is None else self._last_pass
        self._last_pass = after
        factor = REFERENCE_S / ((before + after) / 2.0)
        problems = []
        if totals is not None:
            tracer.finish_op()
            problems = totals.add(tracer.spans, first, self.log.warnings - warnings, len(text), factor)
        reference = self.references[index]
        if self.corrupt and reference is not None and self.attempted % 3 == 0:
            text = _corrupt(text, self.attempted)
        try:
            if self.expected[index] is _UNSET:
                data, settings = self.docs[index]
                doc = self._inputs.parse_document(json.loads(data))
                self.expected[index] = self._checks.expectation(self.command, doc, settings)
            self._checks.check_report(self.command, text, reference, self.expected[index])
        except (self._checks.CheckError, ValueError, LookupError, TypeError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            self._fail(f"op {self.attempted}: {'; '.join(problems)}")
            return None
        if reference is None:
            self.references[index] = text
        return seconds, factor

    def measure(self, seconds: float, tracer, totals=None) -> tuple[list[float], list[float], list[float]]:
        """Closed loop over the document pool.

        Returns the raw latencies of the completed operations and their
        calibration factors.  With *totals*, every other operation runs with
        *tracer* enabled and is folded into *totals*; the first two lists
        then hold the untraced operations, and the third the traced ones'
        scaled latencies.
        """
        latencies, factors, traced = [], [], []
        start = time.monotonic()
        k = 0
        while time.monotonic() - start < seconds or (len(latencies) < MIN_OPS and k < 4 * MIN_OPS):
            if totals is None:
                index = k % len(self.docs)
            else:  # each document once untraced, then once traced
                index = (k // 2) % len(self.docs)
            if totals is not None and k % 2:
                tracer.enable()
                try:
                    outcome = self.attempt(index, tracer, totals)
                finally:
                    tracer.disable()
                if outcome is not None:
                    traced.append(outcome[0] * outcome[1])
            else:
                outcome = self.attempt(index, tracer)
                if outcome is not None:
                    latencies.append(outcome[0])
                    factors.append(outcome[1])
            k += 1
        return latencies, factors, traced


def _corrupt(text: str, op: int) -> str:
    """A damaged report for the checks to catch: truncated, or one byte off."""
    if op % 2:
        return text[: len(text) // 2]
    return text.replace("\n", " \n", 1)


def environment() -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    import coalattn

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "coalattn": coalattn.__version__,
        "blas": None,
        "blas_threads": None,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    try:
        get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        env["blas_threads"] = get_threads()
    except (IndexError, OSError, AttributeError):
        pass
    return env


def main() -> int:
    header = json.loads(sys.stdin.buffer.readline())
    import coalattn.cli  # the import graph every CLI call pays for

    source = Path(coalattn.cli.__file__).resolve()
    if Path(header["src"]).resolve() not in source.parents:
        print(f"worker: imported coalattn from {source}, not from {header['src']}", file=sys.stderr)
        return 2
    docs = [(sys.stdin.buffer.read(d["bytes"]), d["settings"]) for d in header["docs"]]

    from layertrace import LayerTotals, Tracer, install

    untraced = Tracer()
    bench = Bench(header["command"], docs, header.get("corrupt", False))
    bench.attempt(0, untraced)
    result = {"first_done": bench.done_at, "setup_factor": bench.calibration.factor()}

    if header["mode"] == "loop":
        warm_until = time.monotonic() + WARMUP_S
        k = 1
        while k < len(docs) or time.monotonic() < warm_until:
            bench.attempt(k % len(docs), untraced)
            k += 1
        seconds = header["seconds"]
        if header["trace"]:
            from coalattn.bench import expected_characteristic_evaluations

            tracer = Tracer()
            totals = LayerTotals(expected_characteristic_evaluations)
            result["unwrapped"] = install(tracer)
            tracer.disable()
            latencies, factors, traced = bench.measure(seconds, tracer, totals)
            if not (latencies and traced):
                print(f"worker: no operation completed: {bench.failures[:1]}", file=sys.stderr)
                return 1
            plain = sum(t * f for t, f in zip(latencies, factors)) / len(latencies)
            overhead = 1.0 - plain / (sum(traced) / len(traced))
            result["layers"] = totals.metrics(overhead)
            result["breakdown"] = totals.breakdown()
            tracer.write(header["spans_path"])
        else:
            result["latencies"], result["factors"], _ = bench.measure(seconds, untraced)

    result.update(
        attempted=bench.attempted,
        failed=bench.failed,
        failures=bench.failures,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        environment=environment(),
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
