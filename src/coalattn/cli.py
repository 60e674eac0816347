"""Command-line surface.

Subcommands: ``demo`` (bundled walkthrough), ``oracle`` (exact values),
``estimate`` (Monte Carlo values), ``attend`` (full pipeline or solver-only),
``bench`` (scaling sweep).  Exit codes: 0 success, 2 input or configuration
errors (including an input or config file that cannot be read or decoded
as JSON, embeddings whose game values cannot be normalized into attention
scores, a temperature so small that values divided by it overflow, an
``--out`` or ``--trace`` path that cannot be written, and a standard output
that is closed, such as a pipe whose reader has gone, reported as ``input
error: stdout: ...`` with nothing more written to it; an unknown flag is
argparse's usage error, also exit 2),
3 limit refusals (enumeration limits, and a run that runs out of memory,
reported as ``limit refusal: out of memory: ...``), 4 internal failures.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from .bench import run_bench, write_bench_csv
from .demo import render_demo, run_demo
from .estimators import MODES
from .inputs import InputError, load_config, load_input
from .linalg import TemperatureError
from .oracles import EnumerationLimitError
from .pipeline import DegenerateScoresError
from .reports import dump_json, run_attend, run_estimate, run_oracle

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


def _add_common(parser: argparse.ArgumentParser, needs_input: bool) -> None:
    if needs_input:
        parser.add_argument("--input", required=True, help="input document (JSON)")
    parser.add_argument("--config", help="run configuration file (JSON)")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--mode", choices=MODES, help="estimator mode")
    parser.add_argument("--out", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalattn",
        description="Coalition-game attention engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="replay the bundled three-token walkthrough")
    demo.add_argument("--out", help="write the JSON report here")

    oracle = sub.add_parser("oracle", help="exact values by exhaustive enumeration")
    _add_common(oracle, needs_input=True)

    estimate = sub.add_parser("estimate", help="Monte Carlo game-value estimates")
    _add_common(estimate, needs_input=True)

    attend = sub.add_parser("attend", help="full attention pipeline")
    _add_common(attend, needs_input=True)
    attend.add_argument("--trace", help="write a convergence-trace CSV here")

    bench = sub.add_parser("bench", help="operation-count and timing sweep")
    _add_common(bench, needs_input=False)

    return parser


def _writing(flag: str, call, *args):
    """``call(*args)``, whose ``OSError`` is an input error: *flag*'s path
    cannot be written."""
    try:
        return call(*args)
    except OSError as exc:
        raise InputError(f"{flag}: {exc}") from None


def _emit(text: str, out_path) -> None:
    if out_path:
        _writing("--out", Path(out_path).write_text, text)
    else:
        sys.stdout.write(text)


def _run(args) -> int:
    """Run the parsed command; ``main`` turns its errors into exit codes."""
    if args.command == "demo":
        report = run_demo()
        if args.out:
            _emit(dump_json(report), args.out)
        print(render_demo(report))
        return EXIT_OK

    cfg = load_config(args.config, seed=args.seed, mode=args.mode)

    if args.command == "bench":
        rows = run_bench(cfg)
        if args.out:
            _writing("--out", write_bench_csv, rows, args.out)
        bad = [r for r in rows if not r["count_ok"]]
        for row in rows:
            print(
                f"{row['kind']:<9} n={row['n']:<3} parameter={row['parameter']:<5} "
                f"count={row['measured_count']:<10} expected={row['expected_count']:<10} "
                f"ok={row['count_ok']} seconds={row['seconds']:.4f}"
            )
        if bad:
            print(f"{len(bad)} rows violated the documented operation counts", file=sys.stderr)
            return EXIT_INTERNAL
        return EXIT_OK

    doc = load_input(args.input)
    if args.command == "oracle":
        report = run_oracle(doc, cfg)
    elif args.command == "estimate":
        report = run_estimate(doc, cfg)
    else:  # attend; the document is read, so the trace is its only file I/O
        report = _writing("--trace", run_attend, doc, cfg, args.trace)
    _emit(dump_json(report), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        code = _run(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError as exc:
        # stdout goes to the null device, so the interpreter's last flush writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"input error: stdout: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, TemperatureError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateScoresError as exc:
        # the commands only normalize game values of the document's embeddings
        print(f"input error: embeddings: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EnumerationLimitError as exc:
        print(f"limit refusal: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except MemoryError as exc:
        print(f"limit refusal: out of memory: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
