"""Command-line surface.

Subcommands: ``demo`` (bundled walkthrough), ``oracle`` (exact values),
``estimate`` (Monte Carlo values), ``attend`` (full pipeline or solver-only),
``bench`` (scaling sweep).  Exit codes: 0 success, 2 input or configuration
errors (including embeddings whose game values cannot be normalized into
attention scores, and a temperature so small that values divided by it
overflow), 3 enumeration-limit refusals, 4 internal failures.
"""

from __future__ import annotations

import argparse
import logging
import sys
import traceback

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
    parser.add_argument("--threads", help="advisory thread-count hint (N or 'auto')")
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


def _config_from_args(args) -> "RunConfig":
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        overrides["mode"] = args.mode
    if getattr(args, "threads", None) is not None:
        overrides["threads"] = args.threads
    return load_config(getattr(args, "config", None), **overrides)


def _emit(text: str, out_path) -> None:
    if out_path:
        from pathlib import Path

        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "demo":
            report = run_demo()
            if args.out:
                _emit(dump_json(report), args.out)
            print(render_demo(report))
            return EXIT_OK

        cfg = _config_from_args(args)

        if args.command == "bench":
            rows = run_bench(cfg)
            if args.out:
                write_bench_csv(rows, args.out)
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
        elif args.command == "attend":
            report = run_attend(doc, cfg, trace_path=args.trace)
        else:  # unreachable with required subparsers
            parser.error(f"unknown command {args.command!r}")
        _emit(dump_json(report), args.out)
        return EXIT_OK

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
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
