"""Per-layer spans recorded from outside the ``coalattn`` package.

``install`` replaces each public function a layer boundary crosses with a
timing wrapper, under the name its caller looks it up by: ``from .x import f``
binds ``f`` in the caller's module, so ``reports.estimate_all`` and
``pipeline.estimate_all`` are wrapped separately.  ``disable`` puts every
original back and ``enable`` the wrappers again, so traced and untraced
operations can alternate.  Nothing is recorded while no operation is open.

A span is ``[name, start, end, parent, op, note]``; ``note`` holds what the
layer metrics need from the call (a batch size, a solver result) until the
operation is summarised, then it is dropped so only the timing stays in
memory.  A span's self time is its duration minus the durations of its
direct children; the root ``op`` span's self time is the part of the
operation no layer accounts for.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def patch(self, owner, attr: str, name: str, note=None) -> bool:
        """Wrap ``owner.attr``; returns False if *owner* defines no such name."""
        original = vars(owner).get(attr)
        if original is None:
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if note is not None:
                record[5] = note(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))
        return True

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        """Put every original function back."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def begin(self, name: str):
        """Open a span from the benchmark's own code; returns its index."""
        if self.op is None:
            return None
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return self._stack[-1]

    def end(self, index) -> None:
        if index is None:
            return
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def start_op(self, op: int) -> int:
        """Open operation *op*; returns the index its first span will get."""
        self.op = op
        return len(self.spans)

    def finish_op(self) -> None:
        self.op = None
        if self._stack:
            raise RuntimeError("span stack not empty at the end of an operation")

    def abort_op(self, first: int) -> None:
        """Close an operation that raised, dropping its spans."""
        self.op = None
        self._stack.clear()
        del self.spans[first:]

    def write(self, path) -> None:
        """All spans as gzipped tab-separated rows; start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tname\tstart\tend\tparent\top\n")
            for index, (name, start, end, parent, op, _) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


class LayerTotals:
    """Per-layer sums over the traced operations of one run."""

    def __init__(self, expected_evaluations):
        self._expected_evaluations = expected_evaluations
        self.ops = 0
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.evaluations = 0
        self.flops = 0
        self.coalitions = 0
        self.tabulate_evals = 0
        self.tabulate_distinct = 0
        self.ess_fracs: list[float] = []
        self.solves = 0
        self.converged = 0
        self.iterations = 0
        self.warnings = 0
        self.report_bytes = 0

    def add(self, spans: list[list], first: int, warnings: int, report_bytes: int, factor: float) -> list[str]:
        """Fold in the operation whose spans start at ``spans[first]``,
        its durations scaled to reference speed by *factor*.

        Returns one message per ``estimate_all`` call whose characteristic
        evaluations differ from ``2*K*n*(n+1)``; an empty list means every
        count was exact.
        """
        self.ops += 1
        self.warnings += warnings
        self.report_bytes += report_bytes
        mismatches = []
        count = len(spans) - first
        children = [0.0] * count
        evaluations = [0] * count
        tables: dict[int, int] = {}
        for k in range(count - 1, -1, -1):
            record = spans[first + k]
            name, start, end, parent, _, note = record
            duration = (end - start) * factor
            if name == "games.values_by_mask":
                game, size = note
                evaluations[k] += size
                self.evaluations += size
                if hasattr(game, "projected"):  # dense evaluation: (masks x n) @ (n x d_v)
                    self.flops += 2 * size * game.n * game.projected.shape[1]
                if parent >= 0 and spans[parent][0] == "oracles.tabulate":
                    self.tabulate_evals += size
            elif name == "oracles.tabulate" and evaluations[k]:
                game_id, size = note
                tables[game_id] = size
            elif name == "estimators.sample":
                self.coalitions += note
            elif name == "estimators.normalize_weights":
                # the batch's effective sample size, (sum w)^2 / sum w^2, over K
                self.ess_fracs.append(float(note.sum()) ** 2 / float(note @ note) / note.size)
            elif name == "meanfield.solve":
                self.solves += 1
                self.converged += bool(note.converged)
                self.iterations += note.iterations_used
            elif name == "estimators.estimate_all":
                n, sample_count = note
                expected = self._expected_evaluations(n, sample_count)
                if evaluations[k] != expected:
                    mismatches.append(
                        f"estimate_all(n={n}, K={sample_count}) made {evaluations[k]} "
                        f"characteristic evaluations, expected {expected}"
                    )
            self.total[name] += duration
            self.self_time[name] += duration - children[k]
            self.calls[name] += 1
            if parent >= 0:
                children[parent - first] += duration
                evaluations[parent - first] += evaluations[k]
            record[5] = None
        self.tabulate_distinct += sum(tables.values())
        return mismatches

    def _ms(self, seconds: float) -> float:
        return 1000.0 * seconds / self.ops

    def metrics(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics as name -> (value, unit)."""
        total, own, ms = self.total, self.self_time, self._ms
        return {
            "inputs.parse_ms": (ms(total["inputs.parse"]), "ms"),
            "inputs.build_game_ms": (ms(total["inputs.build_game"]), "ms"),
            "estimators.stream_ms": (ms(total["estimators.token_stream"]), "ms"),
            "estimators.streams": (self.calls["estimators.token_stream"] / self.ops, "count"),
            "estimators.weight_ms": (ms(total["estimators.normalize_weights"]), "ms"),
            "estimators.ess_frac": (_mean(self.ess_fracs), "fraction"),
            "estimators.self_ms": (ms(own["estimators.estimate_all"] + own["estimators.batch"]), "ms"),
            "estimators.sample_ms": (ms(total["estimators.sample"]), "ms"),
            "estimators.coalitions": (self.coalitions / self.ops, "count"),
            "estimators.sample_rate": (_rate(self.coalitions, total["estimators.sample"]), "1/s"),
            "games.evaluate_ms": (ms(total["games.values_by_mask"]), "ms"),
            "games.evaluations": (self.evaluations / self.ops, "count"),
            "games.evaluate_rate": (_rate(self.evaluations, total["games.values_by_mask"]), "1/s"),
            "games.evaluate_flops": (self.flops / self.ops, "flop"),
            "oracles.tabulate_ms": (ms(total["oracles.tabulate"]), "ms"),
            "oracles.tabulate_evals": (self.tabulate_evals / self.ops, "count"),
            "oracles.tabulate_useful_frac": (_ratio(self.tabulate_distinct, self.tabulate_evals), "fraction"),
            "oracles.spin_ms": (ms(total["oracles.spin"]), "ms"),
            "oracles.self_ms": (ms(own["oracles.exact_game_values"] + own["oracles.exact_tilted"]), "ms"),
            "meanfield.solve_ms": (ms(total["meanfield.solve"]), "ms"),
            "meanfield.iterations": (self.iterations / self.ops, "count"),
            "meanfield.converged_frac": (_ratio(self.converged, self.solves), "fraction"),
            "pipeline.gate_ms": (ms(total["pipeline.gate"]), "ms"),
            "pipeline.normalize_ms": (ms(total["pipeline.normalize"]), "ms"),
            "pipeline.self_ms": (ms(own["pipeline.attend"] + own["pipeline.combine"]), "ms"),
            "pipeline.warnings": (self.warnings / self.ops, "count"),
            "reports.dump_ms": (ms(total["reports.dump"]), "ms"),
            "reports.bytes": (self.report_bytes / self.ops, "B"),
            "reports.self_ms": (ms(own["reports.run"]), "ms"),
            "trace.op_ms": (ms(total["op"]), "ms"),
            "trace.unattributed_ms": (ms(own["op"]), "ms"),
            "trace.overhead_frac": (overhead_frac, "fraction"),
        }

    def breakdown(self) -> dict[str, float]:
        """Self time per span name in ms per operation; sums to the op time."""
        rows = sorted(self.self_time.items(), key=lambda item: -item[1])
        return {name: self._ms(seconds) for name, seconds in rows}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def _size(args, result):
    return int(result[0].size)


def _keep_result(args, result):
    return result


def _raw_weights(args, result):
    return result.raw_weights


def _estimate_shape(args, result):
    game, cfg = args[0], args[1]
    return game.n, cfg.sample_count


def _evaluation(args, result):
    # only the size: holding every mask array until the op ended made
    # oracle-exact ops about 20% slower
    return args[0], np.asarray(args[1]).size


def _table(args, result):
    # a table holds each coalition of its game once, so per game and op the
    # distinct coalitions tabulated are the table's size
    return id(args[0]), int(result.size)


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer boundary; returns the names the program no longer
    defines, whose layers then read 0 and whose time stays with the caller."""
    from coalattn import estimators, games, inputs, oracles, pipeline, reports

    missing = []

    def patch(owner, attr, name, note=None):
        if not tracer.patch(owner, attr, name, note):
            missing.append(f"{owner.__name__}.{attr}")

    patch(inputs.InputDocument, "build_game", "inputs.build_game")
    patch(inputs, "monotonicity_violations", "inputs.monotonicity")
    for owner in (pipeline, reports):
        patch(owner, "estimate_all", "estimators.estimate_all", _estimate_shape)
    for attr in ("shapley_sample_batch", "banzhaf_sample_batch", "interaction_sample_batch"):
        patch(estimators, attr, "estimators.batch")
    patch(estimators, "token_stream", "estimators.token_stream")
    for attr in ("sample_permutation_prefixes", "sample_bernoulli_coalitions"):
        patch(estimators, attr, "estimators.sample", _size)
    patch(estimators, "normalize_weights", "estimators.normalize_weights", _raw_weights)
    for cls in (games.EmbeddingGame, games.TabularGame):
        patch(cls, "values_by_mask", "games.values_by_mask", _evaluation)
    patch(oracles, "tabulate", "oracles.tabulate", _table)
    patch(reports, "exact_game_values", "oracles.exact_game_values")
    patch(reports, "exact_gibbs_tilted_values", "oracles.exact_tilted")
    patch(reports, "exact_spin_marginals", "oracles.spin")
    for owner in (pipeline, reports):
        patch(owner, "solve_fixed_point", "meanfield.solve", _keep_result)
        patch(owner, "gate_lambda", "pipeline.gate")
        patch(owner, "normalize_scores", "pipeline.normalize")
        patch(owner, "combine_fields", "pipeline.combine")
        patch(owner, "single_head_attend", "pipeline.attend")
    patch(reports, "multi_head_attend", "pipeline.attend")
    for attr in ("run_attend", "run_oracle", "run_estimate"):
        patch(reports, attr, "reports.run")
    patch(reports, "dump_json", "reports.dump")
    return missing
