"""Scaling harness: exact operation counts, reported wall times.

Two sweeps:

* estimator sweep over (n, K) on synthetic embedding games, counting actual
  characteristic-function evaluations through a wrapper and checking them
  against the documented formula ``2*K*n*(n+1)`` (``2K`` per token for each
  of the two per-token families plus ``4K`` per unordered pair);
* solver sweep over n at a fixed iteration budget ``T``; each target
  evaluation is one dense coupling mat-vec of exactly ``n**2`` multiply-adds
  and the solver performs ``T + 1`` of them (one per applied update plus the
  final defect check), giving ``(T + 1) * n**2`` coupling operations.

Counts are asserted exactly; wall times are recorded in the CSV but never
asserted, since they depend on the machine.
"""

from __future__ import annotations

import csv
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .estimators import estimate_all
from .games import CountingGame, EmbeddingGame
from .inputs import RunConfig
from .meanfield import solve_fixed_point

__all__ = [
    "ESTIMATE_TOKEN_COUNTS",
    "ESTIMATE_SAMPLE_COUNTS",
    "SOLVER_TOKEN_COUNTS",
    "expected_characteristic_evaluations",
    "expected_coupling_operations",
    "synthetic_embedding_game",
    "synthetic_spin_system",
    "run_bench",
    "write_bench_csv",
]

ESTIMATE_TOKEN_COUNTS = (8, 16, 32, 64)
ESTIMATE_SAMPLE_COUNTS = (64, 256, 1024, 4096)
SOLVER_TOKEN_COUNTS = (8, 16, 32, 64)

_SYNTHETIC_DIM = 16
# the columns of a row, in the order of the CSV header
_COLUMNS = ("kind", "n", "parameter", "measured_count", "expected_count", "count_ok", "seconds")
# tolerance small enough that the solver never stops early, so the sweep
# runs exactly T updates for every n
_NEVER_CONVERGE = 1e-300


def expected_characteristic_evaluations(n: int, sample_count: int) -> int:
    """Evaluations used by ``estimate_all``: 2K per token twice, 4K per pair."""
    return 2 * sample_count * n * (n + 1)


def expected_coupling_operations(n: int, iterations: int) -> int:
    """Coupling multiply-adds across a solve that runs its full budget."""
    return (iterations + 1) * n * n


def synthetic_embedding_game(n: int, seed: int) -> EmbeddingGame:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(10, n)))
    embeddings = rng.normal(size=(n, _SYNTHETIC_DIM)) / np.sqrt(_SYNTHETIC_DIM)
    projection = rng.normal(size=(_SYNTHETIC_DIM, _SYNTHETIC_DIM)) / np.sqrt(_SYNTHETIC_DIM)
    return EmbeddingGame(embeddings, projection)


def synthetic_spin_system(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11, n)))
    fields = rng.uniform(-1.0, 1.0, size=n)
    raw = rng.uniform(-1.0, 1.0, size=(n, n)) / n
    couplings = (raw + raw.T) / 2.0
    np.fill_diagonal(couplings, 0.0)
    return fields, couplings


def _row(kind: str, n: int, parameter: int, measured: int, expected: int, seconds: float) -> dict:
    """One measurement; its count is verified when it equals the formula's."""
    return dict(zip(_COLUMNS, (kind, n, parameter, measured, expected, measured == expected, seconds)))


def run_bench(cfg: RunConfig) -> list[dict]:
    """Run both sweeps; returns one row dict per measurement."""
    rows: list[dict] = []

    for n in ESTIMATE_TOKEN_COUNTS:
        game = synthetic_embedding_game(n, cfg.seed)
        for sample_count in ESTIMATE_SAMPLE_COUNTS:
            counting = CountingGame(game)
            est_cfg = replace(cfg.estimator_config(), sample_count=sample_count)
            start = time.perf_counter()
            estimate_all(counting, est_cfg)
            elapsed = time.perf_counter() - start
            expected = expected_characteristic_evaluations(n, sample_count)
            rows.append(_row("estimate", n, sample_count, counting.evaluations, expected, elapsed))

    iterations = cfg.max_iterations
    for n in SOLVER_TOKEN_COUNTS:
        fields, couplings = synthetic_spin_system(n, cfg.seed)
        mf_cfg = replace(cfg.meanfield_config(), tolerance=_NEVER_CONVERGE)
        start = time.perf_counter()
        result = solve_fixed_point(fields, couplings, mf_cfg)
        elapsed = time.perf_counter() - start
        # (used + 1) n**2 equals (T + 1) n**2 exactly when the solve ran all T updates
        measured = expected_coupling_operations(n, result.iterations_used)
        rows.append(_row("solver", n, iterations, measured, expected_coupling_operations(n, iterations), elapsed))

    return rows


def write_bench_csv(rows: list[dict], path) -> None:
    with open(Path(path), "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["seconds"] = f"{row['seconds']:.6f}"
            writer.writerow(out)
