"""The four benchmark workloads and their seeded input documents.

Each workload is one CLI subcommand applied to a small pool of generated
documents.  Documents come from ``numpy`` alone, so the program under test
sees nothing but the JSON text a user would hand to ``coalattn``.  Why each
shape was chosen is written down in ``NOTES.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                # attend | oracle | estimate
    settings: dict              # RunConfig overrides, as a --config file would give them
    pool: int                   # distinct documents per run; ops cycle through them
    make_document: Callable[[np.random.Generator], dict]


def _embeddings(rng: np.random.Generator, n: int, d: int) -> list:
    return (rng.normal(size=(n, d)) / np.sqrt(d)).tolist()


def _head(rng: np.random.Generator, d: int, d_v: int) -> dict:
    return {
        "value_projection": (rng.normal(size=(d, d_v)) / np.sqrt(d)).tolist(),
        "gate_weights": (rng.normal(size=d) / np.sqrt(d)).tolist(),
        "gate_bias": float(rng.normal(scale=0.5)),
    }


def _single_head_document(rng: np.random.Generator, n: int, d: int, d_v: int) -> dict:
    return {"schema_version": SCHEMA_VERSION, "n": n, "embeddings": _embeddings(rng, n, d), **_head(rng, d, d_v)}


def attend_short_document(rng: np.random.Generator) -> dict:
    return _single_head_document(rng, n=16, d=16, d_v=16)


def attend_wide_document(rng: np.random.Generator) -> dict:
    n, d, d_v, heads = 32, 64, 32, 2
    return {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "embeddings": _embeddings(rng, n, d),
        "multi_head": {
            "heads": [_head(rng, d, d_v) for _ in range(heads)],
            "output_projection": (rng.normal(size=(heads * d_v, d)) / np.sqrt(heads * d_v)).tolist(),
        },
    }


def oracle_exact_document(rng: np.random.Generator) -> dict:
    # n = 12 is the exact-Shapley enumeration limit (oracles.SHAPLEY_ENUM_LIMIT)
    return _single_head_document(rng, n=12, d=16, d_v=16)


def estimate_table_document(rng: np.random.Generator) -> dict:
    """A concave weighted-coverage game plus small noise, so the table is
    mostly but not exactly monotone, as hand-made tables tend to be."""
    n = 16
    masks = np.arange(1 << n, dtype=np.int64)
    members = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    weights = rng.uniform(0.2, 1.0, size=n)
    table = np.sqrt(members @ weights) + rng.uniform(-0.01, 0.01, size=masks.size)
    table[0] = 0.0
    return {"schema_version": SCHEMA_VERSION, "n": n, "characteristic_table": table.tolist()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("attend-short", "attend", {}, 4, attend_short_document),
        Workload("attend-wide", "attend", {"sample_count": 256, "mode": "gibbs"}, 2, attend_wide_document),
        Workload("oracle-exact", "oracle", {}, 4, oracle_exact_document),
        Workload("estimate-table", "estimate", {"sample_count": 512, "mode": "classic"}, 4, estimate_table_document),
    )
}


def documents(workload: Workload, seed: int) -> list[tuple[bytes, dict]]:
    """The run's document pool: (JSON bytes, RunConfig overrides) pairs.

    The same seed always gives the same bytes and the same per-document
    engine seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    pool = []
    for _ in range(workload.pool):
        text = json.dumps(workload.make_document(rng)).encode("utf-8")
        settings = {**workload.settings, "seed": int(rng.integers(0, 2**63))}
        pool.append((text, settings))
    return pool
