"""Coalition games over token subsets.

A coalition is a set of token indices stored as a bitmask (bit ``i`` set
means token ``i`` is a member).  Two characteristic-function families are
provided:

``TabularGame``
    an explicit table of ``2**n`` values indexed by bitmask, used for
    fixtures and as the ground-truth substrate for the exact oracles;

``EmbeddingGame``
    the energy form ``v(C) = f(||sum_{i in C} x_i @ W_v||_2)`` with ``f`` a
    mild nonlinearity, which is what the attention pipeline evaluates.  The
    coalition sums are read from per-byte partial-sum tables built once per
    game (``ceil(n/8) * 256 * d_v`` floats), so evaluating a batch of masks
    is one table gather and add per mask byte plus a row norm.

Both expose the same evaluation interface, so oracles and estimators are
agnostic to the family: ``n`` and ``values_by_mask``, which evaluates a
batch of masks and is the one path every estimator and oracle evaluates
through (``tabulate`` feeds it every mask in chunks).  ``value_by_mask`` is
the single-mask convenience for the demo walkthrough and tests; no estimator
or oracle calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

__all__ = [
    "MAX_TOKENS",
    "TABULAR_MAX_TOKENS",
    "GibbsTarget",
    "TabularGame",
    "EmbeddingGame",
    "CountingGame",
    "tabulate",
    "monotonicity_violations",
]

MAX_TOKENS = 64           # coalition masks are 64-bit
TABULAR_MAX_TOKENS = 20   # 2**20 table entries

NONLINEARITIES = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class GibbsTarget:
    """Temperature of the coalition target distribution ``∝ exp(v(C)/gamma)``."""

    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gibbs target: gamma must be positive and finite, got {self.gamma}")


class TabularGame:
    """Characteristic function given explicitly as a table of ``2**n`` values.

    ``values[mask]`` is the value of the coalition with that bitmask; the
    empty coalition must have value exactly 0.  An optional ``bound`` asserts
    ``|v(C)| <= bound`` for every coalition at construction time.
    """

    def __init__(self, values, bound: float | None = None):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("tabular game: values must be a flat array")
        size = arr.size
        if size < 2 or size & (size - 1):
            raise ValueError(f"tabular game: table length must be a power of two >= 2, got {size}")
        n = size.bit_length() - 1
        if n > TABULAR_MAX_TOKENS:
            raise ValueError(f"tabular game: at most {TABULAR_MAX_TOKENS} tokens (got {n})")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tabular game: all values must be finite")
        if arr[0] != 0.0:
            raise ValueError(f"tabular game: empty coalition must have value 0, got {arr[0]}")
        if bound is not None and np.max(np.abs(arr)) > bound:
            raise ValueError(f"tabular game: values exceed the declared bound {bound}")
        arr.flags.writeable = False
        self._values = arr
        self.n = n
        self.bound = bound

    def value_by_mask(self, mask: int) -> float:
        if not 0 <= mask < self._values.size:
            raise ValueError(f"tabular game: mask {mask:#x} out of range for n={self.n}")
        return float(self._values[mask])

    def values_by_mask(self, masks: np.ndarray) -> np.ndarray:
        return self._values[np.asarray(masks).astype(np.int64)]

    @property
    def table(self) -> np.ndarray:
        return self._values


class EmbeddingGame:
    """Energy-based characteristic function over projected embeddings.

    ``v(C) = f(||sum_{i in C} x_i @ W_v||_2)`` where ``embeddings`` is the
    ``n x d`` matrix with one token per row, ``value_projection`` is
    ``d x d_v`` (row-vector convention), and ``f`` is one of ``relu``,
    ``tanh`` or ``identity``.  Since norms are nonnegative, ``relu`` acts as
    the identity on them; it is kept as the default for symmetry with the
    other nonlinearities.

    Construction tabulates, for each byte position ``b`` of a mask and each
    byte value ``v``, the sum of the projected rows ``8b + k`` over the bits
    ``k`` set in ``v``.  The tables hold ``ceil(n/8) * 256 * d_v`` floats
    (256 KB at n=32, d_v=32); a coalition's sum is then the sum of one table
    row per mask byte.  Mask bits at or above ``n`` select zero rows and so
    do not change the value.
    """

    def __init__(self, embeddings, value_projection, nonlinearity: str = "relu"):
        x = as_matrix(embeddings, "embeddings")
        w = as_matrix(value_projection, "value_projection")
        n, d = x.shape
        if n > MAX_TOKENS:
            raise ValueError(f"embedding game: at most {MAX_TOKENS} tokens (got {n})")
        if w.shape[0] != d:
            raise ValueError(
                f"embedding game: value projection has {w.shape[0]} rows, embeddings have width {d}"
            )
        if nonlinearity not in NONLINEARITIES:
            raise ValueError(f"embedding game: unknown nonlinearity {nonlinearity!r}")
        self.embeddings = x.copy()
        self.embeddings.flags.writeable = False
        projected = x @ w
        projected.flags.writeable = False
        self.projected = projected   # n x d_v, row i is the value vector of token i
        self._byte_sums = _byte_sum_tables(projected)
        self.nonlinearity = nonlinearity
        self.n = n

    def _apply_nonlinearity(self, norms: np.ndarray) -> np.ndarray:
        if self.nonlinearity == "relu":
            return np.maximum(norms, 0.0)
        if self.nonlinearity == "tanh":
            return np.tanh(norms)
        return norms

    def values_by_mask(self, masks: np.ndarray) -> np.ndarray:
        tables = self._byte_sums
        # byte b of a little-endian 64-bit mask holds the bits of tokens 8b..8b+7
        mask_bytes = np.ascontiguousarray(masks, dtype="<u8").reshape(-1).view(np.uint8)
        rows = mask_bytes.reshape(-1, 8)[:, : tables.shape[0]].T.astype(np.intp)
        sums = tables[0].take(rows[0], axis=0)
        for b in range(1, tables.shape[0]):
            sums += tables[b].take(rows[b], axis=0)
        norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))
        return self._apply_nonlinearity(norms)

    def value_by_mask(self, mask: int) -> float:
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"embedding game: mask {mask:#x} out of range for n={self.n}")
        return float(self.values_by_mask(np.array([mask], dtype=np.uint64))[0])


def _byte_sum_tables(rows: np.ndarray) -> np.ndarray:
    """Per-byte partial sums of *rows*: ``tables[b, v]`` is the sum of the
    rows ``8b + k`` over the bits ``k`` set in the byte value ``v``.

    Rows past the end count as zero, so the tables have shape
    ``(ceil(n/8), 256, width)``.
    """
    n, width = rows.shape
    byte_count = -(-n // 8)
    padded = np.zeros((byte_count * 8, width))
    padded[:n] = rows
    tables = np.zeros((byte_count, 256, width))
    for k in range(8):
        # byte values with highest set bit k: the values below 2**k plus row k
        tables[:, 1 << k : 2 << k] = tables[:, : 1 << k] + padded[k::8, None, :]
    tables.flags.writeable = False
    return tables


class CountingGame:
    """Wrapper that counts characteristic-function evaluations.

    Used by the benchmark harness; the wrapped game stays untouched so the
    core games remain pure.
    """

    def __init__(self, game):
        self._game = game
        self.evaluations = 0

    @property
    def n(self) -> int:
        return self._game.n

    def value_by_mask(self, mask: int) -> float:
        self.evaluations += 1
        return self._game.value_by_mask(mask)

    def values_by_mask(self, masks: np.ndarray) -> np.ndarray:
        self.evaluations += int(np.asarray(masks).size)
        return self._game.values_by_mask(masks)


def tabulate(game, chunk: int = 1 << 16) -> np.ndarray:
    """Evaluate every coalition of a game into a mask-indexed table."""
    if isinstance(game, TabularGame):
        return game.table
    size = 1 << game.n
    out = np.empty(size, dtype=np.float64)
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        out[start:stop] = game.values_by_mask(np.arange(start, stop, dtype=np.uint64))
    return out


def monotonicity_violations(game: TabularGame) -> int:
    """Count of (C, C+{i}) pairs where adding a token decreases the value.

    Monotonicity is not guaranteed by every characteristic function, so the
    engine treats it as an optional check rather than an invariant; callers
    typically log a warning when the count is nonzero.
    """
    table = game.table
    count = 0
    masks = np.arange(table.size, dtype=np.int64)
    for i in range(game.n):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        count += int(np.sum(table[without | bit] < table[without]))
    return count
