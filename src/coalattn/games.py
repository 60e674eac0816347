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
agnostic to the family: ``n`` and ``values_by_mask``.  It is the one
evaluation entry point: every estimator and oracle evaluates through it
(``tabulate`` feeds it every mask in chunks), so a ``CountingGame`` sees
every evaluation.  It takes either an array of masks, whose values come back
in the array's shape, or an ``Extensions``: K context masks, each extended
by each of m added sets disjoint from it, whose ``m x K`` values come back
in the shape ``Extensions.shape``.  A plain array is the case of one added
set, the empty one.

An ``EmbeddingGame`` gathers the sum ``s`` of each context once and the sum
``a`` of each added set once, and forms every squared norm as ``|s + a|^2 =
|s|^2 + 2 a.s + |a|^2``, clamped at 0.  With ``a = 0`` that is exactly the
squared norm of ``s``, so plain masks and every empty added set get the same
bits as a direct norm.  Otherwise it rounds differently from the direct
squared norm of ``s + a``: from the same sums the two differ by at most
``(d_v + 1) eps (|s| + |a|)^2`` (``eps`` the float64 machine epsilon), which
only matters where ``s`` nearly cancels ``a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix

__all__ = [
    "MAX_TOKENS",
    "TABULAR_MAX_TOKENS",
    "Extensions",
    "TabularGame",
    "EmbeddingGame",
    "CountingGame",
    "project_values",
    "tabulate",
    "monotonicity_violations",
]

MAX_TOKENS = 64           # coalition masks are 64-bit
TABULAR_MAX_TOKENS = 20   # 2**20 table entries

NONLINEARITIES = ("relu", "tanh", "identity")

_TABULATE_CHUNK = 1 << 16  # masks per values_by_mask call of tabulate


@dataclass(frozen=True)
class Extensions:
    """The coalitions ``added[..., :, None] | contexts[..., None, :]``.

    ``contexts`` has shape ``(..., K)`` and ``added`` shape ``(..., m)``, both
    uint64 masks with broadcastable leading axes; every added set must be
    disjoint from each context of its row, so the coalition is their union.
    ``shape`` and ``size`` describe the ``(..., m, K)`` coalitions, and
    ``np.asarray`` builds their masks, so a caller that only takes the size or
    the masks of its argument sees the coalitions themselves.
    """

    contexts: np.ndarray
    added: np.ndarray
    shape: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        contexts = np.asarray(self.contexts, dtype=np.uint64)
        added = np.asarray(self.added, dtype=np.uint64)
        if contexts.ndim < 1 or added.ndim < 1:
            raise ValueError("extensions: contexts and added sets need a last axis")
        # an added set misses every context of its row iff it misses their
        # union; broadcasting the leading axes raises ValueError if they differ
        overlaps = added & np.bitwise_or.reduce(contexts, axis=-1)[..., None]
        if overlaps.any():
            raise ValueError("extensions: an added set overlaps a context of its row")
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "added", added)
        object.__setattr__(self, "shape", overlaps.shape + contexts.shape[-1:])

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def __array__(self, dtype=None, copy=None):
        masks = self.added[..., :, None] | self.contexts[..., None, :]
        return masks if dtype is None else masks.astype(dtype, copy=False)


_NOTHING_ADDED = np.zeros(1, dtype=np.uint64)


class TabularGame:
    """Characteristic function given explicitly as a table of ``2**n`` values.

    ``values[mask]`` is the value of the coalition with that bitmask; the
    empty coalition must have value exactly 0.
    """

    def __init__(self, values):
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
        arr.flags.writeable = False
        self._values = arr
        self.n = n

    def values_by_mask(self, masks: np.ndarray | Extensions) -> np.ndarray:
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

    The gathered rows go into buffers the game allocates on first use and
    enlarges only when a call needs more rows, one pair for the contexts and
    one for the added sets.  A block's gathers are a few hundred KB, above
    glibc's initial mmap threshold, so fresh temporaries of that size are
    mapped, or trimmed from the heap, and faulted in again on every call
    unless something else the process allocated earlier has raised glibc's
    thresholds (about 27,000 minor page faults per ``attend-wide`` operation
    against a few hundred with the buffers).  The buffers make
    ``values_by_mask`` reuse the same memory on every call, so one game must
    not serve concurrent calls; its results are fresh arrays and stay valid
    after later calls.
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
        projected = project_values(x, w)
        projected.flags.writeable = False
        self.projected = projected   # n x d_v, row i is the value vector of token i
        self._byte_sums = _byte_sum_tables(projected)
        # (sums, gathered rows) for the contexts and for the added sets
        self._buffers: list[tuple[np.ndarray, np.ndarray] | None] = [None, None]
        self.nonlinearity = nonlinearity
        self.n = n

    def values_by_mask(self, masks: np.ndarray | Extensions) -> np.ndarray:
        if isinstance(masks, Extensions):
            extensions, shape = masks, masks.shape
        else:
            extensions, shape = Extensions(np.reshape(masks, -1), _NOTHING_ADDED), np.shape(masks)
        s, s_squared = self._sums(extensions.contexts, 0)
        a, a_squared = self._sums(extensions.added, 1)
        # |s|^2 + 2 a.s + |a|^2, formed in place in the (..., m, K) cross term
        squared = a @ np.swapaxes(s, -1, -2)
        squared *= 2.0
        squared += s_squared[..., None, :]
        squared += a_squared[..., :, None]
        norms = np.sqrt(np.maximum(squared, 0.0, out=squared), out=squared)
        if self.nonlinearity == "tanh":  # relu, like identity, keeps the norms
            np.tanh(norms, out=norms)
        return norms.reshape(shape)

    def _sums(self, masks: np.ndarray, role: int) -> tuple[np.ndarray, np.ndarray]:
        """Coalition sums of *masks*, shape ``masks.shape + (d_v,)``, and
        their squared norms, shape ``masks.shape``.

        The sums are a view of the game's buffers for *role* (0 contexts,
        1 added sets), valid until the next call for that role.
        """
        tables = self._byte_sums
        # byte b of a little-endian 64-bit mask holds the bits of tokens 8b..8b+7
        mask_bytes = np.ascontiguousarray(masks, dtype="<u8").reshape(-1).view(np.uint8)
        rows = mask_bytes.reshape(-1, 8)[:, : tables.shape[0]].T.astype(np.intp)
        buffers = self._buffers[role]
        if buffers is None or len(buffers[0]) < rows.shape[1]:
            buffers = tuple(np.empty(rows.shape[1:] + tables.shape[2:]) for _ in range(2))
            self._buffers[role] = buffers
        sums, gathered = (buffer[: rows.shape[1]] for buffer in buffers)
        # byte values index 256 rows, so "clip" never clips; unlike the
        # default "raise", it lets take write into `out` without a copy
        tables[0].take(rows[0], axis=0, out=sums, mode="clip")
        for b in range(1, tables.shape[0]):
            sums += tables[b].take(rows[b], axis=0, out=gathered, mode="clip")
        squared = np.einsum("ij,ij->i", sums, sums)
        return sums.reshape(masks.shape + sums.shape[-1:]), squared.reshape(masks.shape)


def project_values(
    embeddings: np.ndarray, value_projection: np.ndarray, name: str = "embedding game"
) -> np.ndarray:
    """The value vectors ``embeddings @ value_projection`` of an embedding
    game, one row per token.

    Raises ValueError, naming *name*, when a coalition's squared norm could
    overflow float64.  Every squared norm of a coalition sum, and every
    intermediate of ``|s|^2 + 2 a.s + |a|^2``, is at most ``4 B^2`` with
    ``B = sum_i |x_i W|_2``, so a finite ``4 B^2`` keeps every value of the
    game, and every difference of values the estimators and oracles form,
    finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        projected = embeddings @ value_projection
        total = float(np.sum(np.sqrt(np.einsum("ij,ij->i", projected, projected))))
    if not math.isfinite(4.0 * total * total):
        raise ValueError(
            f"{name}: coalition norms overflow float64 with these embeddings "
            "(4 * (sum of the projected rows' norms)**2 is not finite)"
        )
    return projected


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
        # byte values with highest set bit k: the values below 2**k plus row k,
        # added in place so no temporary of the tables' size is allocated
        np.add(tables[:, : 1 << k], padded[k::8, None, :], out=tables[:, 1 << k : 2 << k])
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

    def values_by_mask(self, masks: np.ndarray | Extensions) -> np.ndarray:
        self.evaluations += int(np.size(masks))
        return self._game.values_by_mask(masks)


def tabulate(game) -> np.ndarray:
    """Evaluate every coalition of a game into a mask-indexed table."""
    if isinstance(game, TabularGame):
        return game.table
    size = 1 << game.n
    out = np.empty(size, dtype=np.float64)
    for start in range(0, size, _TABULATE_CHUNK):
        stop = min(start + _TABULATE_CHUNK, size)
        out[start:stop] = game.values_by_mask(np.arange(start, stop, dtype=np.uint64))
    return out


def monotonicity_violations(game: TabularGame) -> int:
    """Count of (C, C+{i}) pairs where adding a token decreases the value.

    Monotonicity is not guaranteed by every characteristic function, so the
    engine treats it as an optional check rather than an invariant; callers
    typically log a warning when the count is nonzero.
    """
    # each axis of the (2,)*n cube is one token's bit, so its two faces pair
    # every coalition without the token with that coalition plus the token
    cube = game.table.reshape((2,) * game.n)
    return sum(
        int(np.count_nonzero(np.take(cube, 1, axis) < np.take(cube, 0, axis)))
        for axis in range(game.n)
    )
