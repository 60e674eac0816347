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
in the array's shape, or an ``Extensions``: a pool of K entries shared by
rows of f <= 2 tokens each.  On a Bernoulli word a row takes the word with
each subset of its tokens toggled, which is the word without the row's
tokens extended by every subset of them, in an order set by the tokens the
word holds; on a permutation a row takes the tokens before its one token,
without and with it.  The ``2**f`` coalitions of every row and entry come
back in the shape ``Extensions.shape``, subset axis first.

A ``TabularGame`` looks the materialised masks up.  An ``EmbeddingGame``
evaluates an ``Extensions`` from per-word (or per-prefix) values and sums
shared by all its rows and kept across calls with the same pool, which an
``Extensions`` stores read-only, so each coalition costs O(1) once the pool
is summed, and a pair's block forms one new squared norm per word; its class
docstring gives the formulas and how far their rounding may stray from a
direct norm of the same coalition.  Plain masks get exactly the direct norm
of their gathered sums.  One game may serve concurrent calls.
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
    "GameValues",
    "TabularGame",
    "EmbeddingGame",
    "CountingGame",
    "project_values",
    "check_table_differences",
    "tabulate",
    "monotonicity_violations",
]

MAX_TOKENS = 64           # coalition masks are 64-bit
TABULAR_MAX_TOKENS = 20   # 2**20 table entries
_MAX_ROW_TOKENS = 2       # most tokens of one Extensions row: a pair

NONLINEARITIES = ("relu", "tanh", "identity")

_TABULATE_CHUNK = 1 << 16  # masks per values_by_mask call of tabulate


@dataclass(frozen=True)
class GameValues:
    """A game's Shapley vector, Banzhaf vector and pairwise interaction
    matrix, estimated or exact.

    ``estimators.estimate_all`` also sets ``effective_sample_size[i]`` to the
    smaller of token i's two batch diagnostics, and one standard error per
    estimate, shaped like the values it belongs to (the interaction matrix's
    diagonal is 0); the exact oracles leave them None."""

    shapley: np.ndarray
    banzhaf: np.ndarray
    interactions: np.ndarray
    effective_sample_size: np.ndarray | None = None
    shapley_standard_error: np.ndarray | None = None
    banzhaf_standard_error: np.ndarray | None = None
    interaction_standard_error: np.ndarray | None = None


@dataclass(frozen=True)
class Extensions:
    """K pool entries shared by rows of tokens, each row taking ``2**f``
    coalitions of every entry: shape ``(2**f,) + tokens.shape[:-1] + (K,)``.

    ``tokens`` holds f distinct token indices per row, shape ``(..., f)``,
    with f at most 2.  ``added`` holds, as uint64 masks of shape ``(2**f,) +
    tokens.shape[:-1]``, the ``2**f`` subsets of each row's tokens in
    counting order: subset j holds the row's token i when bit i of j is set
    (none, first, second, both).  The pool comes in one of two forms:

    * ``contexts``, K uint64 masks (Bernoulli words): row r's coalition j on
      word k is ``contexts[k] ^ added[j, r]``, the word with subset j of r's
      tokens toggled.  Over the ``2**f`` subsets these are r's context k, the
      word without r's tokens (``row_contexts``), extended by every subset
      of the tokens; the context itself is coalition j for the subset j of
      r's tokens that the word holds.
    * ``orders`` (with ``contexts`` None), a ``(K, n)`` array whose rows are
      permutations of the n tokens, for rows of one token: row r's context
      k is the set of tokens ``orders[k]`` places before r's token, and its
      coalitions are that context and the context with the token, which is
      the same toggle since a prefix never holds its own token.
      ``ranks[..., k]`` is that token's place in ``orders[k]``, which is
      also the size of the context.

    The pool is stored as a read-only view of a private copy, so changing
    the array given does not change the coalitions, and the view's
    ``writeable`` flag cannot be set again.  ``shape`` and ``size``
    describe the coalitions, and ``np.asarray`` builds their masks, so a
    caller that only takes the size or the masks of its argument sees the
    coalitions themselves.  ``rows`` takes some of the rows on the same pool copy,
    without checking it again.
    """

    contexts: np.ndarray | None
    tokens: np.ndarray
    orders: np.ndarray | None = None
    added: np.ndarray = field(init=False)
    ranks: np.ndarray | None = field(init=False, default=None)
    shape: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        tokens = np.asarray(self.tokens)
        if tokens.ndim < 1:
            raise ValueError("extensions: tokens need a last axis")
        if tokens.dtype.kind not in "iu" or np.any((tokens < 0) | (tokens >= MAX_TOKENS)):
            raise ValueError(f"extensions: tokens must be integers in [0, {MAX_TOKENS})")
        if tokens.shape[-1] > _MAX_ROW_TOKENS:
            raise ValueError(f"extensions: a row holds at most {_MAX_ROW_TOKENS} tokens")
        tokens = tokens.astype(np.intp)
        bits = _token_bits(tokens)
        added = np.zeros((1 << tokens.shape[-1],) + tokens.shape[:-1], dtype=np.uint64)
        for i in range(tokens.shape[-1]):
            # the subsets holding token i follow, in counting order, those below it
            np.bitwise_or(added[: 1 << i], bits[..., i], out=added[1 << i : 2 << i])
        if np.any(np.bitwise_count(added[-1]) != tokens.shape[-1]):
            raise ValueError("extensions: a row repeats a token")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "added", added)
        if (self.contexts is None) == (self.orders is None):
            raise ValueError("extensions: give either contexts or orders")
        if self.orders is None:
            contexts = np.array(self.contexts, dtype=np.uint64)
            if contexts.ndim != 1:
                raise ValueError("extensions: contexts must be one axis of K masks")
            contexts.flags.writeable = False
            object.__setattr__(self, "contexts", contexts.view())
            object.__setattr__(self, "shape", added.shape + contexts.shape)
            return
        orders = np.array(self.orders)
        if orders.ndim != 2 or orders.dtype.kind not in "iu" or orders.shape[1] > MAX_TOKENS:
            raise ValueError(f"extensions: orders must be a (K, n) integer array with n <= {MAX_TOKENS}")
        k, n = orders.shape
        every_token = np.uint64((1 << n) - 1)
        if orders.size and (
            orders.min() < 0
            or orders.max() >= n
            or np.any(np.bitwise_or.reduce(_token_bits(orders), axis=1) != every_token)
        ):
            raise ValueError("extensions: every order must be a permutation of the tokens")
        if tokens.shape[-1] != 1 or np.any(tokens >= n):
            raise ValueError("extensions: with orders, every row holds one token of the orders")
        places = np.empty_like(orders)
        np.put_along_axis(places, orders, np.arange(n, dtype=orders.dtype), axis=1)
        orders.flags.writeable = False
        object.__setattr__(self, "orders", orders.view())
        object.__setattr__(self, "ranks", np.moveaxis(places[:, tokens[..., 0]], 0, -1))
        object.__setattr__(self, "shape", added.shape + (k,))

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def rows(self, index) -> Extensions:
        """The ``Extensions`` of the rows ``tokens[index]`` (an index of the
        first row axis) on the same pool, which is not checked again."""
        part, added = object.__new__(Extensions), self.added[:, index]
        vars(part).update(
            vars(self),
            tokens=self.tokens[index],
            added=added,
            ranks=None if self.ranks is None else self.ranks[index],
            shape=added.shape + self.shape[-1:],
        )
        return part

    def row_contexts(self) -> np.ndarray:
        """Each row's K contexts, shape ``tokens.shape[:-1] + (K,)``: the
        words without the row's tokens, or the prefixes before its token."""
        if self.orders is None:
            return self.contexts & ~self.added[-1][..., None]
        k, n = self.orders.shape
        # column p of the running OR is the set of the first p tokens of each order
        prefixes = np.zeros((k, n + 1), dtype=np.uint64)
        np.bitwise_or.accumulate(_token_bits(self.orders), axis=1, out=prefixes[:, 1:])
        return prefixes[np.arange(k), self.ranks]

    def __array__(self, dtype=None, copy=None):
        shared = self.contexts if self.orders is None else self.row_contexts()
        masks = self.added[..., None] ^ shared
        return masks if dtype is None else masks.astype(dtype, copy=False)


def _token_bits(tokens: np.ndarray) -> np.ndarray:
    """The single-bit mask of each token index below 64."""
    return np.left_shift(np.uint64(1), tokens.astype(np.uint64))


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
        check_table_differences(arr)
        arr.flags.writeable = False
        self._values = arr
        self.n = n

    def values_by_mask(self, masks: np.ndarray | Extensions) -> np.ndarray:
        if isinstance(masks, Extensions) and masks.tokens.size and masks.tokens.max() >= self.n:
            raise ValueError(f"tabular game: token {masks.tokens.max()} of an extension for a game of {self.n}")
        coalitions = np.asarray(masks).astype(np.uint64, copy=False)
        top = int(coalitions.max()) if coalitions.size else 0
        if top >> self.n:
            raise ValueError(f"tabular game: token {top.bit_length() - 1} of a coalition for a game of {self.n}")
        return self._values[coalitions]

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

    An ``Extensions`` is evaluated from quantities shared by all of its rows
    and formed once per pool, so each coalition then costs O(1); a token at
    or above ``n`` is refused:

    * contexts: with ``S_k`` the sum of word k, ``q0 = |S_k|^2``, the sign
      ``s_t = 1 - 2 b_t`` of each token's bit ``b_t`` in the word, the Gram
      matrix ``G = X X^T`` (formed once per game) and ``h_t = 2 s_t x_t.S_k
      + G_tt``, toggling token t gives the squared norm ``|S_k + s_t x_t|^2 =
      q0 + h_t``.  The values of every word and of every word with each
      token toggled are formed with the pool, so a row of one token copies
      them; a row of two tokens a, b copies those of the word and of its
      two one-token toggles, and forms one new squared norm per word, ``q0
      + h_a + h_b + 2 s_a s_b G_ab``, added in that order, and one root.
    * orders: the values of the n + 1 prefixes of each order, whose sums run
      along it; row r's coalitions are the prefix before its token and the
      one through it.

    Plain masks, and rows of no token, get ``q0``: exactly the squared norm
    of the gathered sum; the sum of the empty word is exactly 0, and a
    toggle that empties a word (the word holds just the toggled tokens, which
    only words of one or two tokens can) is set to 0, so the empty coalition
    is worth exactly 0.  A prefix is summed along its order, which rounds
    otherwise than a gathered sum of the same mask, and from the same sums
    the pooled form of a coalition rounds otherwise than the direct squared
    norm: the two differ by at most ``2 (d_v + f^2 + 2 f + 4) eps M^2``
    (``eps`` the float64 machine epsilon, ``M = |S_k| + sum_t |x_t|`` over
    the row's f tokens), which only matters where the terms nearly cancel.
    For a pair, with ``u = eps/2``: each dot product of d_v terms (``q0``,
    ``x_t.S_k``, ``G_tt``, ``G_ab``) rounds by at most about ``d_v u`` times
    the product of its two norms, and each of the five additions (two in
    the ``h_t``, three in the sum) by at most ``u`` times the magnitudes of
    its terms; every one of those magnitudes is a term of the expansion
    ``M^2 = |S_k|^2 + |x_a|^2 + |x_b|^2 + 2|S_k||x_a| + 2|S_k||x_b| +
    2|x_a||x_b|``, so the pooled square lies within ``(d_v + 5) u M^2`` of
    the exact one, and the direct square within ``d_v u M^2``: together
    ``(d_v + 2.5) eps M^2`` to first order in ``eps``, inside the bound for f
    = 2.  A word and its one-token toggles are the same expansion with fewer
    terms.

    Calls may run concurrently, from any number of threads, and a call's
    result never depends on earlier calls: every call allocates its own
    arrays and returns fresh ones.  The one thing a call leaves behind is
    the shared sums of the last pool (an ``Extensions``' read-only
    ``contexts`` or ``orders``), kept so that the blocks of rows one
    estimate evaluates in turn form them once.
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
        self._gram = projected @ projected.T  # the Gram matrix X X^T
        self._byte_sums = _byte_sum_tables(projected)
        self._pool: tuple = (None,)  # (pool, its shared sums) of the last pool
        self.nonlinearity = nonlinearity
        self.n = n

    def values_by_mask(self, masks: np.ndarray | Extensions) -> np.ndarray:
        if not isinstance(masks, Extensions):
            return self._finish(self._sums(np.asarray(masks))[1])
        extensions = masks
        if extensions.tokens.size and extensions.tokens.max() >= self.n:
            raise ValueError(
                f"embedding game: token {extensions.tokens.max()} of an extension for a game of {self.n}"
            )
        if extensions.orders is not None:
            # subset 0 is the prefix before the row's token, subset 1 the one through it
            values = self._shared(extensions.orders, self._prefix_values)
            ranks = extensions.ranks
            places = ranks + np.arange(2).reshape((2,) + (1,) * ranks.ndim)
            return values[np.arange(values.shape[0]), places]
        return self._toggled_values(extensions)

    def _finish(self, squared: np.ndarray) -> np.ndarray:
        """The values of squared norms, formed in place."""
        norms = np.sqrt(np.maximum(squared, 0.0, out=squared), out=squared)
        if self.nonlinearity == "tanh":  # relu, like identity, keeps the norms
            np.tanh(norms, out=norms)
        return norms

    def _shared(self, pool: np.ndarray, form):
        """``form(pool)``, kept for the next call with the same pool."""
        # one read, so a concurrent call cannot swap another pool's sums in
        last = self._pool
        if last[0] is pool:
            return last[1]
        shared = form(pool)
        self._pool = (pool, shared)
        return shared

    def _toggled_values(self, extensions: Extensions) -> np.ndarray:
        """The values of the coalitions of an ``Extensions`` of pool words."""
        tokens = extensions.tokens
        word_values, toggled_values, toggled_squares, h, signs, doubles = self._shared(
            extensions.contexts, self._word_values
        )
        values = np.empty(extensions.shape)
        values[0] = word_values
        if tokens.shape[-1] == 0:
            return values
        a = tokens[..., 0]
        # tokens are below n, so "clip" never clips; it lets take write into `out`
        toggled_values.take(a, axis=0, out=values[1], mode="clip")
        if tokens.shape[-1] == 1:
            return values
        b = tokens[..., 1]
        toggled_values.take(b, axis=0, out=values[2], mode="clip")
        squared = toggled_squares.take(a, axis=0, out=values[3], mode="clip")
        squared += h.take(b, axis=0, mode="clip")
        cross = signs.take(a, axis=0, mode="clip")
        cross *= signs.take(b, axis=0, mode="clip")
        cross *= 2.0 * self._gram[a, b][..., None]
        squared += cross
        if doubles.size:
            # a word of just the row's two tokens toggles to the empty coalition
            emptied = extensions.contexts[doubles] == extensions.added[-1][..., None]
            squared[..., doubles] = np.where(emptied, 0.0, squared[..., doubles])
        self._finish(squared)
        return values

    def _word_values(self, contexts: np.ndarray) -> tuple[np.ndarray, ...]:
        """What every row of a pool of K words shares: the words' values; the
        values and squared norms ``q0 + h_t`` of each word with each token t
        toggled, the ``h_t`` and the signs ``s_t``, all of shape ``(n, K)``;
        and the indices of the words of two tokens."""
        s, squares = self._sums(contexts)
        signs = np.empty((self.n, contexts.size))
        shifts = np.arange(self.n, dtype=np.uint64)[:, None]
        np.bitwise_and(contexts >> shifts, np.uint64(1), out=signs, casting="unsafe")
        signs *= -2.0
        signs += 1.0
        h = self.projected @ s.T  # x_t.S_k
        h *= 2.0
        h *= signs
        h += np.diagonal(self._gram)[:, None]
        toggled_squares = h + squares
        toggled_values = self._finish(toggled_squares.copy())
        # the word of the one token t toggles to the empty coalition
        toggled_values[contexts == _token_bits(np.arange(self.n))[:, None]] = 0.0
        doubles = np.flatnonzero(np.bitwise_count(contexts) == 2)
        return self._finish(squares), toggled_values, toggled_squares, h, signs, doubles

    def _prefix_values(self, orders: np.ndarray) -> np.ndarray:
        """The values of the n + 1 prefixes of each of the K orders, shape
        ``(K, n + 1)``."""
        k, n = orders.shape
        if n > self.n:
            raise ValueError(f"embedding game: orders of {n} tokens for a game of {self.n}")
        width = self.projected.shape[1]
        running, gathered = np.zeros((k, width)), np.empty((k, width))
        squared = np.zeros((k, n + 1))
        for place in range(n):
            running += self.projected.take(orders[:, place], axis=0, out=gathered, mode="clip")
            squared[:, place + 1] = np.einsum("ij,ij->i", running, running)
        return self._finish(squared)

    def _sums(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coalition sums of *masks*, shape ``masks.shape + (d_v,)``, and
        their squared norms, shape ``masks.shape``."""
        tables = self._byte_sums
        # byte b of a little-endian 64-bit mask holds the bits of tokens 8b..8b+7
        mask_bytes = np.ascontiguousarray(masks, dtype="<u8").reshape(-1).view(np.uint8)
        rows = mask_bytes.reshape(-1, 8)[:, : tables.shape[0]].T.astype(np.intp)
        shape = (rows.shape[1], tables.shape[2])
        sums, gathered = np.empty(shape), np.empty(shape)
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
    intermediate the pooled form of ``EmbeddingGame`` builds from dot
    products of the projected rows, is at most ``4 B^2`` in magnitude with
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


def check_table_differences(table: np.ndarray, name: str = "tabular game") -> None:
    """Raise ValueError, naming *name*, when a difference of the finite
    ``2**n`` values in *table* could overflow float64.

    Every slot's differences have absolute values summing to at most
    ``S = sum |v|``, and each one is at most ``4 max |v|``, so a finite
    ``4 n S`` keeps every difference, every average of differences and the
    sum of the n Shapley values finite.
    """
    n = table.size.bit_length() - 1
    with np.errstate(over="ignore"):
        bound = 4.0 * n * float(np.sum(np.abs(table)))
    if not math.isfinite(bound):
        raise ValueError(
            f"{name}: value differences overflow float64 "
            "(4 * n * (sum of |values|) is not finite)"
        )


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
