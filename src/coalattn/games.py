"""Coalition games over token subsets.

A coalition is a set of token indices stored as a bitmask (bit ``i`` set
means token ``i`` is a member).  Two characteristic-function families are
provided:

``TabularGame``
    an explicit table of ``2**n`` values indexed by bitmask, used for
    fixtures and as the ground-truth substrate for the exact oracles;

``EmbeddingGame``
    the energy form ``v(C) = f(||sum_{i in C} x_i @ W_v||_2)`` with ``f`` a
    mild nonlinearity, which is what the attention pipeline evaluates.  A
    batch of masks is unpacked once into its token membership
    (``token_members``), and its coalition sums are one matrix product of
    that membership with the projected rows, followed by a row norm.

Both expose the same evaluation interface, so oracles and estimators are
agnostic to the family: ``n`` and ``values_by_mask``.  It is the one
evaluation entry point: every estimator and oracle evaluates through it
(``tabulate`` feeds it every mask in chunks), so a ``CountingGame`` sees
every evaluation.  It takes either an array of integer masks, whose values
come back in the array's shape (float and bool arrays are refused, not
truncated), or an ``Extensions``: a pool of K entries (Bernoulli
words or permutations) shared by rows of one or two tokens each, whose
tokens ``Extensions.mask`` holds as one mask per row.  Each row takes the
``2**f`` coalitions of every entry with a subset of its tokens toggled, in
the order that the ``Extensions`` docstring describes once;
``Extensions.shape`` counts them, subset axis first.  For an
``Extensions`` it returns, for every row and entry, the row's context
value and the inclusion-exclusion difference of its tokens over that
context, each of shape ``tokens.shape[:-1] + (K,)``: what an estimator
reads of the coalitions.

Both games reach that pair through one function, ``_extension_values``,
which refuses row tokens past the game's, keeps the tables of the last
pool, selects each row's context by the word's held bits and forms the
alternating sums and their signs.  A game supplies only its tables: the
values of every word and of every word with each token toggled
(``_word_values``), the values of a block of pair rows' words with both
tokens toggled (``_pair_values``), and the values of every order's
prefixes (``_prefix_values``).  A ``TabularGame`` fills them by lookup; an
``EmbeddingGame`` from per-word sums, so each coalition costs O(1) once
the pool is summed and a pair's block forms one new squared norm per word;
its class docstring gives the formulas and how far their rounding may
stray from a direct norm of the same coalition.  Plain masks get exactly
the direct norm of their member-matmul sums.  The engine never builds the
masks of an ``Extensions``' coalitions.

One game may serve concurrent calls, from any number of threads, and a
call's result never depends on earlier calls: every call allocates its
own arrays and returns fresh ones.  The one thing a call leaves behind is
the tables of the last pool (an ``Extensions``' read-only ``contexts`` or
``orders``), kept so that the blocks of rows evaluated in turn on one pool
form them once: an estimate's token and pair rows on its pool of words
(``Extensions.with_tokens``) share one set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix, require_finite

__all__ = [
    "MAX_TOKENS",
    "TABULAR_MAX_TOKENS",
    "Extensions",
    "GameValues",
    "TabularGame",
    "EmbeddingGame",
    "CountingGame",
    "project_values",
    "check_table",
    "tabulate",
    "token_members",
]

MAX_TOKENS = 64           # coalition masks are 64-bit
TABULAR_MAX_TOKENS = 20   # 2**20 table entries

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
    """K pool entries shared by rows of one or two tokens, each row taking
    ``2**f`` coalitions of every entry: shape ``(2**f,) + tokens.shape[:-1]
    + (K,)``.

    ``tokens`` holds f distinct token indices per row, shape ``(..., f)``,
    with f one or two, and ``mask`` each row's tokens as one uint64 mask,
    shape ``tokens.shape[:-1]``.  A row's ``2**f`` subsets of its tokens
    come in counting order: subset j holds the row's token i when bit i of
    j is set (none, first, second, both).  The pool comes in one of two
    forms:

    * ``contexts``, K uint64 masks (Bernoulli words): row r's coalition j on
      word k is word k with subset j of r's tokens toggled.  Over the
      ``2**f`` subsets these are r's context k, the word without r's tokens
      (``contexts[k] & ~mask[r]``), extended by every subset of the tokens;
      the context itself is coalition j for the subset j of r's tokens that
      the word holds.
    * ``orders`` (with ``contexts`` None), a ``(K, n)`` array whose rows are
      permutations of the n tokens, for rows of one token: row r's context
      k is the set of tokens ``orders[k]`` places before r's token, and its
      coalitions are that context and the context with the token, which is
      the same toggle since a prefix never holds its own token.
      ``ranks[..., k]`` is that token's place in ``orders[k]``, which is
      also the size of the context.

    An ``Extensions`` holds the draw and its rows, and no table of them: a
    game unpacks a pool of words once, to its own n tokens, into the bits
    it reads (``_word_tables``), so what a row reads of a word depends on
    the words and the game alone, never on the rows beside it.

    This toggle order is defined here alone.  A game's ``values_by_mask``
    of an ``Extensions`` returns, for every row and entry, the context's
    value (coalition 0 of a prefix; on a word, the coalition of the subset
    the word holds) and the inclusion-exclusion difference of the row's
    tokens over that context, which is the alternating sum ``v_1 - v_0`` or
    ``((v_3 - v_1) - v_2) + v_0`` of the coalitions' values ``v_j`` times
    ``prod_t (1 - 2 b_t)`` for the bits ``b_t`` of the row's tokens in the
    word: toggling a token the word holds removes it, so each held token
    flips the sum's sign.  Both games form that pair in
    ``_extension_values`` from tables of the pool, never from the
    coalitions' masks.

    The pool is stored as a read-only view of a private copy, so changing
    the array given does not change the coalitions, and the view's
    ``writeable`` flag cannot be set again.  ``rows`` takes some of the
    rows, and ``with_tokens`` puts other rows, checked, on a pool of words:
    both on the same pool copy, which is not checked again.  ``shape`` and
    ``size`` describe the coalitions, and ``np.asarray`` builds their
    masks; that serves only outside counters and tests, never the engine.
    """

    contexts: np.ndarray | None
    tokens: np.ndarray
    orders: np.ndarray | None = None
    mask: np.ndarray = field(init=False)
    ranks: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        tokens, mask = _checked_rows(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "mask", mask)
        if (self.contexts is None) == (self.orders is None):
            raise ValueError("extensions: give either contexts or orders")
        if self.orders is None:
            _integer_masks(self.contexts, "extensions")
            contexts = np.array(self.contexts, dtype=np.uint64)
            if contexts.ndim != 1:
                raise ValueError("extensions: contexts must be one axis of K masks")
            contexts.flags.writeable = False
            object.__setattr__(self, "contexts", contexts.view())
            return
        orders = np.array(self.orders)
        if orders.ndim != 2 or orders.dtype.kind not in "iu" or orders.shape[1] > MAX_TOKENS:
            raise ValueError(f"extensions: orders must be a (K, n) integer array with n <= {MAX_TOKENS}")
        n = orders.shape[1]
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

    @property
    def shape(self) -> tuple[int, ...]:
        pool = self.contexts if self.orders is None else self.orders
        return (1 << self.tokens.shape[-1],) + self.tokens.shape[:-1] + (len(pool),)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def rows(self, index) -> Extensions:
        """The ``Extensions`` of the rows ``tokens[index]`` (an index of the
        first row axis) on the same pool."""
        ranks = None if self.ranks is None else self.ranks[index]
        return self._on_pool(self.tokens[index], self.mask[index], ranks)

    def with_tokens(self, tokens) -> Extensions:
        """The ``Extensions`` of other rows, *tokens*, checked as the
        constructor checks them, on the same copy of a pool of words, so a
        game that evaluates both forms its tables of the pool once."""
        if self.contexts is None:
            raise ValueError("extensions: with_tokens needs a pool of words, not orders")
        return self._on_pool(*_checked_rows(tokens), None)

    def _on_pool(self, tokens: np.ndarray, mask: np.ndarray, ranks: np.ndarray | None) -> Extensions:
        """Checked rows on this pool: its ``contexts`` and ``orders`` as they
        are, with *tokens*, their *mask* and *ranks*."""
        other = object.__new__(Extensions)
        vars(other).update(vars(self), tokens=tokens, mask=mask, ranks=ranks)
        return other

    def __array__(self, dtype=None, copy=None):
        # each row's subsets in counting order: those holding a token follow
        # those without it
        subsets = [np.zeros_like(self.mask)]
        for bit in np.moveaxis(_token_bits(self.tokens), -1, 0):
            subsets += [subset | bit for subset in subsets]
        if self.orders is None:
            shared = self.contexts
        else:  # each row's prefixes before its token
            shared = _prefix_masks(self.orders)[np.arange(len(self.orders)), self.ranks]
        masks = np.stack(subsets)[..., None] ^ shared
        return masks if dtype is None else masks.astype(dtype, copy=False)


def _checked_rows(tokens) -> tuple[np.ndarray, np.ndarray]:
    """*tokens* checked as rows of one or two distinct token indices below
    64, as ``intp``, and each row's tokens OR-ed into one uint64 mask."""
    tokens = np.asarray(tokens)
    if tokens.shape[-1:] not in ((1,), (2,)):
        raise ValueError("extensions: tokens need a last axis of one or two tokens per row")
    if tokens.dtype.kind not in "iu" or np.any((tokens < 0) | (tokens >= MAX_TOKENS)):
        raise ValueError(f"extensions: tokens must be integers in [0, {MAX_TOKENS})")
    tokens = tokens.astype(np.intp)
    bits = _token_bits(tokens)
    mask = bits[..., 0] | bits[..., -1]  # one bit for a row of one token
    if np.any(np.bitwise_count(mask) != tokens.shape[-1]):
        raise ValueError("extensions: a row repeats a token")
    return tokens, mask


def _token_bits(tokens: np.ndarray) -> np.ndarray:
    """The single-bit mask of each token index below 64."""
    return np.left_shift(np.uint64(1), tokens.astype(np.uint64))


def _prefix_masks(orders: np.ndarray) -> np.ndarray:
    """The masks of the n + 1 prefixes of each of the K *orders*, shape
    ``(K, n + 1)``: column p is the set of the first p tokens."""
    k, n = orders.shape
    prefixes = np.zeros((k, n + 1), dtype=np.uint64)
    np.bitwise_or.accumulate(_token_bits(orders), axis=1, out=prefixes[:, 1:])
    return prefixes


def _extension_values(game, extensions: Extensions, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Each row's context value and difference on every pool entry of
    *extensions*, shape ``tokens.shape[:-1] + (K,)``, from the tables *game*
    gives its pool; a refusal names *name*.

    The tables are kept on the game for the next call with the same pool:
    the blocks of one family, and the token and pair rows on one pool of
    words, read one set.  A row's context value is the table entry its held
    tokens select, ``v_0`` when the word holds none of them and ``v_ab``
    when it holds both, or the value of the prefix before its token; its
    difference is ``(v_a - v_0) s_a``, ``(((v_ab - v_a) - v_b) + v_0) s_a
    s_b``, or the value of the prefix through its token less the context's.
    """
    tokens, orders = extensions.tokens, extensions.orders
    if tokens.size and tokens.max() >= game.n:
        raise ValueError(f"{name}: token {tokens.max()} of an extension for a game of {game.n}")
    if orders is not None and orders.shape[1] > game.n:
        raise ValueError(f"{name}: orders of {orders.shape[1]} tokens for a game of {game.n}")
    pool = extensions.contexts if orders is None else orders
    # one read, so a concurrent call cannot swap another pool's tables in
    last = game._pool
    if last[0] is pool:
        tables = last[1]
    else:
        tables = _word_tables(game, extensions) if orders is None else game._prefix_values(orders)
        game._pool = (pool, tables)
    if orders is not None:
        entries, ranks = np.arange(tables.shape[0]), extensions.ranks
        context = tables[entries, ranks]
        return context, tables[entries, ranks + 1] - context
    a = tokens[..., 0]
    with_a, held_a = tables.toggled.take(a, axis=0), tables.held.take(a, axis=0)
    context_a = np.where(held_a, with_a, tables.values)
    if tokens.shape[-1] == 1:
        difference = with_a - tables.values
        difference *= tables.signs.take(a, axis=0)
        return context_a, difference
    b = tokens[..., 1]
    with_b, held_b = tables.toggled.take(b, axis=0), tables.held.take(b, axis=0)
    sign = tables.signs.take(a, axis=0)
    sign *= tables.signs.take(b, axis=0)
    with_both = game._pair_values(extensions, tables, sign)
    difference = with_both - with_a
    difference -= with_b
    difference += tables.values
    difference *= sign
    # the context is the word with its held tokens toggled: a's context on
    # a word without b, else v_b, or v_ab on a word that holds a too
    return np.where(held_b, np.where(held_a, with_both, with_b), context_a), difference


def _word_tables(game, extensions: Extensions) -> _WordTables:
    """What every row of a pool of words shares (``_WordTables``), from one
    unpack of the words to the game's n tokens: it gives the held bits and
    the signs, and *game* forms the values of the words and of their
    one-token toggles from the words and that unpack.  No bit at or above n
    is unpacked, so the tables depend on the words and the game alone, not
    on the rows the pool serves."""
    members = token_members(extensions.contexts, game.n)
    held = np.ascontiguousarray(members.T).view(bool)
    signs = 1.0 - 2.0 * held
    values, toggled, pair = game._word_values(extensions, members, signs)
    return _WordTables(values, toggled, signs, held, pair)


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
        check_table(arr)
        arr.flags.writeable = False
        self._values = arr
        self._pool: tuple = (None,)  # (pool, its tables) of the last pool
        self.n = n

    def values_by_mask(self, masks: np.ndarray | Extensions):
        """The values of integer *masks*, in their shape, or of an
        ``Extensions``, each row's (context value, difference) on every
        pool entry, from the lookups of its pool's tables."""
        if isinstance(masks, Extensions):
            return _extension_values(self, masks, "tabular game")
        return self._lookup(_integer_masks(masks, "tabular game").astype(np.uint64, copy=False))

    def _lookup(self, coalitions: np.ndarray) -> np.ndarray:
        """The values of uint64 masks; a mask with a bit at or above n is
        refused."""
        top = int(coalitions.max()) if coalitions.size else 0
        if top >> self.n:
            raise ValueError(f"tabular game: token {top.bit_length() - 1} of a coalition for a game of {self.n}")
        return self._values[coalitions]

    def _word_values(self, extensions: Extensions, members: np.ndarray, signs: np.ndarray) -> tuple:
        """``v_0 = table[w]`` of every word, checked to hold no token past
        n, ``v_t = table[w ^ bit_t]``, and the words for ``_pair_values``; a
        lookup needs neither the words' *members* nor their *signs*."""
        words = extensions.contexts
        values = self._lookup(words)
        return values, self._values[words ^ _token_bits(np.arange(self.n))[:, None]], words

    def _pair_values(self, extensions: Extensions, tables: _WordTables, sign: np.ndarray) -> np.ndarray:
        """``v_ab = table[w ^ bit_a ^ bit_b]`` of each pair row on every word."""
        return self._values[tables.pair ^ extensions.mask[..., None]]

    def _prefix_values(self, orders: np.ndarray) -> np.ndarray:
        """The values of the n + 1 prefixes of each of the K *orders*, shape
        ``(K, n + 1)``."""
        return self._values[_prefix_masks(orders)]

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

    A game holds its projected rows, their Gram matrix and the tables of
    the last pool it evaluated.  Plain masks are unpacked into a ``(B,
    n)`` 0/1 membership, and their sums are the one matrix product
    ``members @ projected``; mask bits at or above ``n`` are never read and
    so do not change the value.  The product is the BLAS one, whose
    rounding may differ in the last bits between batches of different sizes.

    An ``Extensions`` is evaluated from quantities shared by all of its rows
    and formed once per pool, so each coalition then costs O(1); a token at
    or above ``n`` is refused:

    * contexts: with ``S_k`` the sum of word k, ``q0 = |S_k|^2``, the sign
      ``s_t = 1 - 2 b_t`` of each token's bit ``b_t`` in the word, the Gram
      matrix ``G = X X^T`` (formed once per game) and ``h_t = 2 s_t x_t.S_k
      + G_tt``, toggling token t gives the squared norm ``|S_k + s_t x_t|^2 =
      q0 + h_t``.  The values ``v_0`` of every word and ``v_t`` of every
      word with each token t toggled are formed with the pool, so a row of
      one token a reads its difference ``(v_a - v_0) s_a`` from them; a row
      of two tokens a, b forms one new squared norm per word, ``q0 + h_a +
      h_b + 2 (s_a s_b) G_ab``, added in that order, and one root, ``v_ab``,
      and its difference is ``(((v_ab - v_a) - v_b) + v_0) s_a s_b``, with
      the sign product the cross term forms.  A row's context value is the
      one of these values its held tokens select: ``v_0`` when the word
      holds none of them, ``v_ab`` when it holds both.
    * orders: the values of the n + 1 prefixes of each order, whose sums run
      along it; row r's context value is that of the prefix before its
      token, and its difference the value of the one through it less that.

    Plain masks, and the pool words themselves (coalition 0 of their
    rows), get ``q0``: exactly the squared norm of the member-matmul sum;
    the sum of the empty word is exactly 0, and a toggle that empties a word
    (of the tokens below n, the word holds just the toggled ones, which
    only words of one or two tokens can) is set to 0, so the empty
    coalition is worth exactly 0.  A prefix is summed along its order,
    which rounds otherwise than the member-matmul sum of the same mask,
    and from the same sums the pooled form of a coalition rounds otherwise
    than the direct squared norm: the two differ by at most
    ``2 (d_v + f^2 + 2 f + 4) eps M^2``
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
    terms.  As the square root and both nonlinearities move a value by at
    most the root of a gap in its squared norm, a row's context value lies
    within the root ``r`` of that bound of the direct one, and its
    difference, an alternating sum of ``2**f`` values each at most ``M``,
    within ``2**f (r + 2**f eps M)``.

    Calls may run concurrently, as the module docstring says of both games.
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
        self._pool: tuple = (None,)  # (pool, its tables) of the last pool
        self.nonlinearity = nonlinearity
        self.n = n

    def values_by_mask(self, masks: np.ndarray | Extensions):
        """The values of integer *masks*, in their shape, or of an
        ``Extensions``, each row's (context value, difference) on every
        pool entry, formed as the class docstring describes."""
        if isinstance(masks, Extensions):
            return _extension_values(self, masks, "embedding game")
        masks = _integer_masks(masks, "embedding game")
        squared = self._sums(token_members(masks, self.n))[1]
        return self._finish(squared.reshape(masks.shape))

    def _finish(self, squared: np.ndarray) -> np.ndarray:
        """The values of squared norms, formed in place."""
        norms = np.sqrt(np.maximum(squared, 0.0, out=squared), out=squared)
        if self.nonlinearity == "tanh":  # relu, like identity, keeps the norms
            np.tanh(norms, out=norms)
        return norms

    def _word_values(self, extensions: Extensions, members: np.ndarray, signs: np.ndarray) -> tuple:
        """``v_0`` of every word, ``v_t`` of every word with each token t
        toggled, and what ``_pair_values`` reads: the squared norms ``q0 +
        h_t``, the ``h_t``, and the indices of the words of two tokens, with
        those words.  Every word is read as its n bits alone, as a plain mask
        is: it is summed from *members*, the ``(K, n)`` unpack of those bits
        that ``_word_tables`` forms once per pool, by the route plain masks
        take, so its value is its plain mask's, and a toggle empties it when
        its n bits are the toggled tokens."""
        words = extensions.contexts & np.uint64((1 << self.n) - 1)
        s, squares = self._sums(members)
        h = self.projected @ s.T  # x_t.S_k
        h *= 2.0
        h *= signs
        h += np.diagonal(self._gram)[:, None]
        toggled_squares = h + squares
        toggled = self._finish(toggled_squares.copy())
        # the word of the one token t toggles to the empty coalition
        toggled[words == _token_bits(np.arange(self.n))[:, None]] = 0.0
        doubles = np.flatnonzero(np.bitwise_count(words) == 2)
        return self._finish(squares), toggled, (toggled_squares, h, doubles, words[doubles])

    def _pair_values(self, extensions: Extensions, tables: _WordTables, sign: np.ndarray) -> np.ndarray:
        """``v_ab`` of each pair row on every word, from one new squared norm
        ``q0 + h_a + h_b + 2 (s_a s_b) G_ab`` with *sign* ``s_a s_b``."""
        toggled_squares, h, doubles, double_words = tables.pair
        a, b = extensions.tokens[..., 0], extensions.tokens[..., 1]
        with_both = toggled_squares.take(a, axis=0)
        with_both += h.take(b, axis=0)
        with_both += sign * (2.0 * self._gram[a, b][..., None])
        if doubles.size:
            # a word of just the row's two tokens toggles to the empty coalition
            emptied = double_words == extensions.mask[..., None]
            with_both[..., doubles] = np.where(emptied, 0.0, with_both[..., doubles])
        return self._finish(with_both)

    def _prefix_values(self, orders: np.ndarray) -> np.ndarray:
        """The values of the n + 1 prefixes of each of the K *orders*, shape
        ``(K, n + 1)``."""
        k, n = orders.shape
        width = self.projected.shape[1]
        running, gathered = np.zeros((k, width)), np.empty((k, width))
        squared = np.zeros((k, n + 1))
        for place in range(n):
            running += self.projected.take(orders[:, place], axis=0, out=gathered, mode="clip")
            squared[:, place + 1] = np.einsum("ij,ij->i", running, running)
        return self._finish(squared)

    def _sums(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The coalition sums ``members @ projected`` of a ``(B, n)``
        membership, and their squared norms, shape ``(B,)``: the one route
        by which plain masks and pool words are summed."""
        sums = members @ self.projected
        return sums, np.einsum("ij,ij->i", sums, sums)


class _WordTables(NamedTuple):
    """What every row of a pool of K words shares: the words' values ``v_0``,
    shape ``(K,)``; of shape ``(n, K)``, the values ``v_t`` of each word with
    each token t toggled, the signs ``s_t``, the bits ``b_t`` (``held[t,
    k]`` tells whether word k holds token t); and what the game's
    ``_pair_values`` reads.  Every bit a game reads of the words is here,
    unpacked once per pool to the game's n tokens."""

    values: np.ndarray
    toggled: np.ndarray
    signs: np.ndarray
    held: np.ndarray
    pair: object


def _integer_masks(masks, name: str) -> np.ndarray:
    """*masks* as an integer array; float and bool masks are refused with a
    ValueError naming *name*, not truncated to the integers below them."""
    masks = np.asarray(masks)
    if masks.dtype.kind not in "iu":
        raise ValueError(f"{name}: masks must be integers, got {masks.dtype}")
    return masks


def token_members(masks: np.ndarray, n: int) -> np.ndarray:
    """The ``(masks.size, n)`` uint8 membership of integer *masks*: entry
    ``[b, i]`` is bit ``i`` of the b-th mask in C order.  Bits at or above
    *n* are never read."""
    # byte j of a little-endian 64-bit mask holds the bits of tokens 8j..8j+7
    mask_bytes = np.ascontiguousarray(masks, dtype="<u8").reshape(-1).view(np.uint8)
    return np.unpackbits(mask_bytes.reshape(-1, 8), axis=1, count=n, bitorder="little")


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
    require_finite(
        lambda: 4.0 * np.sum(np.sqrt(np.einsum("ij,ij->i", projected, projected))) ** 2,
        f"{name}: coalition norms overflow float64 with these embeddings "
        "(4 * (sum of the projected rows' norms)**2 is not finite)",
    )
    return projected


def check_table(table: np.ndarray, name: str = "tabular game") -> None:
    """Raise ValueError, naming *name*, when the finite ``2**n`` values in
    *table* do not make a game the engine can value: the empty coalition
    must be worth exactly 0, and no difference of values may overflow
    float64.

    Every slot's differences have absolute values summing to at most
    ``S = sum |v|``, and each one is at most ``4 max |v|``, so a finite
    ``4 n S`` keeps every difference, every average of differences and the
    sum of the n Shapley values finite.
    """
    if table[0] != 0.0:
        raise ValueError(f"{name}: empty coalition must have value 0, got {table[0]}")
    n = table.size.bit_length() - 1
    require_finite(
        lambda: 4.0 * n * np.sum(np.abs(table)),
        f"{name}: value differences overflow float64 (4 * n * (sum of |values|) is not finite)",
    )


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
    size = 1 << game.n
    out = np.empty(size, dtype=np.float64)
    for start in range(0, size, _TABULATE_CHUNK):
        stop = min(start + _TABULATE_CHUNK, size)
        out[start:stop] = game.values_by_mask(np.arange(start, stop, dtype=np.uint64))
    return out

