"""Exhaustive ground truth for every estimated quantity.

All oracles enumerate the relevant combinatorial family outright, so they are
only usable at small ``n``; each refuses beyond its limit with an explicit
``EnumerationLimitError`` before it evaluates anything.  There are two limits:

* the game oracles ``exact_table``, ``exact_game_values``,
  ``exact_gibbs_tilted_values``, ``exact_and_tilted_values`` and
  ``exact_banzhaf``: the table type's ``games.TABULAR_MAX_TOKENS`` (20),
  where one call takes well under a second;
* ``exact_spin_marginals``: ``SPIN_ENUM_LIMIT`` (16), because its ``2**n x n``
  spin matrix and energies take about 0.5 GB at 20 spins.

The game oracles share one walk over the game's table, which is indexed by
coalition mask (``_walk``).  Reshaped to ``(-1, 2, 2**i)``, an array indexed
by mask holds the masks without bit i and those with it as two views, each
in increasing mask order (``_split``).  Token i's difference row
``v(C+i) - v(C)`` over its contexts C is indexed by C with bit i removed, so
token j > i is bit j-1 of the row: splitting the row there gives the pair's
second differences ``(v(C+i+j) - v(C+j)) - (v(C+i) - v(C))``.  The walk forms
each token's difference row once and writes its pairs' rows, j > i, in
chunks of at most ``_PAIR_CHUNK`` (2) rows into two reused buffers, the
second differences and their log-weights; each chunk is reduced along its
rows, for the exact and for the tilted values at once.  No oracle filters
the ``2**n`` masks, and every row lives in a buffer reused by every token,
so a call holds under three tables' worth of rows: at 16 tokens the traced
peak of ``exact_and_tilted_values`` is 2.8 tables, and ``reports.run_oracle``
with its own copy of the table stays under four.  Chunks of four rows would
hold one table more, for a walk about 13% faster at 12 tokens.
Each game oracle tabulates the game once, through ``exact_table``, so a call
costs ``2**n`` characteristic evaluations.  Given a ``TabularGame`` they
evaluate nothing, so a caller that needs several passes them the table from
``exact_table``; ``exact_and_tilted_values`` gives both kinds of value from
one table and one walk.

``exact_spin_marginals`` copies the ``2**(n-1)`` "up" log-weights of every
spin into one ``(n, 2**(n-1))`` array and reduces it along its rows with one
``_logsumexp``.

Partition sums are always formed in log space so the oracle is never the
numerically fragile side of a comparison.  ``_logsumexp`` is the formula of
``scipy.special.logsumexp`` (Blanchard, Higham & Higham, *Accurately
computing the log-sum-exp and softmax functions*, IMA J. Numer. Anal. 41(4),
2021), ``log1p(s/m) + log(m) + max``, where ``m`` counts the entries at the
maximum and ``s`` sums ``exp(a - max)`` over the others; it gives scipy's
bits on finite input without importing scipy, which would double the cold
start of every command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorConfig
from .games import TABULAR_MAX_TOKENS, GameValues, TabularGame, tabulate, token_members
from .linalg import over_temperature, require_finite
from .meanfield import MeanFieldConfig, check_spin_system

__all__ = [
    "SPIN_ENUM_LIMIT",
    "EnumerationLimitError",
    "ExactSpinMarginals",
    "require_limit",
    "exact_banzhaf",
    "exact_table",
    "exact_game_values",
    "exact_gibbs_tilted_values",
    "exact_and_tilted_values",
    "exact_spin_marginals",
]

SPIN_ENUM_LIMIT = 16

# pair rows a game oracle writes and reduces at once (the module docstring)
_PAIR_CHUNK = 2


class EnumerationLimitError(Exception):
    """Raised when an oracle is asked to enumerate past its size limit."""


def require_limit(n: int, spins: bool = False) -> None:
    """Refuse *n* tokens past the game oracles' limit, or, with *spins*, an
    *n*-spin system past ``exact_spin_marginals``' limit."""
    if spins:
        limit, what = SPIN_ENUM_LIMIT, "exact spin marginals"
    else:
        limit, what = TABULAR_MAX_TOKENS, "exact game values"
    if n > limit:
        raise EnumerationLimitError(
            f"{what}: exact enumeration supports at most {limit} tokens, got {n}"
        )


def _require_token(game, i: int) -> None:
    if not 0 <= i < game.n:
        raise ValueError(f"token index {i} out of range for n={game.n}")


@dataclass(frozen=True)
class ExactSpinMarginals:
    """Exact spin expectations and activation probabilities.

    ``alphas[i]`` is the marginal probability of spin i being +1 under the
    Gibbs distribution; ``expected_spins`` is ``2*alphas - 1``.
    """

    expected_spins: np.ndarray
    alphas: np.ndarray
    log_partition: float


def _split(values: np.ndarray, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of *values*, an array indexed by mask, at the masks
    without *bit* and at those with it: two ``(-1, 2**bit)`` views, each
    indexed by its masks with *bit* removed, so their C-order flattenings
    list the masks in increasing order."""
    halves = values.reshape(-1, 2, 1 << bit)
    return halves[:, 0], halves[:, 1]


def _token_row(table: np.ndarray, i: int, out: np.ndarray) -> np.ndarray:
    """Write into the flat row *out* token i's difference row ``v(C+i) -
    v(C)`` over its contexts C, the masks without it, and return their values
    ``v(C)`` as a ``_split`` view; both in increasing mask order."""
    base, with_i = _split(table, i)
    np.subtract(with_i, base, out=out.reshape(base.shape))
    return base


def _pair_row(deltas: np.ndarray, j: int, out: np.ndarray) -> None:
    """Write into the flat row *out* the second differences ``(v(C+i+j) -
    v(C+j)) - (v(C+i) - v(C))`` of token j > i over the contexts excluding
    both, from token i's difference row, in which token j is bit ``j - 1``."""
    without, with_j = _split(deltas, j - 1)
    np.subtract(with_j, without, out=out.reshape(with_j.shape))


def _shapley_weights(n: int) -> np.ndarray:
    """Permutation-average weight of each context excluding one token, in
    increasing mask order: ``1/(n C(n-1, s))`` for a context of size s."""
    per_size = np.array([1 / (n * math.comb(n - 1, s)) for s in range(n)])
    # those contexts have the sizes of the (n-1)-bit masks in increasing order
    return per_size[np.bitwise_count(np.arange(1 << (n - 1), dtype=np.int64))]


def exact_banzhaf(game, i: int) -> float:
    """Exact Banzhaf index: mean marginal contribution over all coalitions
    excluding token i, each equally likely."""
    _require_token(game, i)
    base, with_i = _split(exact_table(game).table, i)
    return float(np.mean((with_i - base).reshape(-1)))


def exact_table(game) -> TabularGame:
    """The game as a table for the exact oracles, built with ``2**n``
    evaluations; a ``TabularGame`` is returned as it is.

    Past ``games.TABULAR_MAX_TOKENS`` tokens it refuses before evaluating
    any coalition; every game oracle builds its table here.
    """
    require_limit(game.n)
    return game if isinstance(game, TabularGame) else TabularGame(tabulate(game))


def _tilted_average(log_weights: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """The ``exp(log_weights)``-weighted average of each row of *deltas*,
    both ``(rows, contexts)``; *log_weights* is overwritten with the
    normalized weights."""
    log_weights -= np.maximum.reduce(log_weights, axis=-1, keepdims=True)
    w = np.exp(log_weights, out=log_weights)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    return np.vecdot(w, deltas)


def _walk(table: np.ndarray, gamma: float | None = None) -> tuple[GameValues, GameValues | None]:
    """The exact values of the game *table* and, given *gamma*, its tilted
    values, from one pass over the table (the module docstring).

    The chunks reduce with the ufuncs' own ``reduce``, for the bits of
    ``np.mean`` and ``np.max``: at 12 tokens a pair row is 1,024 contexts,
    and those functions' Python wrappers added about 15% to the walk."""
    n = table.size.bit_length() - 1
    weights = _shapley_weights(n)
    shapley, banzhaf, interactions = np.empty(n), np.empty(n), np.zeros((n, n))
    tilted, tilted_interactions = np.empty(n), np.zeros((n, n))
    # rows reused by every token: its differences and their log-weights, and
    # a chunk's pairs' second differences and their log-weights
    deltas, log_weights = np.empty((2, table.size >> 1))
    pairs, pair_weights = np.empty((2, _PAIR_CHUNK, table.size >> 2))
    for i in range(n):
        base = _token_row(table, i, deltas)
        shapley[i] = np.dot(weights, deltas)
        banzhaf[i] = np.mean(deltas)
        if gamma is not None:
            np.divide(base, gamma, out=log_weights.reshape(base.shape))
        for start in range(i + 1, n, _PAIR_CHUNK):
            chunk = slice(start, min(start + _PAIR_CHUNK, n))
            rows, row_weights = pairs[: chunk.stop - start], pair_weights[: chunk.stop - start]
            for r, j in enumerate(range(start, chunk.stop)):
                _pair_row(deltas, j, rows[r])
                if gamma is not None:
                    np.copyto(row_weights[r].reshape(-1, 1 << (j - 1)), _split(log_weights, j - 1)[0])
            interactions[i, chunk] = interactions[chunk, i] = np.add.reduce(rows, axis=-1) / rows.shape[-1]
            if gamma is not None:
                tilted_interactions[i, chunk] = tilted_interactions[chunk, i] = _tilted_average(row_weights, rows)
        if gamma is not None:  # after the pairs, which read token i's log-weights
            tilted[i] = _tilted_average(log_weights[None], deltas[None])[0]
    tilted_values = None if gamma is None else GameValues(tilted, tilted, tilted_interactions)
    return GameValues(shapley, banzhaf, interactions), tilted_values


def exact_game_values(game) -> GameValues:
    """Exact Shapley and Banzhaf value of every token and interaction
    potential of every pair.

    The Shapley value is the subset-weighted closed form, identical to the
    average of the marginal contributions over all ``n!`` token orderings.
    """
    return _walk(exact_table(game).table)[0]


def exact_and_tilted_values(game, gamma: float) -> tuple[GameValues, GameValues]:
    """``exact_game_values(game)`` and ``exact_gibbs_tilted_values(game,
    gamma)`` from one table and one pass over it, with the checks of
    ``exact_gibbs_tilted_values``."""
    EstimatorConfig(gamma=gamma)  # the run setting's one check
    table = exact_table(game).table
    # the grand coalition is the context of no slot, so its v / gamma may overflow
    over_temperature(table[:-1], gamma, "coalition_gamma")
    # the table keeps every difference and v / gamma finite, so only a
    # log-weight's shift by its slot's max can overflow: to -inf, a weight
    # of exactly 0
    with np.errstate(over="ignore"):
        return _walk(table, gamma)


def exact_gibbs_tilted_values(game, gamma: float) -> GameValues:
    """Exact limits of the Gibbs-weighted estimators at coalition
    temperature *gamma*: the ``exp(v(C)/gamma)``-tilted average of each
    slot's differences over its contexts C.

    ``banzhaf`` and ``interactions`` are the limits of the Bernoulli
    estimators, whose proposal is uniform over the contexts, so the
    self-normalized estimator converges to the tilted average.  ``shapley``,
    the limit of the permutation-prefix estimator, is the same array as
    ``banzhaf``: its sampler draws a prefix set P with probability
    ``q(P) = 1/(n C(n-1, |P|))`` while the importance weight divides by
    ``p(P) = 1/C(n-1, |P|)``, and the constant 1/n between them cancels
    under self-normalization, so the prefix limit is the tilted Banzhaf
    value.  In ``gibbs`` mode ``estimate_all(...).shapley`` and
    ``.banzhaf`` therefore estimate one quantity, and the pipeline's
    lambda-blend averages two estimators of one value.

    Raises ``ValueError`` naming ``coalition_gamma`` unless *gamma* is a
    positive finite number (a bool or a string is not one), and
    ``linalg.TemperatureError`` when a context's ``v(C) / gamma`` overflows.
    """
    return exact_and_tilted_values(game, gamma)[1]


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a)))`` along the last axis of a finite float64 array,
    with the bits of ``scipy.special.logsumexp``: with ``m`` entries at the
    maximum and ``s`` the sum of ``exp(a - max)`` over the others,
    ``log1p(s/m) + log(m) + max``.  Keeping the maximal terms out of ``s``
    keeps the ``log1p`` accurate when they dominate the sum."""
    a_max = np.max(a, axis=-1, keepdims=True)
    at_max = a == a_max
    m = np.sum(at_max, axis=-1, dtype=np.float64)
    # a shift past float64's range is -inf, whose term is exactly 0
    with np.errstate(over="ignore"):
        shifted = a - a_max
    shifted[at_max] = -np.inf
    s = np.sum(np.exp(shifted, out=shifted), axis=-1)
    return np.log1p(s / m) + np.log(m) + a_max[..., 0]


def exact_spin_marginals(fields, couplings, gamma: float) -> ExactSpinMarginals:
    """Exact Gibbs marginals of the spin system by full enumeration.

    The energies of the ``2**n`` configurations S, as rows of +-1, are
    ``-(S @ fields) - 0.5 * vecdot(S @ couplings, S)``.  The partition
    function and the per-spin restricted sums are accumulated in log space;
    ``alphas[i]`` is ``exp(logZ_{s_i=+1} - logZ)``, whose sum runs over the
    configurations with bit i set (``_split``).

    Raises ``ValueError`` naming the fields and couplings when an energy
    could overflow float64, which no temperature mends: every ``|H(S)|``,
    and every partial sum of the matrix products that form it, is at most
    ``sum_i |J_i| + sum_{i,j} |J_ij|``, so a finite bound keeps them all
    finite.  A *gamma* that is not a positive finite number raises
    ``ValueError`` naming ``spin_gamma``, and an overflowing
    ``-H(S)/gamma`` ``linalg.TemperatureError``.
    """
    fields, couplings = check_spin_system(fields, couplings)
    MeanFieldConfig(gamma=gamma)  # the run setting's one check
    n = fields.size
    require_limit(n, spins=True)
    require_finite(
        lambda: np.sum(np.abs(fields)) + np.sum(np.abs(couplings)),
        "fields, couplings: spin energies overflow float64 (sum of |fields| + sum of |couplings| is not finite)",
    )

    spins = 2.0 * token_members(np.arange(1 << n, dtype=np.uint64), n) - 1.0
    energies = -(spins @ fields) - 0.5 * np.vecdot(spins @ couplings, spins)
    log_weights = over_temperature(-energies, gamma, "spin_gamma")

    log_z = float(_logsumexp(log_weights))
    # spin i is up in the configurations with bit i set: row i
    ups = np.empty((n, log_weights.size >> 1))
    for i, up in enumerate(ups):
        np.copyto(up.reshape(-1, 1 << i), _split(log_weights, i)[1])
    # math.exp, not np.exp, whose last bits differ
    alphas = np.array([math.exp(log_up - log_z) for log_up in _logsumexp(ups).tolist()])
    expected = 2.0 * alphas - 1.0
    return ExactSpinMarginals(expected_spins=expected, alphas=alphas, log_partition=log_z)
