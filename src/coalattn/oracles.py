"""Exhaustive ground truth for every estimated quantity.

All oracles enumerate the relevant combinatorial family outright, so they are
only usable at small ``n``; each refuses beyond its limit with an explicit
``EnumerationLimitError`` before it evaluates anything.  There are two limits:

* the game oracles ``exact_table``, ``exact_game_values``,
  ``exact_gibbs_tilted_values`` and ``exact_banzhaf``: the table type's
  ``games.TABULAR_MAX_TOKENS`` (20), where one call takes well under a second;
* ``exact_spin_marginals``: ``SPIN_ENUM_LIMIT`` (16), because its ``2**n x n``
  spin matrix and energies take about 0.5 GB at 20 spins.

Every game oracle makes one pass per token over the game's table, which is
indexed by coalition mask.  Reshaped to ``(-1, 2, 2**i)``, an array indexed
by mask holds the masks without bit i and those with it as two views, each
in increasing mask order (``_split``).  Token i's difference row
``v(C+i) - v(C)`` over its contexts C is indexed by C with bit i removed, so
token j > i is bit j-1 of the row: splitting the row there gives the pair's
second differences ``(v(C+i+j) - v(C+j)) - (v(C+i) - v(C))``.  No oracle
filters the ``2**n`` masks or stacks the rows of several tokens, so a call
holds about two tables' worth of rows at most.
Each game oracle tabulates the game once, through ``exact_table``, so a call
costs ``2**n`` characteristic evaluations.  Given a ``TabularGame`` they
evaluate nothing, so a caller that needs several passes them the table from
``exact_table``.

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
from .linalg import over_temperature
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
    "exact_spin_marginals",
]

SPIN_ENUM_LIMIT = 16


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


def _token_row(table: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The values ``v(C)`` of token i's contexts C, the masks without it, as
    a ``_split`` view, and its difference row ``v(C+i) - v(C)``, flat; both
    in increasing mask order."""
    base, with_i = _split(table, i)
    return base, (with_i - base).reshape(-1)


def _pair_row(deltas: np.ndarray, j: int) -> np.ndarray:
    """The second differences ``(v(C+i+j) - v(C+j)) - (v(C+i) - v(C))`` of
    token j > i over the contexts excluding both, from token i's difference
    row, in which token j is bit ``j - 1``."""
    without, with_j = _split(deltas, j - 1)
    return (with_j - without).reshape(-1)


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
    return float(np.mean(_token_row(exact_table(game).table, i)[1]))


def exact_table(game) -> TabularGame:
    """The game as a table for the exact oracles, built with ``2**n``
    evaluations; a ``TabularGame`` is returned as it is.

    Past ``games.TABULAR_MAX_TOKENS`` tokens it refuses before evaluating
    any coalition; every game oracle builds its table here.
    """
    require_limit(game.n)
    return game if isinstance(game, TabularGame) else TabularGame(tabulate(game))


def exact_game_values(game) -> GameValues:
    """Exact Shapley and Banzhaf value of every token and interaction
    potential of every pair.

    The Shapley value is the subset-weighted closed form, identical to the
    average of the marginal contributions over all ``n!`` token orderings.
    """
    n = game.n
    table = exact_table(game).table
    weights = _shapley_weights(n)
    shapley, banzhaf, interactions = np.empty(n), np.empty(n), np.zeros((n, n))
    for i in range(n):
        deltas = _token_row(table, i)[1]
        shapley[i] = np.dot(weights, deltas)
        banzhaf[i] = np.mean(deltas)
        for j in range(i + 1, n):
            interactions[i, j] = interactions[j, i] = np.mean(_pair_row(deltas, j))
    return GameValues(shapley, banzhaf, interactions)


def _tilted_average(log_weights: np.ndarray, deltas: np.ndarray) -> float:
    w = log_weights - np.max(log_weights)
    w = np.exp(w, out=w).reshape(-1)
    w /= w.sum()
    return float(np.dot(w, deltas))


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
    EstimatorConfig(gamma=gamma)  # the run setting's one check
    n = game.n
    table = exact_table(game).table
    # the grand coalition is the context of no slot, so its v / gamma may overflow
    over_temperature(table[:-1], gamma, "coalition_gamma")
    banzhaf, interactions = np.empty(n), np.zeros((n, n))
    # the table keeps every difference and v / gamma finite, so only a
    # log-weight's shift by its slot's max can overflow: to -inf, a weight
    # of exactly 0
    with np.errstate(over="ignore"):
        for i in range(n):
            base, deltas = _token_row(table, i)
            log_weights = (base / gamma).reshape(-1)
            banzhaf[i] = _tilted_average(log_weights, deltas)
            for j in range(i + 1, n):
                pair_weights = _split(log_weights, j - 1)[0]
                interactions[i, j] = interactions[j, i] = _tilted_average(pair_weights, _pair_row(deltas, j))
    return GameValues(banzhaf, banzhaf, interactions)


def _logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` of a finite float64 array, with the bits of
    ``scipy.special.logsumexp``: with ``m`` entries at the maximum and ``s``
    the sum of ``exp(a - max)`` over the others, ``log1p(s/m) + log(m) +
    max``.  Keeping the maximal terms out of ``s`` keeps the ``log1p``
    accurate when they dominate the sum."""
    a_max = np.max(a)
    at_max = a == a_max
    m = np.sum(at_max, dtype=np.float64)
    # a shift past float64's range is -inf, whose term is exactly 0
    with np.errstate(over="ignore"):
        shifted = a - a_max
    shifted[at_max] = -np.inf
    s = np.sum(np.exp(shifted, out=shifted))
    return float(np.log1p(s / m) + np.log(m) + a_max)


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
    with np.errstate(over="ignore"):
        bound = float(np.sum(np.abs(fields)) + np.sum(np.abs(couplings)))
    if not math.isfinite(bound):
        raise ValueError(
            "fields, couplings: spin energies overflow float64 "
            "(sum of |fields| + sum of |couplings| is not finite)"
        )

    spins = 2.0 * token_members(np.arange(1 << n, dtype=np.uint64), n) - 1.0
    energies = -(spins @ fields) - 0.5 * np.vecdot(spins @ couplings, spins)
    log_weights = over_temperature(-energies, gamma, "spin_gamma")

    log_z = _logsumexp(log_weights)
    # spin i is up in the configurations with bit i set
    ups = (_split(log_weights, i)[1].reshape(-1) for i in range(n))
    alphas = np.array([math.exp(_logsumexp(up) - log_z) for up in ups])
    expected = 2.0 * alphas - 1.0
    return ExactSpinMarginals(expected_spins=expected, alphas=alphas, log_partition=log_z)
