"""Exhaustive ground truth for every estimated quantity.

All oracles enumerate the relevant combinatorial family outright, so they are
only usable at small ``n``; each refuses beyond its limit with an explicit
message.  The limits are module constants sized so a single call stays within
a few seconds of CPython time:

* ``SHAPLEY_ENUM_LIMIT`` (12): subset-weighted closed form of the Shapley
  value (identical to the permutation average; the literal ``n!`` walk is
  exposed separately for cross-validation and capped much lower because it
  is pure-Python).
* ``SUBSET_ENUM_LIMIT`` (20): Banzhaf and interaction sums over ``2**(n-1)``
  and ``2**(n-2)`` coalitions.
* ``SPIN_ENUM_LIMIT`` (16): full ``2**n`` spin-configuration sums.
* ``TILTED_ENUM_LIMIT`` (16): exact limits of the Gibbs-weighted estimators.

``exact_game_values`` and ``exact_gibbs_tilted_values`` check their limits,
tabulate the game once, and run the per-token and per-pair oracles on that
table, so a call costs ``2**n`` characteristic evaluations.  Given a
``TabularGame`` they evaluate nothing, so a caller that needs both passes
them the table from ``exact_table``.

In ``gibbs`` mode the prefix-sampled Shapley estimator and the Bernoulli
Banzhaf estimator converge to the same tilted average (see
``exact_tilted_shapley_prefix``), so ``shapley_hat`` and ``banzhaf_hat``
estimate one quantity and the pipeline's lambda-blend averages two estimators
of one value.

Partition sums are always formed in log space so the oracle is never the
numerically fragile side of a comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .games import GibbsTarget, TabularGame, tabulate
from .meanfield import check_spin_system

__all__ = [
    "SHAPLEY_ENUM_LIMIT",
    "PERMUTATION_ENUM_LIMIT",
    "SUBSET_ENUM_LIMIT",
    "SPIN_ENUM_LIMIT",
    "TILTED_ENUM_LIMIT",
    "EnumerationLimitError",
    "ExactGameValues",
    "ExactSpinMarginals",
    "exact_shapley",
    "exact_shapley_by_permutations",
    "exact_banzhaf",
    "exact_interaction",
    "exact_table",
    "exact_game_values",
    "exact_tilted_shapley_prefix",
    "exact_tilted_banzhaf",
    "exact_tilted_interaction",
    "exact_gibbs_tilted_values",
    "hamiltonian",
    "exact_spin_marginals",
]

SHAPLEY_ENUM_LIMIT = 12
PERMUTATION_ENUM_LIMIT = 10
SUBSET_ENUM_LIMIT = 20
SPIN_ENUM_LIMIT = 16
TILTED_ENUM_LIMIT = 16


class EnumerationLimitError(Exception):
    """Raised when an oracle is asked to enumerate past its size limit."""


def _require_limit(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise EnumerationLimitError(
            f"{what}: exact enumeration supports at most {limit} tokens, got {n}"
        )


def _require_token(game, i: int) -> None:
    if not 0 <= i < game.n:
        raise ValueError(f"token index {i} out of range for n={game.n}")


@dataclass(frozen=True)
class ExactGameValues:
    """Exact Shapley vector, Banzhaf vector, and interaction matrix."""

    shapley: np.ndarray
    banzhaf: np.ndarray
    interactions: np.ndarray


@dataclass(frozen=True)
class ExactSpinMarginals:
    """Exact spin expectations and activation probabilities.

    ``alphas[i]`` is the marginal probability of spin i being +1 under the
    Gibbs distribution; ``expected_spins`` is ``2*alphas - 1``.
    """

    expected_spins: np.ndarray
    alphas: np.ndarray
    log_partition: float


def _masks_excluding(n: int, *tokens: int) -> np.ndarray:
    """All coalition masks over n tokens containing none of *tokens*."""
    masks = np.arange(1 << n, dtype=np.int64)
    keep = np.ones(masks.size, dtype=bool)
    for t in tokens:
        keep &= (masks & (1 << t)) == 0
    return masks[keep]


def _shapley_size_weights(n: int) -> np.ndarray:
    # weight of a prefix of size s in the permutation average: s!(n-1-s)!/n!
    return np.array(
        [math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n) for s in range(n)]
    )


def exact_shapley(game, i: int) -> float:
    """Exact Shapley value of token i.

    Computed by the subset-weighted closed form, which reproduces the
    average marginal contribution over all ``n!`` token orderings exactly;
    see ``exact_shapley_by_permutations`` for the literal enumeration.
    """
    _require_token(game, i)
    _require_limit(game.n, SHAPLEY_ENUM_LIMIT, "exact Shapley value")
    n = game.n
    table = tabulate(game)
    masks = _masks_excluding(n, i)
    sizes = np.bitwise_count(masks)
    weights = _shapley_size_weights(n)[sizes]
    deltas = table[masks | (1 << i)] - table[masks]
    return float(np.dot(weights, deltas))


def exact_shapley_by_permutations(game, i: int) -> float:
    """Shapley value by walking every permutation; cross-check oracle only.

    Pure-Python ``n!`` enumeration, so the cap is tighter than the closed
    form's.
    """
    _require_token(game, i)
    _require_limit(game.n, PERMUTATION_ENUM_LIMIT, "permutation-walk Shapley value")
    n = game.n
    table = tabulate(game)
    bit = 1 << i
    total = 0.0
    for perm in itertools.permutations(range(n)):
        mask = 0
        for t in perm:
            if t == i:
                total += table[mask | bit] - table[mask]
                break
            mask |= 1 << t
    return total / math.factorial(n)


def exact_banzhaf(game, i: int) -> float:
    """Exact Banzhaf index: mean marginal contribution over all coalitions
    excluding token i, each equally likely."""
    _require_token(game, i)
    _require_limit(game.n, SUBSET_ENUM_LIMIT, "exact Banzhaf index")
    table = tabulate(game)
    masks = _masks_excluding(game.n, i)
    deltas = table[masks | (1 << i)] - table[masks]
    return float(np.mean(deltas))


def exact_interaction(game, i: int, j: int) -> float:
    """Exact interaction potential: uniform average of the pairwise second
    difference over all contexts containing neither token."""
    _require_token(game, i)
    _require_token(game, j)
    if i == j:
        raise ValueError("interaction potential: tokens must be distinct")
    _require_limit(game.n, SUBSET_ENUM_LIMIT, "exact interaction potential")
    table = tabulate(game)
    lo, hi = (i, j) if i < j else (j, i)  # keep the sum bitwise-symmetric
    masks = _masks_excluding(game.n, lo, hi)
    bl, bh = 1 << lo, 1 << hi
    deltas = table[masks | bl | bh] - table[masks | bl] - table[masks | bh] + table[masks]
    return float(np.mean(deltas))


def exact_table(game) -> TabularGame:
    """The game as a table for the exact oracles, built with ``2**n``
    evaluations; a ``TabularGame`` is returned as it is.

    Past ``SHAPLEY_ENUM_LIMIT`` tokens it refuses before evaluating any
    coalition, as ``exact_game_values`` does.
    """
    _require_limit(game.n, SHAPLEY_ENUM_LIMIT, "exact Shapley value")
    return game if isinstance(game, TabularGame) else TabularGame(tabulate(game))


def exact_game_values(game) -> ExactGameValues:
    """All exact per-token and per-pair values in one structure."""
    n = game.n
    game = exact_table(game)
    shapley = np.array([exact_shapley(game, i) for i in range(n)])
    banzhaf = np.array([exact_banzhaf(game, i) for i in range(n)])
    interactions = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            val = exact_interaction(game, i, j)
            interactions[i, j] = val
            interactions[j, i] = val
    return ExactGameValues(shapley=shapley, banzhaf=banzhaf, interactions=interactions)


def _tilted_average(log_weights: np.ndarray, deltas: np.ndarray) -> float:
    shifted = log_weights - np.max(log_weights)
    w = np.exp(shifted)
    w /= w.sum()
    return float(np.dot(w, deltas))


def exact_tilted_banzhaf(game, i: int, target: GibbsTarget) -> float:
    """Exact limit of the Gibbs-weighted Banzhaf estimator.

    The Bernoulli proposal is uniform over coalitions excluding i, so the
    self-normalized estimator converges to the exp(v/gamma)-tilted average
    of the marginal contributions over that family.
    """
    _require_token(game, i)
    _require_limit(game.n, TILTED_ENUM_LIMIT, "tilted Banzhaf value")
    table = tabulate(game)
    masks = _masks_excluding(game.n, i)
    base = table[masks]
    deltas = table[masks | (1 << i)] - base
    return _tilted_average(base / target.gamma, deltas)


def exact_tilted_shapley_prefix(game, i: int, target: GibbsTarget) -> float:
    """Exact limit of the Gibbs-weighted permutation-prefix estimator.

    The sampler draws a prefix set P with probability
    ``q(P) = (1/n) * |P|!(n-1-|P|)!/(n-1)!`` while the importance weight
    divides by ``p(P) = |P|!(n-1-|P|)!/(n-1)!``; the two differ only by the
    constant 1/n, which cancels under self-normalization, so this limit in
    fact coincides with the tilted subset average.  Both densities are kept
    explicit here so the oracle mirrors the estimator literally.
    """
    _require_token(game, i)
    _require_limit(game.n, TILTED_ENUM_LIMIT, "tilted prefix-sampled Shapley value")
    n = game.n
    table = tabulate(game)
    masks = _masks_excluding(n, i)
    sizes = np.bitwise_count(masks)
    # proposal probability used in the weight (conditional on prefix size)
    log_p = np.array(
        [
            math.lgamma(s + 1) + math.lgamma(n - s) - math.lgamma(n)
            for s in range(n)
        ]
    )[sizes]
    # actual sampling probability of the prefix set
    log_q = log_p - math.log(n)
    base = table[masks]
    deltas = table[masks | (1 << i)] - base
    return _tilted_average(log_q + base / target.gamma - log_p, deltas)


def exact_tilted_interaction(game, i: int, j: int, target: GibbsTarget) -> float:
    """Exact limit of the Gibbs-weighted interaction estimator."""
    _require_token(game, i)
    _require_token(game, j)
    if i == j:
        raise ValueError("tilted interaction: tokens must be distinct")
    _require_limit(game.n, TILTED_ENUM_LIMIT, "tilted interaction potential")
    table = tabulate(game)
    lo, hi = (i, j) if i < j else (j, i)
    masks = _masks_excluding(game.n, lo, hi)
    bl, bh = 1 << lo, 1 << hi
    base = table[masks]
    deltas = table[masks | bl | bh] - table[masks | bl] - table[masks | bh] + base
    return _tilted_average(base / target.gamma, deltas)


def exact_gibbs_tilted_values(game, target: GibbsTarget) -> ExactGameValues:
    """Tilted counterparts of every per-token and per-pair value."""
    n = game.n
    _require_limit(n, TILTED_ENUM_LIMIT, "tilted prefix-sampled Shapley value")
    game = TabularGame(tabulate(game))
    shapley = np.array([exact_tilted_shapley_prefix(game, i, target) for i in range(n)])
    banzhaf = np.array([exact_tilted_banzhaf(game, i, target) for i in range(n)])
    interactions = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            val = exact_tilted_interaction(game, i, j, target)
            interactions[i, j] = val
            interactions[j, i] = val
    return ExactGameValues(shapley=shapley, banzhaf=banzhaf, interactions=interactions)


def hamiltonian(fields, couplings, spins) -> float:
    """Energy of one spin configuration.

    ``H(S) = -sum_i J_i s_i - sum_{i<j} J_ij s_i s_j`` with every spin
    exactly +1 or -1.
    """
    fields, couplings = check_spin_system(fields, couplings)
    s = np.asarray(spins, dtype=np.float64)
    if s.shape != fields.shape:
        raise ValueError(f"spins: expected length {fields.size}, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("spins: every entry must be exactly +1 or -1")
    # couplings is symmetric with zero diagonal, so s@C@s double-counts pairs
    return float(-(fields @ s) - 0.5 * (s @ couplings @ s))


def exact_spin_marginals(fields, couplings, gamma: float) -> ExactSpinMarginals:
    """Exact Gibbs marginals of the spin system by full enumeration.

    The partition function and the per-spin restricted sums are accumulated
    in log space; ``alphas[i]`` is ``exp(logZ_{s_i=+1} - logZ)``.
    """
    fields, couplings = check_spin_system(fields, couplings)
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    n = fields.size
    _require_limit(n, SPIN_ENUM_LIMIT, "exact spin marginals")

    configs = np.arange(1 << n, dtype=np.uint64)
    bits = ((configs[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1))
    spins = 2.0 * bits.astype(np.float64) - 1.0
    energies = -(spins @ fields) - 0.5 * np.einsum("ki,ij,kj->k", spins, couplings, spins)
    log_weights = -energies / gamma

    log_z = float(logsumexp(log_weights))
    alphas = np.empty(n)
    for i in range(n):
        plus = bits[:, i] == 1
        alphas[i] = math.exp(float(logsumexp(log_weights[plus])) - log_z)
    expected = 2.0 * alphas - 1.0
    return ExactSpinMarginals(expected_spins=expected, alphas=alphas, log_partition=log_z)
