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

Every game oracle reads the game's table as a ``(2,)*n`` cube whose axis
``n-1-i`` is the bit of token i.  Fixing the axes of a slot's tokens gives a
view whose C-order flattening is the contexts that exclude those tokens, in
increasing mask order, so no oracle filters the ``2**n`` masks.
``exact_game_values`` and ``exact_gibbs_tilted_values`` check their limits,
tabulate the game once, and run the per-token and per-pair oracles on that
cube, so a call costs ``2**n`` characteristic evaluations.  Given a
``TabularGame`` they evaluate nothing, so a caller that needs both passes
them the table from ``exact_table``.

In ``gibbs`` mode the prefix-sampled Shapley estimator and the Bernoulli
Banzhaf estimator converge to the same tilted average (see
``exact_tilted_shapley_prefix``), so ``shapley_hat`` and ``banzhaf_hat``
estimate one quantity and the pipeline's lambda-blend averages two estimators
of one value.

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .games import GibbsTarget, TabularGame, tabulate
from .linalg import over_temperature
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


def _cube(game) -> np.ndarray:
    """The game's table as a ``(2,)*n`` cube; token i is axis ``n-1-i``."""
    return tabulate(game).reshape((2,) * game.n)


def _face(cube: np.ndarray, tokens: tuple[int, ...], bits: tuple[int, ...]) -> np.ndarray:
    """The view of *cube* at the masks holding ``bits[k]`` for ``tokens[k]``;
    its C-order flattening lists them in increasing mask order."""
    index = [slice(None)] * cube.ndim
    for token, bit in zip(tokens, bits):
        index[cube.ndim - 1 - token] = bit
    return cube[tuple(index)]


def _slot_values(cube: np.ndarray, slot: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The values ``v(C)`` of the contexts C excluding every token of *slot*,
    in increasing mask order, and the slot's differences on them.

    For ``(i,)`` the differences are ``v(C+i) - v(C)``; for ``(lo, hi)`` with
    ``lo < hi`` they are ``v(C+lo+hi) - v(C+lo) - v(C+hi) + v(C)``, summed
    in that order so the result does not depend on the argument order.
    """
    if len(slot) == 1:
        base = _face(cube, slot, (0,))
        deltas = _face(cube, slot, (1,)) - base
    else:
        base = _face(cube, slot, (0, 0))
        deltas = (
            _face(cube, slot, (1, 1)) - _face(cube, slot, (1, 0)) - _face(cube, slot, (0, 1)) + base
        )
    return base.reshape(-1), deltas.reshape(-1)


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _context_sizes(n: int) -> np.ndarray:
    # the contexts excluding one token, in increasing mask order, have the
    # sizes of the (n-1)-bit masks in increasing order
    return np.bitwise_count(np.arange(1 << (n - 1), dtype=np.int64))


def _shapley_weights(n: int) -> np.ndarray:
    """Permutation-average weight of each context excluding one token, in
    increasing mask order: ``s!(n-1-s)!/n!`` for a context of size s."""
    per_size = np.array(
        [math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n) for s in range(n)]
    )
    return per_size[_context_sizes(n)]


def _shapley(cube: np.ndarray, i: int, weights: np.ndarray) -> float:
    return float(np.dot(weights, _slot_values(cube, (i,))[1]))


def _mean_difference(cube: np.ndarray, slot: tuple[int, ...]) -> float:
    return float(np.mean(_slot_values(cube, slot)[1]))


def _pair_matrix(n: int, value) -> np.ndarray:
    """Symmetric matrix with zero diagonal holding ``value((i, j))`` for i < j."""
    out = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        out[i, j] = out[j, i] = value((i, j))
    return out


def exact_shapley(game, i: int) -> float:
    """Exact Shapley value of token i.

    Computed by the subset-weighted closed form, which reproduces the
    average marginal contribution over all ``n!`` token orderings exactly;
    see ``exact_shapley_by_permutations`` for the literal enumeration.
    """
    _require_token(game, i)
    _require_limit(game.n, SHAPLEY_ENUM_LIMIT, "exact Shapley value")
    return _shapley(_cube(game), i, _shapley_weights(game.n))


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
    return _mean_difference(_cube(game), (i,))


def exact_interaction(game, i: int, j: int) -> float:
    """Exact interaction potential: uniform average of the pairwise second
    difference over all contexts containing neither token."""
    _require_token(game, i)
    _require_token(game, j)
    if i == j:
        raise ValueError("interaction potential: tokens must be distinct")
    _require_limit(game.n, SUBSET_ENUM_LIMIT, "exact interaction potential")
    return _mean_difference(_cube(game), _pair(i, j))


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
    cube = _cube(exact_table(game))
    weights = _shapley_weights(n)
    return ExactGameValues(
        shapley=np.array([_shapley(cube, i, weights) for i in range(n)]),
        banzhaf=np.array([_mean_difference(cube, (i,)) for i in range(n)]),
        interactions=_pair_matrix(n, lambda pair: _mean_difference(cube, pair)),
    )


def _tilted_cube(game, gamma: float) -> np.ndarray:
    """The game's cube, once ``v(C) / gamma`` is finite for every coalition C
    but the grand one, which is the context of no slot."""
    cube = _cube(game)
    over_temperature(cube.reshape(-1)[:-1], gamma, "coalition_gamma")
    return cube


def _tilted_average(log_weights: np.ndarray, deltas: np.ndarray) -> float:
    shifted = log_weights - np.max(log_weights)
    w = np.exp(shifted)
    w /= w.sum()
    return float(np.dot(w, deltas))


def _tilted(cube: np.ndarray, slot: tuple[int, ...], gamma: float) -> float:
    base, deltas = _slot_values(cube, slot)
    return _tilted_average(base / gamma, deltas)


def _prefix_log_p(n: int) -> np.ndarray:
    """Log of the probability ``|P|!(n-1-|P|)!/(n-1)!`` that the prefix
    estimator's weight divides by, for each context excluding one token, in
    increasing mask order."""
    per_size = np.array(
        [math.lgamma(s + 1) + math.lgamma(n - s) - math.lgamma(n) for s in range(n)]
    )
    return per_size[_context_sizes(n)]


def _tilted_prefix(cube: np.ndarray, i: int, gamma: float, log_p: np.ndarray) -> float:
    base, deltas = _slot_values(cube, (i,))
    # actual sampling probability of the prefix set
    log_q = log_p - math.log(cube.ndim)
    return _tilted_average(log_q + base / gamma - log_p, deltas)


def exact_tilted_banzhaf(game, i: int, target: GibbsTarget) -> float:
    """Exact limit of the Gibbs-weighted Banzhaf estimator.

    The Bernoulli proposal is uniform over coalitions excluding i, so the
    self-normalized estimator converges to the exp(v/gamma)-tilted average
    of the marginal contributions over that family.
    """
    _require_token(game, i)
    _require_limit(game.n, TILTED_ENUM_LIMIT, "tilted Banzhaf value")
    return _tilted(_tilted_cube(game, target.gamma), (i,), target.gamma)


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
    return _tilted_prefix(_tilted_cube(game, target.gamma), i, target.gamma, _prefix_log_p(game.n))


def exact_tilted_interaction(game, i: int, j: int, target: GibbsTarget) -> float:
    """Exact limit of the Gibbs-weighted interaction estimator."""
    _require_token(game, i)
    _require_token(game, j)
    if i == j:
        raise ValueError("tilted interaction: tokens must be distinct")
    _require_limit(game.n, TILTED_ENUM_LIMIT, "tilted interaction potential")
    return _tilted(_tilted_cube(game, target.gamma), _pair(i, j), target.gamma)


def exact_gibbs_tilted_values(game, target: GibbsTarget) -> ExactGameValues:
    """Tilted counterparts of every per-token and per-pair value."""
    n = game.n
    _require_limit(n, TILTED_ENUM_LIMIT, "tilted prefix-sampled Shapley value")
    gamma = target.gamma
    cube = _tilted_cube(game, gamma)
    log_p = _prefix_log_p(n)
    return ExactGameValues(
        shapley=np.array([_tilted_prefix(cube, i, gamma, log_p) for i in range(n)]),
        banzhaf=np.array([_tilted(cube, (i,), gamma) for i in range(n)]),
        interactions=_pair_matrix(n, lambda pair: _tilted(cube, pair, gamma)),
    )


def _logsumexp(a: np.ndarray, axis: int | None = None):
    """``log(sum(exp(a)))`` of a finite float64 array, over all entries or
    along *axis*, with the bits of ``scipy.special.logsumexp``: with ``m``
    entries at the maximum and ``s`` the sum of ``exp(a - max)`` over the
    others, ``log1p(s/m) + log(m) + max``.  Keeping the maximal terms out of
    ``s`` keeps the ``log1p`` accurate when they dominate the sum."""
    a_max = np.max(a, axis=axis, keepdims=True)
    at_max = a == a_max
    m = np.sum(at_max, axis=axis, keepdims=True, dtype=np.float64)
    shifted = a - a_max
    shifted[at_max] = -np.inf
    s = np.sum(np.exp(shifted, out=shifted), axis=axis, keepdims=True)
    out = np.log1p(s / m) + np.log(m) + a_max
    return np.squeeze(out, axis=axis)[()]


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
    in log space; ``alphas[i]`` is ``exp(logZ_{s_i=+1} - logZ)``.  An
    overflowing ``-H(S)/gamma`` raises ``linalg.TemperatureError``.
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
    log_weights = over_temperature(-energies, gamma, "spin_gamma")

    log_z = float(_logsumexp(log_weights))
    # row i: the configurations with spin i up, in increasing order
    cube = log_weights.reshape((2,) * n)
    ups = np.stack([_face(cube, (i,), (1,)).reshape(-1) for i in range(n)])
    alphas = np.array([math.exp(float(log_up) - log_z) for log_up in _logsumexp(ups, axis=1)])
    expected = 2.0 * alphas - 1.0
    return ExactSpinMarginals(expected_spins=expected, alphas=alphas, log_partition=log_z)
