"""Importance-weighted Monte Carlo estimation of game values.

Two modes share one sampling path:

``gibbs``
    the self-normalized scheme: raw weight ``exp(v(C_k)/gamma) / p(C_k)``
    for each sampled coalition, normalized over the batch.  Consistent for
    the Gibbs-tilted estimands computed exactly by
    :mod:`coalattn.oracles` (``exact_tilted_*``).

``classic``
    plain averaging of the sampled marginal contributions, unbiased for the
    exact Shapley value (permutation-prefix sampling) and the exact Banzhaf
    index / interaction potential (Bernoulli coalition sampling).

Randomness is counter-based: each (estimator kind, token or pair) gets its
own Philox stream keyed by (seed, kind, indices), so results are a pure
function of (game, config) no matter how calls are scheduled, and estimating
one token never perturbs another.  A Bernoulli coalition is one 64-bit
Philox word masked to the allowed token bits: every bit of the word is an
independent fair coin, so each allowed token is a member with probability
1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .games import Coalition

__all__ = [
    "EstimatorConfig",
    "WeightedSampleBatch",
    "EstimatedGameValues",
    "sample_permutation_prefix",
    "sample_permutation_prefixes",
    "sample_bernoulli_coalition",
    "sample_bernoulli_coalitions",
    "normalize_weights",
    "shapley_sample_batch",
    "banzhaf_sample_batch",
    "interaction_sample_batch",
    "estimate_shapley",
    "estimate_banzhaf",
    "estimate_interaction",
    "estimate_all",
    "weighted_standard_error",
    "token_stream",
]

MODES = ("gibbs", "classic")

# stream identifiers for the counter-based RNG split
_SHAPLEY_STREAM = 1
_BANZHAF_STREAM = 2
_INTERACTION_STREAM = 3


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling configuration.

    ``sample_count`` is the number of coalitions drawn per estimated
    quantity; ``gamma`` is the coalition temperature used by the gibbs
    weights (ignored in classic mode).
    """

    sample_count: int = 25
    seed: int = 0
    gamma: float = 0.25
    mode: str = "gibbs"

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class WeightedSampleBatch:
    """One batch of sampled coalitions with weights and marginals.

    ``raw_weights`` are stored under a common scaling (largest weight equals
    1) so extreme exponents never overflow; any common factor cancels in the
    self-normalization, so the scaling is unobservable downstream.
    """

    raw_weights: np.ndarray
    normalized_weights: np.ndarray
    marginals: np.ndarray
    proposal_probs: np.ndarray

    @property
    def sample_count(self) -> int:
        return int(self.raw_weights.size)

    @property
    def effective_sample_size(self) -> float:
        """(sum w)^2 / sum w^2, clamped to [1, K] against roundoff."""
        raw = self.raw_weights
        ess = float(np.sum(raw)) ** 2 / float(np.sum(raw * raw))
        return min(max(ess, 1.0), float(raw.size))

    def estimate(self) -> float:
        return float(np.dot(self.normalized_weights, self.marginals))


@dataclass(frozen=True)
class EstimatedGameValues:
    """Monte Carlo estimates of all per-token and per-pair values.

    ``effective_sample_size[i]`` is the smaller of the two batch diagnostics
    for token i (prefix batch and Bernoulli batch), the conservative
    weight-degeneracy indicator.
    """

    shapley_hat: np.ndarray
    banzhaf_hat: np.ndarray
    interactions_hat: np.ndarray
    effective_sample_size: np.ndarray


def token_stream(seed: int, kind: int, *indices: int) -> np.random.Generator:
    """Philox generator for one (estimator kind, token/pair) slot."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(kind), *(int(x) for x in indices)))
    return np.random.Generator(np.random.Philox(ss))


@functools.lru_cache(maxsize=64)
def _prefix_size_probs(n: int) -> np.ndarray:
    # proposal probability of a specific prefix set of size s: s!(n-1-s)!/(n-1)!
    probs = np.array(
        [
            math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n - 1)
            for s in range(n)
        ]
    )
    probs.flags.writeable = False  # shared by every caller through the cache
    return probs


def sample_permutation_prefixes(
    rng: np.random.Generator, n: int, i: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` permutation prefixes of the tokens other than i.

    Each draw shuffles the remaining ``n-1`` tokens, picks a prefix length
    uniformly from ``{0, ..., n-1}``, and reports the prefix set together
    with the proposal probability ``|P|!(n-1-|P|)!/(n-1)!`` used by the
    importance weights.  Returns (masks, proposal_probs).
    """
    if n < 1:
        raise ValueError("need at least one token")
    if not 0 <= i < n:
        raise ValueError(f"token index {i} out of range for n={n}")
    size_probs = _prefix_size_probs(n)
    sizes = rng.integers(0, n, size=count)
    if n == 1:
        masks = np.zeros(count, dtype=np.uint64)
        return masks, size_probs[sizes]
    others = np.array([t for t in range(n) if t != i], dtype=np.uint64)
    perms = rng.permuted(np.tile(others, (count, 1)), axis=1)
    # column s of the running OR is the set of the first s permuted tokens
    prefixes = np.zeros((count, n), dtype=np.uint64)
    np.bitwise_or.accumulate(np.left_shift(np.uint64(1), perms), axis=1, out=prefixes[:, 1:])
    masks = prefixes[np.arange(count), sizes]
    return masks, size_probs[sizes]


def sample_permutation_prefix(
    rng: np.random.Generator, n: int, i: int
) -> tuple[Coalition, float]:
    """Single draw of a permutation prefix; see the batch form."""
    masks, probs = sample_permutation_prefixes(rng, n, i, 1)
    return Coalition(int(masks[0]), n), float(probs[0])


def sample_bernoulli_coalitions(
    rng: np.random.Generator, n: int, excluded, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` coalitions, including each non-excluded token with
    probability 1/2.  Returns (masks, proposal_probs); every draw has the
    same proposal probability ``2**-(n - |excluded|)``.

    Each coalition is one full-range 64-bit word from *rng* ANDed with the
    mask of allowed tokens (bits below ``n`` that are not excluded).

    Excluding every token is allowed and degenerates to the empty coalition
    with proposal probability 1: a one-token game still has a well-defined
    (empty) coalition family for its lone token.
    """
    excluded = frozenset(int(t) for t in excluded)
    if any(not 0 <= t < n for t in excluded):
        raise ValueError(f"excluded tokens must lie in 0..{n - 1}")
    allowed = (1 << n) - 1
    for t in excluded:
        allowed &= ~(1 << t)
    # one raw word per coalition: the values rng.integers(0, 2**64, dtype=np.uint64)
    # draws, without its per-call argument handling
    masks = rng.bit_generator.random_raw(count) & np.uint64(allowed)
    probs = np.full(count, 0.5 ** (n - len(excluded)))
    return masks, probs


def sample_bernoulli_coalition(
    rng: np.random.Generator, n: int, excluded
) -> tuple[Coalition, float]:
    """Single Bernoulli(1/2) coalition draw; see the batch form."""
    masks, probs = sample_bernoulli_coalitions(rng, n, excluded, 1)
    return Coalition(int(masks[0]), n), float(probs[0])


def normalize_weights(values, proposal_probs, gamma: float, marginals=None) -> WeightedSampleBatch:
    """Self-normalized Gibbs importance weights for one batch.

    The raw weight of sample k is ``exp(v_k/gamma) / p_k``; the batch is
    normalized to sum to one.  Everything is formed on the log scale and
    shifted by the max log-weight before exponentiation, so the partition
    constant cancels without any explicit large exponential.
    """
    values = np.asarray(values, dtype=np.float64)
    probs = np.asarray(proposal_probs, dtype=np.float64)
    if values.ndim != 1 or values.size < 1:
        raise ValueError("values: need a non-empty 1-d array")
    if probs.shape != values.shape:
        raise ValueError("proposal_probs must match values in length")
    if np.any(np.isnan(values)):
        raise ValueError("values must not contain NaN")
    if np.any((probs <= 0.0) | (probs > 1.0)):
        raise ValueError("proposal probabilities must lie in (0, 1]")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if marginals is None:
        marginals = np.zeros_like(values)
    else:
        marginals = np.asarray(marginals, dtype=np.float64)
        if marginals.shape != values.shape:
            raise ValueError("marginals must match values in length")

    log_raw = values / gamma - np.log(probs)
    raw = np.exp(log_raw - np.max(log_raw))
    normalized = raw / raw.sum()
    return WeightedSampleBatch(
        raw_weights=raw,
        normalized_weights=normalized,
        marginals=marginals,
        proposal_probs=probs,
    )


def _uniform_batch(proposal_probs: np.ndarray, marginals: np.ndarray) -> WeightedSampleBatch:
    k = proposal_probs.size
    return WeightedSampleBatch(
        raw_weights=np.ones(k),
        normalized_weights=np.full(k, 1.0 / k),
        marginals=np.asarray(marginals, dtype=np.float64),
        proposal_probs=np.asarray(proposal_probs, dtype=np.float64),
    )


def _finish_batch(
    base_values: np.ndarray,
    probs: np.ndarray,
    marginals: np.ndarray,
    cfg: EstimatorConfig,
) -> WeightedSampleBatch:
    if cfg.mode == "gibbs":
        return normalize_weights(base_values, probs, cfg.gamma, marginals)
    return _uniform_batch(probs, marginals)


def shapley_sample_batch(game, i: int, cfg: EstimatorConfig) -> WeightedSampleBatch:
    """Sampled prefix batch for token i's Shapley estimate."""
    if not 0 <= i < game.n:
        raise ValueError(f"token index {i} out of range for n={game.n}")
    rng = token_stream(cfg.seed, _SHAPLEY_STREAM, i)
    masks, probs = sample_permutation_prefixes(rng, game.n, i, cfg.sample_count)
    bit = np.uint64(1 << i)
    values = game.values_by_mask(np.concatenate([masks, masks | bit]))
    base = values[: cfg.sample_count]
    marginals = values[cfg.sample_count :] - base
    return _finish_batch(base, probs, marginals, cfg)


def banzhaf_sample_batch(game, i: int, cfg: EstimatorConfig) -> WeightedSampleBatch:
    """Sampled Bernoulli-coalition batch for token i's Banzhaf estimate."""
    if not 0 <= i < game.n:
        raise ValueError(f"token index {i} out of range for n={game.n}")
    rng = token_stream(cfg.seed, _BANZHAF_STREAM, i)
    masks, probs = sample_bernoulli_coalitions(rng, game.n, {i}, cfg.sample_count)
    bit = np.uint64(1 << i)
    values = game.values_by_mask(np.concatenate([masks, masks | bit]))
    base = values[: cfg.sample_count]
    marginals = values[cfg.sample_count :] - base
    return _finish_batch(base, probs, marginals, cfg)


def interaction_sample_batch(game, i: int, j: int, cfg: EstimatorConfig) -> WeightedSampleBatch:
    """Sampled context batch for the (i, j) interaction estimate.

    The stream is keyed on the unordered pair, so both orientations draw the
    same contexts and the stored estimate is symmetric by construction.
    """
    if i == j:
        raise ValueError("interaction estimate: tokens must be distinct")
    for t in (i, j):
        if not 0 <= t < game.n:
            raise ValueError(f"token index {t} out of range for n={game.n}")
    a, b = (i, j) if i < j else (j, i)
    rng = token_stream(cfg.seed, _INTERACTION_STREAM, a, b)
    k = cfg.sample_count
    masks, probs = sample_bernoulli_coalitions(rng, game.n, {a, b}, k)
    ba, bb = np.uint64(1 << a), np.uint64(1 << b)
    values = game.values_by_mask(
        np.concatenate([masks, masks | ba, masks | bb, masks | ba | bb])
    )
    base = values[:k]
    deltas = values[3 * k :] - values[k : 2 * k] - values[2 * k : 3 * k] + base
    return _finish_batch(base, probs, deltas, cfg)


def estimate_shapley(game, i: int, cfg: EstimatorConfig) -> float:
    return shapley_sample_batch(game, i, cfg).estimate()


def estimate_banzhaf(game, i: int, cfg: EstimatorConfig) -> float:
    return banzhaf_sample_batch(game, i, cfg).estimate()


def estimate_interaction(game, i: int, j: int, cfg: EstimatorConfig) -> float:
    return interaction_sample_batch(game, i, j, cfg).estimate()


def estimate_all(game, cfg: EstimatorConfig) -> EstimatedGameValues:
    """Estimate every token's Shapley and Banzhaf value and every pair's
    interaction potential.

    Uses ``2K`` characteristic evaluations per token per index family and
    ``4K`` per pair: ``2*K*n*(n+1)`` in total for the full set.
    """
    n = game.n
    shapley = np.empty(n)
    banzhaf = np.empty(n)
    ess = np.empty(n)
    for i in range(n):
        sb = shapley_sample_batch(game, i, cfg)
        bb = banzhaf_sample_batch(game, i, cfg)
        shapley[i] = sb.estimate()
        banzhaf[i] = bb.estimate()
        ess[i] = min(sb.effective_sample_size, bb.effective_sample_size)
    interactions = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            val = estimate_interaction(game, i, j, cfg)
            interactions[i, j] = val
            interactions[j, i] = val
    return EstimatedGameValues(
        shapley_hat=shapley,
        banzhaf_hat=banzhaf,
        interactions_hat=interactions,
        effective_sample_size=ess,
    )


def weighted_standard_error(batch: WeightedSampleBatch) -> float:
    """Delta-method standard error of a self-normalized batch estimate.

    ``sqrt(sum w_k^2 (m_k - est)^2)`` over normalized weights; reduces to
    the plain ``std/sqrt(K)`` for uniform weights.
    """
    est = batch.estimate()
    w = batch.normalized_weights
    return float(np.sqrt(np.sum(w * w * (batch.marginals - est) ** 2)))
