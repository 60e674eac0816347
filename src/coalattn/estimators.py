"""Importance-weighted Monte Carlo estimation of game values.

Two modes share one sampling path:

``gibbs``
    the self-normalized scheme: raw weight ``exp(v(C_k)/gamma) / p(C_k)``
    for each sampled coalition, normalized over the batch.  Consistent for
    the Gibbs-tilted estimands that ``oracles.exact_gibbs_tilted_values``
    computes exactly.

``classic``
    plain averaging of the sampled marginal contributions, unbiased for the
    exact Shapley value (permutation-prefix sampling) and the exact Banzhaf
    index / interaction potential (Bernoulli coalition sampling).

Each family of estimates (the tokens' Shapley values, their Banzhaf values,
the pairs' interactions) draws one pool of K samples, and every slot of the
family (one estimated quantity) takes its K contexts from that pool.  Every
sample thus serves every slot, as each sampled permutation serves every
player in Castro, Gomez & Tejada (*Polynomial calculation of the Shapley
value based on sampling*, Comput. Oper. Res. 36(5), 2009) and one sample set
serves every player in Data Banzhaf (Wang & Jia, AISTATS 2023,
arXiv:2205.15466):

Shapley
    K permutations of the n tokens; token i's context in permutation k is
    the set of tokens before it.  Its size is uniform on ``{0, ..., n-1}``
    and, given the size, the set is uniform, so its proposal probability is
    ``|P|!(n-1-|P|)!/(n-1)!`` up to the factor ``1/n`` common to all draws.

Banzhaf and interactions
    K 64-bit words masked to the n token bits; a slot's contexts are the
    words with its own tokens' bits cleared.  Every bit of a word is an
    independent fair coin, so every other token is a member with probability
    1/2, and each context has proposal probability ``2**-(n - |slot|)``.

Each slot's K contexts therefore have the law that K independent draws of
its own would have, while the slots of one family share their samples, so
their errors are correlated.  Randomness is counter-based: a family's pool
comes from the Philox stream keyed by ``_pool_key(seed, kind)``, the two
words ``SeedSequence(entropy=seed, spawn_key=(kind,))`` generates.
A slot's numbers are a pure function of (game, config, slot), whatever the
blocking and whichever other slots are estimated.

Every estimate runs through one block path.  A family's slots go to the
game as one ``games.Extensions`` of the pool by their tokens, built and
checked once, and a block takes as many of its rows as ``_BLOCK_CONTEXTS``
contexts allow, evaluated by one ``values_by_mask`` call from values and
sums the game shares across the pool.  On a Bernoulli word w a slot's
columns are w with each subset of the slot's tokens toggled: its context
(the Gibbs base) is the column of the slot's tokens that w holds, and its
marginal is the signed alternating sum ``prod_t s_t sum_j (-1)**(f - |j|)
v_j``, with ``s_t = 1 - 2 b_t`` for token t's bit ``b_t`` in w, which is
the inclusion-exclusion sum over the context's extensions.  On a
permutation the columns are the context and the context with the token.
The block's weights, estimates, effective sample sizes and standard errors
are then computed for all its rows at once; every reduction runs along a
row alone, so a slot's numbers do not depend on the block it lands in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import Extensions, GameValues
from .linalg import TemperatureError, as_integer, over_temperature

__all__ = [
    "MAX_SAMPLE_COUNT",
    "EstimatorConfig",
    "gibbs_weights",
    "estimate_all",
]

MODES = ("gibbs", "classic")

# Largest sample count K accepted: far above any count an estimate needs
# (the acceptance tests use 50,000), and small enough that every pool, of at
# most K x 64 entries, has a size numpy can represent; a K whose arrays do
# not fit in memory ends in MemoryError, which the CLI reports as a limit
# refusal.
MAX_SAMPLE_COUNT = 2**32

# stream identifiers for the counter-based RNG split, one per family
_SHAPLEY_STREAM = 1
_BANZHAF_STREAM = 2
_INTERACTION_STREAM = 3

# Most slot contexts one values_by_mask call of estimate_all evaluates; a
# block holds as many whole slots as fit, at least one (one slot per call
# for K > 2048).  A game forms its pool's shared values once per family, and
# each context of a block then takes a few arrays of O(1) entries (a pair's
# four values, its weights and marginals), so the cap bounds the block's
# working arrays: about 0.4 MB for the pairs of an n=32, d_v=32 game at
# K = 256.  Attend-wide operations (two such heads, BLAS on one thread, a
# 2-core AMD EPYC VM, two 4-second in-process runs per cap) took, at caps of
# 2048, 4096, 8192, 16384 and 32768: 13.4, 11.5-11.7, 10.8-11.6, 10.1-10.2
# and 10.4-10.6 ms, with 257, 280-292, 549-586, 872-915 and 1,600 minor
# page faults per operation and a peak RSS of 39.8-39.9, 40.0, 40.4,
# 41.1-41.2 and 43.3-43.4 MB.  Fewer, larger blocks save per-call overhead
# but fault their arrays in afresh on every block.
_BLOCK_CONTEXTS = 4096


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling configuration.

    ``sample_count`` is the number of coalitions drawn per estimated
    quantity; ``gamma`` is the coalition temperature used by the gibbs
    weights (ignored in classic mode).  This is the one check of these run
    settings: a refusal's message starts with the setting's name
    (``coalition_gamma`` for ``gamma``).
    """

    sample_count: int = 25
    seed: int = 0
    gamma: float = 0.25
    mode: str = "gibbs"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"coalition_gamma: must be positive and finite, got {self.gamma!r}")
        for name in ("sample_count", "seed"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.sample_count < 1:
            raise ValueError("sample_count: must be >= 1")
        if self.sample_count > MAX_SAMPLE_COUNT:
            raise ValueError(f"sample_count: must be at most {MAX_SAMPLE_COUNT}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed: must fit in an unsigned 64-bit integer")
        if self.mode not in MODES:
            raise ValueError(f"mode: must be one of {MODES}")


def _pool_key(seed: int, kind: int) -> np.ndarray:
    """The Philox key of one family's pool: the two words
    ``np.random.SeedSequence(entropy=seed, spawn_key=(kind,))`` generates.
    A counter-based generator takes a stream identifier as its key (Salmon
    et al., *Parallel Random Numbers: As Easy as 1, 2, 3*, SC 2011)."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(kind,)).generate_state(2, np.uint64)


def _draw_pool(seed: int, kind: int, n: int, count: int) -> np.ndarray:
    """The pool of one family: ``count`` permutations of the n tokens, shape
    ``(count, n)``, for the Shapley kind, else ``count`` raw 64-bit words
    masked to the n token bits, all from the family's Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=_pool_key(seed, kind)))
    if kind == _SHAPLEY_STREAM:
        return rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
    # the values rng.integers(0, 2**64, dtype=np.uint64) draws, without its
    # per-call argument handling
    return rng.bit_generator.random_raw(count) & np.uint64((1 << n) - 1)


def _prefix_size_probs(n: int) -> np.ndarray:
    # proposal probability of a specific prefix set of size s: s!(n-1-s)!/(n-1)!
    return np.array(
        [
            math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n - 1)
            for s in range(n)
        ]
    )


def _pool_extensions(pool: np.ndarray, n: int, tokens: np.ndarray) -> tuple[Extensions, np.ndarray | float]:
    """The coalitions of the slots of a family, as the ``Extensions`` of the
    family's pool by the slots' tokens, and their contexts' proposal
    probabilities: shape ``(slots, K)`` for a permutation pool, and for a
    Bernoulli pool the one probability ``2**-(n - f)`` of every context of
    f-token slots."""
    if pool.ndim == 2:
        extensions = Extensions(None, tokens, pool)
        return extensions, _prefix_size_probs(n)[extensions.ranks]
    return Extensions(pool, tokens), 0.5 ** (n - tokens.shape[-1])


def gibbs_weights(values: np.ndarray, probs: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Self-normalized Gibbs importance weights of each row (the last axis)
    of *values*, with *probs* the matching proposal probabilities.

    The raw weight of sample k is ``exp(v_k/gamma) / p_k`` and each row of
    normalized weights sums to one.  Raw weights are formed on the log scale
    and shifted by the row's max log-weight before exponentiation, so the
    largest raw weight of a row is 1 and no large exponential is ever formed;
    the common factor cancels in the normalization; an overflowing
    ``v_k/gamma`` raises ``linalg.TemperatureError``, and a NaN value a
    ``ValueError`` naming it.  A log-weight more than float64's range below
    its row's max shifts to -inf, a weight of exactly 0, with numpy's
    overflow warning unless the caller ignores it, as ``estimate_all`` does.
    Returns (raw, normalized).
    """
    # written so that a NaN, which fails every comparison, is refused too
    if not np.all((probs > 0.0) & (probs <= 1.0)):
        raise ValueError("proposal probabilities must lie in (0, 1]")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    try:
        scaled = over_temperature(values, gamma, "coalition_gamma")
    except TemperatureError:
        # a NaN is not finite either: look for one only once the check fails
        if np.any(np.isnan(values)):
            raise ValueError("values must not contain NaN") from None
        raise
    log_raw = scaled - np.log(probs)
    raw = np.exp(log_raw - np.max(log_raw, axis=-1, keepdims=True))
    return raw, raw / raw.sum(axis=-1, keepdims=True)


def _estimate_family(game, cfg: EstimatorConfig, kind: int, slots: np.ndarray):
    """Estimate, effective sample size and standard error of every slot of
    one family.

    Each slot is a row of token indices: ``(i,)`` for the Shapley and
    Banzhaf kinds, ``(a, b)`` with ``a < b`` for interactions.  The
    family's ``Extensions`` is built, and its pool checked, once; a block
    holds as many of its rows as ``_BLOCK_CONTEXTS`` contexts allow, at
    least one, and is evaluated by one ``values_by_mask`` call, then
    weighted and reduced row-wise at once, from the base column and the
    signed alternating sum the module docstring describes.  The ESS of K raw
    weights is ``total**2 / square_total``, clamped to [1, K] against
    roundoff, and the standard error is the delta-method ``sqrt(sum_k (w_k
    (m_k - estimate))**2)`` over the normalized weights w and the marginals
    m, inf where it passes float64's range.
    """
    n, k = game.n, cfg.sample_count
    pool = _draw_pool(cfg.seed, kind, n, k)
    family, family_probs = _pool_extensions(pool, n, slots)
    if pool.ndim == 1:
        held = ((pool >> np.arange(n, dtype=np.uint64)[:, None]) & np.uint64(1)).astype(bool)
        signs = 1.0 - 2.0 * held  # s_t of every token in every word
    per_block = max(1, _BLOCK_CONTEXTS // k)
    estimates, ess, errors = np.empty(len(slots)), np.empty(len(slots)), np.empty(len(slots))
    for start in range(0, len(slots), per_block):
        rows = slice(start, start + per_block)
        values = game.values_by_mask(family.rows(rows))
        if pool.ndim == 2:
            probs = family_probs[rows]
            base, marginals = values[0].copy(), values[1] - values[0]
        else:
            probs = family_probs
            first, sign = held.take(slots[rows, 0], axis=0), signs.take(slots[rows, 0], axis=0)
            if slots.shape[1] == 1:
                base = np.where(first, values[1], values[0])
                marginals = values[1] - values[0]
            else:
                second = held.take(slots[rows, 1], axis=0)
                base = np.where(second, np.where(first, values[3], values[2]), np.where(first, values[1], values[0]))
                marginals = values[3] - values[1]
                marginals -= values[2]
                marginals += values[0]
                sign *= signs.take(slots[rows, 1], axis=0)
            marginals *= sign
        del values  # the block's largest array: free it before the weights
        if cfg.mode == "gibbs":
            raw, normalized = gibbs_weights(base, probs, cfg.gamma)
        else:
            raw, normalized = np.ones(base.shape), np.full(base.shape, 1.0 / k)
        # vecdot takes each row's dot product through the same BLAS ddot as np.dot
        estimates[rows] = np.vecdot(normalized, marginals)
        totals = raw.sum(axis=-1)
        ess[rows] = np.clip(totals * totals / np.vecdot(raw, raw), 1.0, k)
        # w_k (m_k - estimate) is finite, as w_k <= 1; its square may overflow to inf
        marginals -= estimates[rows, None]
        marginals *= normalized
        errors[rows] = np.sqrt((marginals**2).sum(axis=-1))
    return estimates, ess, errors


def estimate_all(game, cfg: EstimatorConfig) -> GameValues:
    """Estimate every token's Shapley and Banzhaf value and every pair's
    interaction potential, with their standard errors.

    Uses ``2K`` characteristic evaluations per token per index family and
    ``4K`` per pair: ``2*K*n*(n+1)`` in total for the full set, all through
    ``values_by_mask``, in the blocks of slots the module docstring
    describes.  Every number equals, bit for bit, what one slot alone would
    give: its contexts taken from the family's pool, evaluated as an
    ``Extensions`` of the pool by its own tokens and weighted on its own.
    """
    n = game.n
    tokens = np.arange(n)[:, None]
    rows, cols = np.triu_indices(n, 1)
    pairs = np.column_stack([rows, cols])
    # the games keep every value and difference finite, so only the weights'
    # log-scale shift can overflow, to a weight of exactly 0; one errstate
    # per call, not per block, as entering one costs about 0.7 us
    with np.errstate(over="ignore"):
        shapley, shapley_ess, shapley_se = _estimate_family(game, cfg, _SHAPLEY_STREAM, tokens)
        banzhaf, banzhaf_ess, banzhaf_se = _estimate_family(game, cfg, _BANZHAF_STREAM, tokens)
        pair_values, _, pair_se = _estimate_family(game, cfg, _INTERACTION_STREAM, pairs)
    interactions, interaction_se = np.zeros((n, n)), np.zeros((n, n))
    for matrix, entries in ((interactions, pair_values), (interaction_se, pair_se)):
        matrix[rows, cols] = entries
        matrix[cols, rows] = entries
    return GameValues(
        shapley,
        banzhaf,
        interactions,
        np.minimum(shapley_ess, banzhaf_ess),
        shapley_se,
        banzhaf_se,
        interaction_se,
    )
