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

An estimate draws two pools of K samples: permutations for the tokens'
Shapley values, and Bernoulli words shared by the two other families, the
tokens' Banzhaf values and the pairs' interactions.  Every slot of a family
(one estimated quantity) takes its K contexts from its pool.  Every sample
thus serves every slot, as each sampled permutation serves every player in
Castro, Gomez & Tejada (*Polynomial calculation of the Shapley value based
on sampling*, Comput. Oper. Res. 36(5), 2009) and one sample set serves
every player in Data Banzhaf (Wang & Jia, AISTATS 2023, arXiv:2205.15466):

Shapley
    K permutations of the n tokens; token i's context in permutation k is
    the set of tokens before it.  Its size is uniform on ``{0, ..., n-1}``
    and, given the size, the set is uniform, so its proposal probability is
    ``|P|!(n-1-|P|)!/(n-1)!`` up to the factor ``1/n`` common to all draws.

Banzhaf and interactions
    one pool of K 64-bit words masked to the n token bits, shared by both
    families; a slot's contexts are the words with its own tokens' bits
    cleared.  Every bit of a word is an independent fair coin, so every
    other token is a member with probability 1/2, and each context has
    proposal probability ``2**-(n - |slot|)``.

Each slot's K contexts therefore have the law that K independent draws of
its own would have, while the slots of one pool share their samples, so
their errors are correlated: those of one family, and the Banzhaf values
with the interactions.  Randomness is counter-based: a pool comes from the
Philox stream keyed by ``_pool_key(seed, kind)``, the two words
``SeedSequence(entropy=seed, spawn_key=(kind,))`` generates.
A slot's numbers are a pure function of (game, config, slot), whatever the
blocking and whichever other slots are estimated.

Every estimate runs through one block path.  A family's slots go to the
game as one ``games.Extensions`` of its pool by their tokens, each pool
copied and checked once, and a block takes as many of its rows as
``_BLOCK_CONTEXTS`` contexts allow.  One ``values_by_mask`` call per
block returns each slot's context value (the Gibbs base) and its
marginal, the inclusion-exclusion difference over the context, formed
from values and sums the game shares across the pool, so the Banzhaf and
pair blocks share one set; the ``Extensions`` docstring describes the
coalitions behind them.  A family's proposal probabilities are checked,
and their logs taken, once.  The block's weights, estimates, effective
sample sizes and standard errors are then computed for all its rows at
once; every reduction runs along a row alone, so a slot's numbers do not
depend on the block it lands in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import Extensions, GameValues
from .linalg import TemperatureError, as_integer, as_scalar, over_temperature

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

# stream identifiers for the counter-based RNG split, one per pool
_SHAPLEY_STREAM = 1
_BERNOULLI_STREAM = 2

# Most slot contexts one values_by_mask call of estimate_all evaluates; a
# block holds as many whole slots as fit, at least one (one slot per call
# for K > 4096).  A game forms its pool's shared values once per pool, and
# each context of a block then takes a few arrays of O(1) entries (a pair's
# toggled values, its context, difference and weights), so the cap bounds
# the block's working arrays: about 0.8 MB for the pairs of an n=32,
# d_v=32 game at K = 256.  `run_attend` on attend-wide documents (two such
# heads, BLAS on one thread, a 2-core Intel Xeon VM; 12 rounds of 40
# operations per cap in one process, rotating the caps' order) took, at
# caps of 8192 and 16384, a paired median 0.929 and 0.927 times its time
# at 4096, with 327, 525 and 973 minor page faults per operation at the
# three caps and a peak RSS of 39.6-39.7, 39.9-40.1 and 40.9-41.0 MB (one
# process of 300 operations per cap), so 16384 buys no time for its
# memory.  Fewer, larger blocks save per-call overhead but fault their
# arrays in afresh on every block.
_BLOCK_CONTEXTS = 8192


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling configuration.

    ``sample_count`` is the number of coalitions drawn per estimated
    quantity; ``gamma`` is the coalition temperature used by the gibbs
    weights (ignored in classic mode).  This is the one check of these run
    settings: a refusal's message starts with the setting's name
    (``coalition_gamma`` for ``gamma``), and a bool is refused for every
    setting.
    """

    sample_count: int = 25
    seed: int = 0
    gamma: float = 0.25
    mode: str = "gibbs"

    def __post_init__(self) -> None:
        if not as_scalar(self.gamma, "coalition_gamma") > 0.0:
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
    """The Philox key of one pool: the two words
    ``np.random.SeedSequence(entropy=seed, spawn_key=(kind,))`` generates.
    A counter-based generator takes a stream identifier as its key (Salmon
    et al., *Parallel Random Numbers: As Easy as 1, 2, 3*, SC 2011)."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(kind,)).generate_state(2, np.uint64)


def _draw_pool(seed: int, kind: int, n: int, count: int) -> np.ndarray:
    """One pool: ``count`` permutations of the n tokens, shape ``(count,
    n)``, for the Shapley kind, else ``count`` raw 64-bit words masked to
    the n token bits, all from the kind's Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=_pool_key(seed, kind)))
    if kind == _SHAPLEY_STREAM:
        return rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
    # the values rng.integers(0, 2**64, dtype=np.uint64) draws, without its
    # per-call argument handling
    return rng.bit_generator.random_raw(count) & np.uint64((1 << n) - 1)


def _proposal_probs(slots: Extensions, n: int) -> np.ndarray:
    """The proposal probabilities of the contexts of *slots*, the rows of an
    ``Extensions`` of a pool, one row per slot: shape ``(slots, K)`` for a
    permutation pool, ``s!(n-1-s)!/(n-1)!`` for a context of size s, and
    for a Bernoulli pool ``(slots, 1)``, the one probability ``2**-(n - f)``
    of every context of f-token slots."""
    if slots.orders is None:
        return np.full((len(slots.tokens), 1), 0.5 ** (n - slots.tokens.shape[-1]))
    per_size = np.array(
        [math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n - 1) for s in range(n)]
    )
    return per_size[slots.ranks]


def gibbs_weights(values: np.ndarray, probs: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Self-normalized Gibbs importance weights of each row (the last axis)
    of *values*, with *probs* the matching proposal probabilities, shaped
    like *values* or broadcast to it.

    The raw weight of sample k is ``exp(v_k/gamma) / p_k`` and each row of
    normalized weights sums to one.  Raw weights are formed on the log scale
    and shifted by the row's max log-weight before exponentiation, so the
    largest raw weight of a row is 1 and no large exponential is ever formed;
    the common factor cancels in the normalization; an overflowing
    ``v_k/gamma`` raises ``linalg.TemperatureError``, and a NaN or an
    infinite value a ``ValueError`` naming it, as is a *gamma* that is not
    a positive finite number (named ``coalition_gamma``).  A log-weight
    more than float64's range below its row's max shifts to -inf, a weight
    of exactly 0, with numpy's overflow warning unless the caller ignores
    it, as ``estimate_all`` does.  Returns (raw, normalized).
    """
    _check_probs(probs)
    EstimatorConfig(gamma=gamma)  # the run setting's one check
    raw = _gibbs_kernel(values, np.log(probs), gamma)
    return raw, raw / raw.sum(axis=-1, keepdims=True)


def _check_probs(probs: np.ndarray) -> None:
    # written so that a NaN, which fails every comparison, is refused too
    if not np.logical_and(probs > 0.0, probs <= 1.0).all():
        raise ValueError("proposal probabilities must lie in (0, 1]")


def _gibbs_kernel(values: np.ndarray, log_probs: np.ndarray, gamma: float) -> np.ndarray:
    """The raw ``gibbs_weights`` of *values* from the logs of proposal
    probabilities and a temperature already checked."""
    try:
        # a fresh array, in which the log-weights are formed
        log_raw = over_temperature(values, gamma, "coalition_gamma")
    except TemperatureError:
        # a NaN or an infinity is not finite either: look for one only once
        # the check fails
        if np.any(np.isnan(values)):
            raise ValueError("values must not contain NaN") from None
        if np.any(np.isinf(values)):
            raise ValueError("values must not contain inf or -inf") from None
        raise
    log_raw -= log_probs
    log_raw -= log_raw.max(axis=-1, keepdims=True)
    return np.exp(log_raw, out=log_raw)


def _estimate_family(game, cfg: EstimatorConfig, family: Extensions):
    """Estimate, effective sample size and standard error of every slot of
    one family, the rows of the ``Extensions`` *family* of its pool.

    Each slot is a row of token indices: ``(i,)`` for the Shapley and
    Banzhaf values, ``(a, b)`` with ``a < b`` for interactions.  A block
    holds as many of its rows as ``_BLOCK_CONTEXTS`` contexts allow, at
    least one, and is evaluated by one ``values_by_mask`` call, which
    returns each row's context value and difference, then weighted and
    reduced row-wise at once.  The ESS of K raw
    weights is ``total**2 / square_total``, clamped to [1, K] against
    roundoff, and the standard error is the delta-method ``sqrt(sum_k (w_k
    (m_k - estimate))**2)`` over the normalized weights w and the marginals
    m, inf where it passes float64's range.
    """
    k, slots = cfg.sample_count, len(family.tokens)
    if cfg.mode == "gibbs":
        # cfg checked the temperature; the probabilities, 1/C(n-1, s) or
        # 2**-(n-f) with n <= 64, all lie in (0, 1], so they need no check
        log_probs = np.log(_proposal_probs(family, game.n))
    per_block = max(1, _BLOCK_CONTEXTS // k)
    estimates, ess, errors = np.empty(slots), np.empty(slots), np.empty(slots)
    for start in range(0, slots, per_block):
        rows = slice(start, start + per_block)
        base, marginals = game.values_by_mask(family.rows(rows))
        raw = _gibbs_kernel(base, log_probs[rows], cfg.gamma) if cfg.mode == "gibbs" else np.ones(base.shape)
        # in classic mode every total is exactly K, every weight 1/K
        totals = raw.sum(axis=-1)
        normalized = raw / totals[:, None]
        # vecdot takes each row's dot product through the same BLAS ddot as np.dot
        estimates[rows] = np.vecdot(normalized, marginals)
        ess[rows] = np.clip(totals * totals / np.vecdot(raw, raw), 1.0, k)
        # w_k (m_k - estimate) is finite, as w_k <= 1; its square may overflow to inf
        marginals -= estimates[rows, None]
        marginals *= normalized
        errors[rows] = np.sqrt(np.square(marginals, out=marginals).sum(axis=-1))
    return estimates, ess, errors


def estimate_all(game, cfg: EstimatorConfig) -> GameValues:
    """Estimate every token's Shapley and Banzhaf value and every pair's
    interaction potential, with their standard errors.

    Uses ``2K`` characteristic evaluations per token per index family and
    ``4K`` per pair: ``2*K*n*(n+1)`` in total for the full set, all through
    ``values_by_mask``, in the blocks of slots the module docstring
    describes.  Every number equals, bit for bit, what one slot alone would
    give: its contexts taken from its pool (the permutations for a Shapley
    value, the words for a Banzhaf value or an interaction), evaluated as
    an ``Extensions`` of the pool by its own tokens and weighted on its own.
    """
    n, k = game.n, cfg.sample_count
    tokens = np.arange(n)[:, None]
    rows, cols = np.triu_indices(n, 1)
    orders = Extensions(None, tokens, _draw_pool(cfg.seed, _SHAPLEY_STREAM, n, k))
    words = Extensions(_draw_pool(cfg.seed, _BERNOULLI_STREAM, n, k), tokens)
    # on the words' copy and evaluated right after their token rows, the
    # pair rows find the game's sums of the words formed
    pairs = words.with_tokens(np.column_stack([rows, cols]))
    # the games keep every value and difference finite, so only the weights'
    # log-scale shift can overflow, to a weight of exactly 0; one errstate
    # per call, not per block, as entering one costs about 0.7 us
    with np.errstate(over="ignore"):
        shapley, shapley_ess, shapley_se = _estimate_family(game, cfg, orders)
        banzhaf, banzhaf_ess, banzhaf_se = _estimate_family(game, cfg, words)
        pair_values, _, pair_se = _estimate_family(game, cfg, pairs)
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
