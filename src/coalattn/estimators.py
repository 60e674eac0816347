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

Randomness is counter-based: each slot (one estimated quantity: a token's
Shapley or Banzhaf value, or a pair's interaction) gets its own Philox
stream.  The seed and the family's kind are hashed once by
``SeedSequence(entropy=seed, spawn_key=(kind,))`` into two words ``(h0,
h1)``, and a slot's key is ``(h0, h1 ^ id)`` with ``id`` its token index, or
``a << 32 | b`` for a pair ``(a, b)``.  Results are a pure function of
(game, config) no matter how calls are scheduled, and estimating one token
never perturbs another.  A Bernoulli coalition is one 64-bit Philox word
masked to the allowed token bits: every bit of the word is an independent
fair coin, so each allowed token is a member with probability 1/2.

Every estimate runs through one block path.  The Philox keys of all slots
of a family are formed at once, and a single generator is re-keyed for each
slot (counter 0, empty buffer), which gives the same words as a freshly
built ``Philox(key=...)`` without building a generator per slot.  Slots are
then sampled one by one from their own streams, and a block of at most
``_BLOCK_CONTEXTS`` sampled contexts is evaluated by one ``values_by_mask``
call on the ``Extensions`` of those contexts by each slot's added token
sets.  The block's weights, estimates and effective sample sizes are then
computed for all its rows at once; every reduction runs along a row alone,
so a slot's numbers do not depend on the block it lands in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .games import Extensions, GameValues
from .linalg import as_integer, over_temperature

__all__ = [
    "MAX_SAMPLE_COUNT",
    "EstimatorConfig",
    "sample_permutation_prefixes",
    "sample_bernoulli_coalitions",
    "gibbs_weights",
    "estimate_all",
]

MODES = ("gibbs", "classic")

# Largest sample count K accepted: far above any count an estimate needs
# (the acceptance tests use 50,000), and small enough that every K-long
# array has a size numpy can represent; a K whose arrays do not fit in
# memory ends in MemoryError, which the CLI reports as a limit refusal.
MAX_SAMPLE_COUNT = 2**32

# stream identifiers for the counter-based RNG split
_SHAPLEY_STREAM = 1
_BANZHAF_STREAM = 2
_INTERACTION_STREAM = 3

# Most sampled contexts one values_by_mask call of estimate_all evaluates; a
# block holds as many whole slots as fit, at least one (one slot per call for
# K > 512).  Each context is evaluated with all 2 (token) or 4 (pair) of
# its slot's added sets, but its coalition sum is gathered once, so the
# working arrays grow with the context count: one d_v-wide row of partial
# sums per context for an EmbeddingGame.  Blocks spread the per-call cost
# over many slots (4 pairs per call at K = 256).  On an n=32, d_v=32 game at
# K = 256, caps of 1024 and 2048 contexts were fastest of 512-4096 (75-85 ms
# per estimate_all against 110 ms at 512), and 1024 keeps the arrays smaller.
_BLOCK_CONTEXTS = 1024


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


def _philox_keys(seed: int, kind: int, slots) -> np.ndarray:
    """Philox keys of many slots of one kind, one ``(2,)`` uint64 row each.

    With ``(h0, h1) = np.random.SeedSequence(entropy=seed,
    spawn_key=(kind,)).generate_state(2, np.uint64)``, row r is ``(h0, h1 ^
    id)``, where ``id`` packs the slot's indices, each below ``2**32``, into
    one word: 0 for ``()``, ``i`` for ``(i,)``, ``a << 32 | b`` for ``(a,
    b)``.  A counter-based generator takes a stream identifier as its key
    (Salmon et al., *Parallel Random Numbers: As Easy as 1, 2, 3*, SC 2011).
    """
    h0, h1 = np.random.SeedSequence(entropy=int(seed), spawn_key=(kind,)).generate_state(2, np.uint64)
    ids = np.zeros(len(slots), dtype=np.uint64)
    for column in np.asarray(slots, dtype=np.uint64).T:  # one array per index position
        ids = ids << np.uint64(32) | column
    return np.column_stack([np.full_like(ids, h0), ids ^ h1])


def _slot_streams(seed: int, kind: int, slots):
    """Yield each slot's Philox stream, in order.

    One generator is re-keyed per slot: counter 0 and an empty buffer are
    the state ``Philox`` starts from, so the draws equal those of a new
    generator.  Each yielded generator is only valid until the next one.
    """
    rng = np.random.Generator(np.random.Philox(0))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": None},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in _philox_keys(seed, kind, slots).tolist():
        state["state"]["key"] = key
        rng.bit_generator.state = state
        yield rng


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


def gibbs_weights(values: np.ndarray, probs: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Self-normalized Gibbs importance weights of each row (the last axis)
    of *values*, with *probs* the matching proposal probabilities.

    The raw weight of sample k is ``exp(v_k/gamma) / p_k`` and each row of
    normalized weights sums to one.  Raw weights are formed on the log scale
    and shifted by the row's max log-weight before exponentiation, so the
    largest raw weight of a row is 1 and no large exponential is ever formed;
    the common factor cancels in the normalization; an overflowing
    ``v_k/gamma`` raises ``linalg.TemperatureError``.  A log-weight more
    than float64's range below its row's max shifts to -inf, a weight of
    exactly 0, with numpy's overflow warning unless the caller ignores it,
    as ``estimate_all`` does.  Returns (raw, normalized).
    """
    if np.any(np.isnan(values)):
        raise ValueError("values must not contain NaN")
    if np.any((probs <= 0.0) | (probs > 1.0)):
        raise ValueError("proposal probabilities must lie in (0, 1]")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    log_raw = over_temperature(values, gamma, "coalition_gamma") - np.log(probs)
    raw = np.exp(log_raw - np.max(log_raw, axis=-1, keepdims=True))
    return raw, raw / raw.sum(axis=-1, keepdims=True)


def _estimate_family(game, cfg: EstimatorConfig, kind: int, slots: list[tuple[int, ...]]):
    """Estimate and effective sample size of every slot of one family.

    Each slot is a tuple of token indices: ``(i,)`` for the Shapley and
    Banzhaf kinds, ``(a, b)`` with ``a < b`` for interactions.  A block
    holds as many slots as ``_BLOCK_CONTEXTS`` sampled contexts allow, at
    least one.  Each block's slots are sampled from their own streams and
    evaluated by one ``values_by_mask`` call on the ``Extensions`` of their
    contexts by their added sets; the block is then weighted and reduced
    row-wise at once, so its rows of the estimates and effective sample
    sizes are written together.  The ESS of K raw weights is ``total**2 /
    square_total``, clamped to [1, K] against roundoff.
    """
    n, k = game.n, cfg.sample_count
    # each slot's coalitions are its sampled contexts with every subset of
    # its tokens added, in the order none, first, (second, both)
    added = np.zeros((len(slots), 1), dtype=np.uint64)
    for column in np.array(slots, dtype=np.uint64).T:
        added = np.concatenate([added, added | np.left_shift(np.uint64(1), column)[:, None]], axis=1)
    per_block = max(1, _BLOCK_CONTEXTS // k)
    streams = _slot_streams(cfg.seed, kind, slots)
    estimates = np.empty(len(slots))
    ess = np.empty(len(slots))
    for start in range(0, len(slots), per_block):
        rows = slice(start, start + per_block)
        block = slots[rows]
        contexts = np.empty((len(block), k), dtype=np.uint64)
        probs = np.empty((len(block), k))
        for row, (slot, rng) in enumerate(zip(block, streams)):
            if kind == _SHAPLEY_STREAM:
                contexts[row], probs[row] = sample_permutation_prefixes(rng, n, slot[0], k)
            else:
                contexts[row], probs[row] = sample_bernoulli_coalitions(rng, n, slot, k)
        values = game.values_by_mask(Extensions(contexts, added[rows]))
        base = values[:, 0]
        if values.shape[1] == 2:
            marginals = values[:, 1] - base
        else:
            marginals = values[:, 3] - values[:, 1] - values[:, 2] + base
        if cfg.mode == "gibbs":
            raw, normalized = gibbs_weights(base, probs, cfg.gamma)
        else:
            raw, normalized = np.ones((len(block), k)), np.full((len(block), k), 1.0 / k)
        # vecdot takes each row's dot product through the same BLAS ddot as
        # np.dot; the Python float power `t ** 2` (libm pow) keeps the ESS
        # bits, where an array `t * t` rounds differently on some inputs
        estimates[rows] = np.vecdot(normalized, marginals)
        totals, square_totals = raw.sum(axis=-1).tolist(), (raw * raw).sum(axis=-1).tolist()
        ess[rows] = [min(max(t**2 / q, 1.0), k) for t, q in zip(totals, square_totals)]
    return estimates, ess


def estimate_all(game, cfg: EstimatorConfig) -> GameValues:
    """Estimate every token's Shapley and Banzhaf value and every pair's
    interaction potential.

    Uses ``2K`` characteristic evaluations per token per index family and
    ``4K`` per pair: ``2*K*n*(n+1)`` in total for the full set, all through
    ``values_by_mask``, in the blocks of slots the module docstring
    describes.  Every number equals, bit for bit, what one slot sampled from
    a freshly keyed ``Philox`` stream, evaluated as the ``Extensions`` of
    its own contexts and weighted on its own would give.
    """
    n = game.n
    tokens = [(i,) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # the games keep every value and difference finite, so only the weights'
    # log-scale shift can overflow, to a weight of exactly 0; one errstate
    # per call, not per block, as entering one costs about 0.7 us
    with np.errstate(over="ignore"):
        shapley, shapley_ess = _estimate_family(game, cfg, _SHAPLEY_STREAM, tokens)
        banzhaf, banzhaf_ess = _estimate_family(game, cfg, _BANZHAF_STREAM, tokens)
        pair_values, _ = _estimate_family(game, cfg, _INTERACTION_STREAM, pairs)
    interactions = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)  # the order of `pairs`
    interactions[rows, cols] = pair_values
    interactions[cols, rows] = pair_values
    return GameValues(shapley, banzhaf, interactions, np.minimum(shapley_ess, banzhaf_ess))
