import math

import numpy as np
import pytest

from coalattn.estimators import sample_bernoulli_coalitions, sample_permutation_prefixes
from coalattn.games import Extensions, TabularGame

# three-token walkthrough table, indexed by coalition bitmask (bit i = token i)
WORKED_TABLE = (0.0, 0.2, 0.5, 1.2, 0.4, 0.8, 1.0, 1.8)


@pytest.fixture
def worked_game() -> TabularGame:
    return TabularGame(WORKED_TABLE)


def random_table_game(rng: np.random.Generator, n: int, scale: float = 1.0) -> TabularGame:
    """Random tabular game with the empty coalition pinned to zero."""
    values = rng.uniform(-scale, scale, size=1 << n)
    values[0] = 0.0
    return TabularGame(values)


def additive_table_game(weights) -> TabularGame:
    """Game where v(C) is the sum of per-token weights; Shapley and Banzhaf
    values of an additive game equal the weights exactly."""
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    values = np.zeros(1 << n)
    for mask in range(1 << n):
        values[mask] = sum(weights[i] for i in range(n) if (mask >> i) & 1)
    return TabularGame(values)


def reference_stream(seed: int, kind: int, *indices: int) -> np.random.Generator:
    """A fresh generator on one slot's stream, keyed from the documented
    formula: with ``(h0, h1)`` the two words ``SeedSequence(entropy=seed,
    spawn_key=(kind,))`` generates, the key is ``(h0, h1 ^ id)``, where
    ``id`` is 0 for no index, ``i`` for ``(i,)`` and ``a * 2**32 + b`` for
    ``(a, b)``.  The key goes to ``Philox`` as a uint64 array: ``Philox``
    turns a list of Python ints into float64, and a word of 64 bits loses
    its low bits on the way."""
    h0, h1 = np.random.SeedSequence(entropy=int(seed), spawn_key=(kind,)).generate_state(2, np.uint64)
    if len(indices) == 2:
        ident = indices[0] * 2**32 + indices[1]
    else:
        ident = indices[0] if indices else 0
    key = np.array([int(h0), int(h1) ^ ident], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reference_slot(game, cfg, kind: int, slot: tuple) -> tuple[float, float, float]:
    """(estimate, ESS, standard error) of one slot computed on its own: a
    freshly keyed ``Philox`` stream (``reference_stream``), one evaluation
    of the ``Extensions`` of its contexts by the subsets of its tokens, and
    one weighting.

    *kind* is the stream identifier (1 Shapley prefixes, 2 Banzhaf
    coalitions, 3 pair interactions) and *slot* the token indices, ``(i,)``
    or ``(a, b)`` with ``a < b``.  The standard error is the delta-method
    ``sqrt(sum w_k**2 (m_k - est)**2)`` over the normalized weights, which
    reduces to ``std/sqrt(K)`` for uniform weights.
    """
    k = cfg.sample_count
    rng = reference_stream(cfg.seed, kind, *slot)
    if kind == 1:
        contexts, probs = sample_permutation_prefixes(rng, game.n, slot[0], k)
    else:
        contexts, probs = sample_bernoulli_coalitions(rng, game.n, set(slot), k)
    bits = [1 << t for t in slot]
    added = [0, bits[0]]
    if len(slot) == 2:
        added += [bits[1], bits[0] | bits[1]]
    values = game.values_by_mask(Extensions(contexts[None], np.array(added, dtype=np.uint64)[None]))[0]
    base = values[0]
    if len(slot) == 1:
        marginals = values[1] - base
    else:
        marginals = values[3] - values[1] - values[2] + base
    if cfg.mode == "gibbs":
        log_raw = base / cfg.gamma - np.log(probs)
        raw = np.exp(log_raw - np.max(log_raw))
        normalized = raw / raw.sum()
    else:
        raw, normalized = np.ones(k), np.full(k, 1.0 / k)
    ess = min(max(float(np.sum(raw)) ** 2 / float(np.sum(raw * raw)), 1.0), float(k))
    estimate = float(np.dot(normalized, marginals))
    se = float(np.sqrt(np.sum(normalized * normalized * (marginals - estimate) ** 2)))
    return estimate, ess, se


# The exact oracles as they were written before they read the table as a
# (2,)*n cube: every slot filters the 2**n masks for its contexts.  Kept as
# an independent reference that the cube views must match bit for bit.


def _masks_excluding(n: int, *tokens: int) -> np.ndarray:
    """All coalition masks over n tokens containing none of *tokens*."""
    masks = np.arange(1 << n, dtype=np.int64)
    keep = np.ones(masks.size, dtype=bool)
    for t in tokens:
        keep &= (masks & (1 << t)) == 0
    return masks[keep]


def _reference_tilted_average(log_weights: np.ndarray, deltas: np.ndarray) -> float:
    shifted = log_weights - np.max(log_weights)
    w = np.exp(shifted)
    w /= w.sum()
    return float(np.dot(w, deltas))


def _reference_pair_deltas(table: np.ndarray, n: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = (i, j) if i < j else (j, i)
    masks = _masks_excluding(n, lo, hi)
    bl, bh = 1 << lo, 1 << hi
    base = table[masks]
    return base, table[masks | bl | bh] - table[masks | bl] - table[masks | bh] + base


def reference_game_values(table: np.ndarray) -> tuple[list, list, np.ndarray]:
    """(Shapley values, Banzhaf values, interaction matrix) of a table game
    by mask filtering, one token or pair at a time."""
    n = table.size.bit_length() - 1
    size_weights = np.array(
        [math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n) for s in range(n)]
    )
    shapley, banzhaf = [], []
    for i in range(n):
        masks = _masks_excluding(n, i)
        deltas = table[masks | (1 << i)] - table[masks]
        shapley.append(float(np.dot(size_weights[np.bitwise_count(masks)], deltas)))
        banzhaf.append(float(np.mean(deltas)))
    interactions = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            interactions[i, j] = interactions[j, i] = float(np.mean(_reference_pair_deltas(table, n, i, j)[1]))
    return shapley, banzhaf, interactions


def reference_tilted_values(table: np.ndarray, gamma: float) -> tuple[list, list, np.ndarray]:
    """The Gibbs-tilted counterparts of ``reference_game_values``: (prefix
    Shapley limits, Banzhaf limits, interaction matrix)."""
    n = table.size.bit_length() - 1
    log_p_by_size = np.array(
        [math.lgamma(s + 1) + math.lgamma(n - s) - math.lgamma(n) for s in range(n)]
    )
    shapley, banzhaf = [], []
    for i in range(n):
        masks = _masks_excluding(n, i)
        base = table[masks]
        deltas = table[masks | (1 << i)] - base
        log_p = log_p_by_size[np.bitwise_count(masks)]
        log_q = log_p - math.log(n)
        shapley.append(_reference_tilted_average(log_q + base / gamma - log_p, deltas))
        banzhaf.append(_reference_tilted_average(base / gamma, deltas))
    interactions = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            base, deltas = _reference_pair_deltas(table, n, i, j)
            interactions[i, j] = interactions[j, i] = _reference_tilted_average(base / gamma, deltas)
    return shapley, banzhaf, interactions


def reference_monotonicity_violations(table: np.ndarray) -> int:
    """Count of (C, C+{i}) pairs with ``v(C+i) < v(C)``, filtering the
    ``2**n`` masks for the coalitions without each token."""
    n = table.size.bit_length() - 1
    masks = np.arange(table.size, dtype=np.int64)
    count = 0
    for i in range(n):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        count += int(np.sum(table[without | bit] < table[without]))
    return count


def reference_spin_marginals(fields, couplings, gamma: float, logsumexp) -> tuple[list, float]:
    """(alphas, log partition) of a spin system by full enumeration, with one
    *logsumexp* call per spin over the configurations whose bit is set."""
    fields = np.asarray(fields, dtype=np.float64)
    couplings = np.asarray(couplings, dtype=np.float64)
    n = fields.size
    configs = np.arange(1 << n, dtype=np.uint64)
    bits = (configs[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1)
    spins = 2.0 * bits.astype(np.float64) - 1.0
    energies = -(spins @ fields) - 0.5 * np.einsum("ki,ij,kj->k", spins, couplings, spins)
    log_weights = -energies / gamma
    log_z = float(logsumexp(log_weights))
    alphas = [math.exp(float(logsumexp(log_weights[bits[:, i] == 1])) - log_z) for i in range(n)]
    return alphas, log_z
