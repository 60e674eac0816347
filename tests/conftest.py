import numpy as np
import pytest

from coalattn.estimators import sample_bernoulli_coalitions, sample_permutation_prefixes
from coalattn.games import TabularGame

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


def reference_slot(game, cfg, kind: int, slot: tuple) -> tuple[float, float, float]:
    """(estimate, ESS, standard error) of one slot computed on its own: a
    freshly seeded ``Philox`` stream, one evaluation and one weighting.

    *kind* is the stream identifier (1 Shapley prefixes, 2 Banzhaf
    coalitions, 3 pair interactions) and *slot* the token indices, ``(i,)``
    or ``(a, b)`` with ``a < b``.  The standard error is the delta-method
    ``sqrt(sum w_k**2 (m_k - est)**2)`` over the normalized weights, which
    reduces to ``std/sqrt(K)`` for uniform weights.
    """
    k = cfg.sample_count
    seeds = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(kind, *slot))
    rng = np.random.Generator(np.random.Philox(seeds))
    if kind == 1:
        contexts, probs = sample_permutation_prefixes(rng, game.n, slot[0], k)
    else:
        contexts, probs = sample_bernoulli_coalitions(rng, game.n, set(slot), k)
    bits = [np.uint64(1 << t) for t in slot]
    added = [contexts, contexts | bits[0]]
    if len(slot) == 2:
        added += [contexts | bits[1], contexts | bits[0] | bits[1]]
    values = game.values_by_mask(np.concatenate(added))
    base = values[:k]
    if len(slot) == 1:
        marginals = values[k:] - base
    else:
        marginals = values[3 * k :] - values[k : 2 * k] - values[2 * k : 3 * k] + base
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
