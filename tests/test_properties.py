"""Property-based checks of the evaluation, sampling and estimation hot paths
and of the exact oracles' game-theory axioms.

Example counts are kept small so the suite stays fast; each hot-path property
is also covered at the byte boundaries of the 64-bit coalition masks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalattn.estimators import (
    MODES,
    EstimatorConfig,
    banzhaf_sample_batch,
    estimate_all,
    estimate_banzhaf,
    estimate_interaction,
    estimate_shapley,
    sample_bernoulli_coalitions,
    sample_permutation_prefixes,
    shapley_sample_batch,
    token_stream,
)
from coalattn.games import NONLINEARITIES, EmbeddingGame, GibbsTarget, TabularGame
from coalattn.oracles import (
    exact_game_values,
    exact_gibbs_tilted_values,
    exact_interaction,
    exact_tilted_interaction,
)

from conftest import random_table_game

# token counts on either side of the byte boundaries of a mask
BOUNDARY_TOKEN_COUNTS = (1, 8, 9, 63, 64)

_SETTINGS = settings(max_examples=30, deadline=None)


def _game(seed: int, n: int, d: int, d_v: int, nonlinearity: str) -> EmbeddingGame:
    rng = np.random.default_rng(seed)
    return EmbeddingGame(rng.normal(size=(n, d)), rng.normal(size=(d, d_v)), nonlinearity)


def _reference_values(game: EmbeddingGame, masks: np.ndarray) -> np.ndarray:
    """``f(||membership @ projected||)`` with an explicit membership matrix."""
    bits = np.arange(game.n, dtype=np.uint64)
    membership = ((masks[:, None] >> bits[None, :]) & np.uint64(1)).astype(np.float64)
    norms = np.linalg.norm(membership @ game.projected, axis=1)
    return {"relu": np.maximum(norms, 0.0), "tanh": np.tanh(norms), "identity": norms}[
        game.nonlinearity
    ]


@st.composite
def _games_and_masks(draw):
    n = draw(st.sampled_from(BOUNDARY_TOKEN_COUNTS))
    game = _game(
        draw(st.integers(0, 2**32 - 1)),
        n,
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
        draw(st.sampled_from(NONLINEARITIES)),
    )
    drawn = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=20))
    # the top token's bit and the grand coalition ride along in every batch
    masks = np.array(drawn + [1 << (n - 1), (1 << n) - 1], dtype=np.uint64)
    return game, masks


@_SETTINGS
@given(_games_and_masks(), st.sampled_from(("uint64", "int64", "strided")))
def test_values_match_membership_matmul(game_and_masks, layout):
    game, masks = game_and_masks
    if layout == "int64":
        given_masks = masks.view(np.int64)  # bit 63 reads as the sign bit
    elif layout == "strided":
        given_masks = np.repeat(masks, 3)[1::3]
        assert not given_masks.flags.c_contiguous
    else:
        given_masks = masks
    got = game.values_by_mask(given_masks)
    ref = _reference_values(game, masks)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
@pytest.mark.parametrize("n", BOUNDARY_TOKEN_COUNTS)
def test_empty_coalition_is_exactly_zero(n, nonlinearity):
    game = _game(n, n, 3, 4, nonlinearity)
    assert game.values_by_mask(np.zeros(3, dtype=np.uint64)).tolist() == [0.0, 0.0, 0.0]
    assert game.value_by_mask(0) == 0.0


@st.composite
def _bernoulli_cases(draw):
    n = draw(st.sampled_from((1, 63, 64)))
    excluded = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return n, excluded, draw(st.integers(1, 64)), draw(st.integers(0, 2**64 - 1))


@_SETTINGS
@given(_bernoulli_cases())
def test_bernoulli_sampler_sets_only_allowed_bits(case):
    n, excluded, count, seed = case
    masks, probs = sample_bernoulli_coalitions(token_stream(seed, 97), n, excluded, count)
    assert masks.dtype == np.uint64 and masks.shape == (count,)
    for mask in masks.tolist():
        assert mask < (1 << n)
        assert not any((mask >> t) & 1 for t in excluded)
    np.testing.assert_array_equal(probs, np.full(count, 0.5 ** (n - len(excluded))))


@st.composite
def _estimation_cases(draw):
    n = draw(st.sampled_from((1, 2, 9, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n == 64 or draw(st.booleans()):
        nonlinearity = draw(st.sampled_from(NONLINEARITIES))
        game = EmbeddingGame(rng.normal(size=(n, 4)), rng.normal(size=(4, 3)), nonlinearity)
    else:
        game = random_table_game(rng, n)
    # at most 1024 masks go to one evaluation: K = 5, 25 and 100 leave a
    # partly filled last block, and at K = 300 a pair alone (1200 masks),
    # at K = 1025 every slot alone, is over the cap
    k = draw(st.sampled_from((1, 5, 25) if n == 64 else (1, 5, 25, 100, 300, 1025)))
    return game, k, draw(st.integers(0, 2**64 - 1)), draw(st.sampled_from((0.05, 0.25, 4.0)))


def _reference_slot(game, cfg: EstimatorConfig, kind: int, slot: tuple) -> tuple[float, float]:
    """(estimate, ESS) of one slot the way the per-slot code computed it:
    a freshly seeded stream, one evaluation and one weighting per slot."""
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
    return float(np.dot(normalized, marginals)), ess


@settings(max_examples=10, deadline=None)
@given(_estimation_cases())
def test_estimate_all_equals_the_per_slot_estimates(case):
    game, k, seed, gamma = case
    n = game.n
    for mode in MODES:
        cfg = EstimatorConfig(sample_count=k, seed=seed, gamma=gamma, mode=mode)
        values = estimate_all(game, cfg)
        for i in range(n):
            ess = min(
                shapley_sample_batch(game, i, cfg).effective_sample_size,
                banzhaf_sample_batch(game, i, cfg).effective_sample_size,
            )
            assert values.shapley_hat[i] == estimate_shapley(game, i, cfg)
            assert values.banzhaf_hat[i] == estimate_banzhaf(game, i, cfg)
            assert values.effective_sample_size[i] == ess
            (shapley, shapley_ess), (banzhaf, banzhaf_ess) = (
                _reference_slot(game, cfg, kind, (i,)) for kind in (1, 2)
            )
            assert (values.shapley_hat[i], values.banzhaf_hat[i]) == (shapley, banzhaf)
            assert ess == min(shapley_ess, banzhaf_ess)
        for i in range(n):
            for j in range(i + 1, n):
                assert values.interactions_hat[i, j] == values.interactions_hat[j, i]
                assert values.interactions_hat[i, j] == estimate_interaction(game, j, i, cfg)
                assert values.interactions_hat[i, j] == _reference_slot(game, cfg, 3, (i, j))[0]


# exact-oracle axioms on random tabular games of up to 8 tokens
_AXIOM_SETTINGS = settings(max_examples=25, deadline=None)
_AXIOM_TOL = 1e-12


@st.composite
def _table_games(draw, min_n=1):
    n = draw(st.integers(min_n, 8))
    return random_table_game(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)


@_AXIOM_SETTINGS
@given(_table_games())
def test_shapley_efficiency(game):
    values = exact_game_values(game)
    grand = game.value_by_mask((1 << game.n) - 1)
    assert abs(float(np.sum(values.shapley)) - grand) <= _AXIOM_TOL


@_AXIOM_SETTINGS
@given(_table_games(min_n=2), st.data())
def test_symmetric_tokens_get_equal_values(game, data):
    a, b = data.draw(st.lists(st.integers(0, game.n - 1), min_size=2, max_size=2, unique=True))
    masks = np.arange(1 << game.n, dtype=np.int64)
    bit_a, bit_b = (masks >> a) & 1, (masks >> b) & 1
    swapped = (masks & ~((1 << a) | (1 << b))) | (bit_b << a) | (bit_a << b)
    sym = TabularGame(0.5 * (game.table + game.table[swapped]))
    others = [k for k in range(game.n) if k not in (a, b)]
    for values in (exact_game_values(sym), exact_gibbs_tilted_values(sym, GibbsTarget(0.5))):
        assert abs(values.shapley[a] - values.shapley[b]) <= _AXIOM_TOL
        assert abs(values.banzhaf[a] - values.banzhaf[b]) <= _AXIOM_TOL
        gap = values.interactions[a, others] - values.interactions[b, others]
        assert np.all(np.abs(gap) <= _AXIOM_TOL)


@_AXIOM_SETTINGS
@given(_table_games(), st.data())
def test_dummy_token_is_worth_its_own_contribution(base, data):
    # insert token p, which adds the constant c to every coalition it joins
    n = base.n + 1
    p = data.draw(st.integers(0, base.n))
    c = data.draw(st.sampled_from((0.0, 0.375, -1.25)))
    masks = np.arange(1 << n, dtype=np.int64)
    low = masks & ((1 << p) - 1)
    rest = (masks >> (p + 1)) << p
    game = TabularGame(base.table[low | rest] + c * ((masks >> p) & 1))
    others = [k for k in range(n) if k != p]
    for values in (exact_game_values(game), exact_gibbs_tilted_values(game, GibbsTarget(0.5))):
        assert abs(values.shapley[p] - c) <= _AXIOM_TOL
        assert abs(values.banzhaf[p] - c) <= _AXIOM_TOL
        assert np.all(np.abs(values.interactions[p, others]) <= _AXIOM_TOL)


@_AXIOM_SETTINGS
@given(_table_games(min_n=2), st.data())
def test_interactions_ignore_pair_orientation(game, data):
    i, j = data.draw(st.lists(st.integers(0, game.n - 1), min_size=2, max_size=2, unique=True))
    target = GibbsTarget(0.5)
    assert exact_interaction(game, i, j) == exact_interaction(game, j, i)
    assert exact_tilted_interaction(game, i, j, target) == exact_tilted_interaction(game, j, i, target)
    for values in (exact_game_values(game), exact_gibbs_tilted_values(game, target)):
        np.testing.assert_array_equal(values.interactions, values.interactions.T)
        assert np.all(np.diag(values.interactions) == 0.0)
