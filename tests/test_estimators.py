import numpy as np
import pytest

from coalattn.estimators import (
    EstimatorConfig,
    banzhaf_sample_batch,
    estimate_all,
    estimate_banzhaf,
    estimate_interaction,
    estimate_shapley,
    interaction_sample_batch,
    normalize_weights,
    sample_bernoulli_coalitions,
    sample_permutation_prefixes,
    shapley_sample_batch,
    token_stream,
    weighted_standard_error,
)
from coalattn.games import GibbsTarget
from coalattn.oracles import (
    exact_banzhaf,
    exact_interaction,
    exact_shapley,
    exact_tilted_banzhaf,
    exact_tilted_interaction,
    exact_tilted_shapley_prefix,
)

from conftest import additive_table_game, random_table_game


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = EstimatorConfig()
        assert cfg.sample_count == 25 and cfg.mode == "gibbs"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_count": 0},
            {"gamma": 0.0},
            {"gamma": float("inf")},
            {"mode": "jackknife"},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)


class TestPrefixSampling:
    def test_proposal_probability_by_size_n3(self):
        rng = token_stream(0, 99)
        masks, probs = sample_permutation_prefixes(rng, 3, 1, 4000)
        sizes = np.array([int(m).bit_count() for m in masks])
        # p(size 0) = 0!*2!/2! = 1, p(size 1) = 1!*1!/2! = 0.5, p(size 2) = 1
        np.testing.assert_array_equal(probs[sizes == 0], 1.0)
        np.testing.assert_array_equal(probs[sizes == 1], 0.5)
        np.testing.assert_array_equal(probs[sizes == 2], 1.0)
        assert {0, 1, 2} == set(sizes.tolist())

    def test_single_token_sequence(self):
        masks, probs = sample_permutation_prefixes(token_stream(1, 99), 1, 0, count=1)
        assert masks.tolist() == [0] and probs.tolist() == [1.0]

    def test_target_token_never_sampled(self):
        rng = token_stream(2, 99)
        masks, _ = sample_permutation_prefixes(rng, 5, 2, 2000)
        assert not np.any(masks & np.uint64(1 << 2))

    def test_prefix_sizes_cover_range(self):
        rng = token_stream(3, 99)
        masks, _ = sample_permutation_prefixes(rng, 4, 0, 4000)
        sizes = {int(m).bit_count() for m in masks}
        assert sizes == {0, 1, 2, 3}

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            sample_permutation_prefixes(token_stream(0, 99), 3, 3, 1)

    @pytest.mark.parametrize(
        "n,i,seed", [(1, 0, 0), (2, 1, 3), (5, 2, 7), (17, 0, 11), (64, 63, 5), (64, 20, 9)]
    )
    def test_masks_match_masked_sum_of_permuted_bits(self, n, i, seed):
        count = 300
        masks, probs = sample_permutation_prefixes(token_stream(seed, 99), n, i, count)
        # the same draws, summed over the kept prefix positions
        rng = token_stream(seed, 99)
        sizes = rng.integers(0, n, size=count)
        expected = np.zeros(count, dtype=np.uint64)
        if n > 1:
            others = np.array([t for t in range(n) if t != i], dtype=np.uint64)
            perms = rng.permuted(np.tile(others, (count, 1)), axis=1)
            keep = np.arange(n - 1)[None, :] < sizes[:, None]
            bits = np.left_shift(np.uint64(1), perms)
            expected = np.where(keep, bits, np.uint64(0)).sum(axis=1, dtype=np.uint64)
        np.testing.assert_array_equal(masks, expected)
        assert masks.dtype == np.uint64
        assert np.array_equal([int(m).bit_count() for m in masks], sizes)


class TestBernoulliSampling:
    def test_single_exclusion_probability(self):
        _, probs = sample_bernoulli_coalitions(token_stream(0, 98), 3, {1}, 100)
        np.testing.assert_array_equal(probs, 0.25)

    def test_pair_exclusion_probability(self):
        _, probs = sample_bernoulli_coalitions(token_stream(0, 98), 3, {0, 2}, 100)
        np.testing.assert_array_equal(probs, 0.5)

    def test_two_token_game_hits_both_outcomes(self):
        rng = token_stream(1, 98)
        masks, probs = sample_bernoulli_coalitions(rng, 2, {0}, 500)
        assert set(np.unique(masks).tolist()) == {0, 2}
        np.testing.assert_array_equal(probs, 0.5)

    def test_excluded_tokens_absent(self):
        rng = token_stream(2, 98)
        masks, _ = sample_bernoulli_coalitions(rng, 6, {1, 4}, 1000)
        assert not np.any(masks & np.uint64((1 << 1) | (1 << 4)))

    def test_scalar_wrapper(self):
        masks, probs = sample_bernoulli_coalitions(token_stream(3, 98), 3, {2}, count=1)
        assert masks.shape == (1,) and not masks[0] & np.uint64(1 << 2)
        assert probs.tolist() == [0.25]

    def test_excluding_every_token_degenerates_to_empty(self):
        # one-token Banzhaf sampling: the only coalition is empty, prob 1
        masks, probs = sample_bernoulli_coalitions(token_stream(0, 98), 1, {0}, 5)
        np.testing.assert_array_equal(masks, 0)
        np.testing.assert_array_equal(probs, 1.0)

    def test_out_of_range_exclusion_rejected(self):
        with pytest.raises(ValueError):
            sample_bernoulli_coalitions(token_stream(0, 98), 2, {5}, 1)


class TestNormalizeWeights:
    def test_worked_values(self):
        batch = normalize_weights([0.5, 0.8, 1.0], [1.0, 1.0, 1.0], 1.0)
        # frozen full-precision weights; the 2-decimal view is 0.25/0.34/0.41
        np.testing.assert_allclose(
            batch.normalized_weights, [0.250089, 0.337585, 0.412327], atol=5e-7
        )
        np.testing.assert_allclose(batch.normalized_weights, [0.25, 0.34, 0.41], atol=0.005)

    def test_single_sample(self):
        batch = normalize_weights([2.0], [0.5], 1.0)
        np.testing.assert_array_equal(batch.normalized_weights, [1.0])

    def test_equal_values_equal_proposals(self):
        batch = normalize_weights([0.7] * 8, [0.25] * 8, 0.5)
        np.testing.assert_allclose(batch.normalized_weights, 1.0 / 8, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            k = int(rng.integers(1, 40))
            batch = normalize_weights(
                rng.normal(size=k), rng.uniform(0.01, 1.0, size=k), 0.4
            )
            assert abs(float(np.sum(batch.normalized_weights)) - 1.0) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(72)
        values = rng.normal(size=30)
        probs = rng.uniform(0.1, 1.0, size=30)
        base = normalize_weights(values, probs, 0.7)
        shifted = normalize_weights(values + 123.456, probs, 0.7)
        np.testing.assert_allclose(
            base.normalized_weights, shifted.normalized_weights, atol=1e-12
        )

    def test_extreme_exponents_stay_finite(self):
        batch = normalize_weights([4000.0, 3990.0], [0.5, 0.5], 1.0)
        assert np.all(np.isfinite(batch.normalized_weights))
        assert np.all(batch.raw_weights > 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            normalize_weights([np.nan], [1.0], 1.0)

    def test_bad_proposals_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            normalize_weights([1.0], [0.0], 1.0)
        with pytest.raises(ValueError, match="probabilities"):
            normalize_weights([1.0], [1.5], 1.0)


class TestClassicMode:
    def test_additive_game_exact_for_any_sample_count(self):
        weights = [0.4, -0.9, 1.7]
        game = additive_table_game(weights)
        cfg = EstimatorConfig(sample_count=13, seed=5, gamma=1.0, mode="classic")
        for i, w in enumerate(weights):
            assert estimate_shapley(game, i, cfg) == pytest.approx(w, abs=1e-12)
            assert estimate_banzhaf(game, i, cfg) == pytest.approx(w, abs=1e-12)
        assert estimate_interaction(game, 0, 2, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_worked_table_converges_to_exact(self, worked_game):
        cfg = EstimatorConfig(sample_count=100_000, seed=12, gamma=1.0, mode="classic")
        assert estimate_shapley(worked_game, 1, cfg) == pytest.approx(0.7667, abs=0.02)
        assert estimate_banzhaf(worked_game, 1, cfg) == pytest.approx(0.775, abs=0.02)
        assert estimate_interaction(worked_game, 0, 1, cfg) == pytest.approx(0.45, abs=0.02)

    def test_uniform_weights_and_full_ess(self, worked_game):
        cfg = EstimatorConfig(sample_count=50, seed=3, gamma=1.0, mode="classic")
        batch = shapley_sample_batch(worked_game, 0, cfg)
        np.testing.assert_array_equal(batch.normalized_weights, np.full(50, 1.0 / 50))
        assert batch.effective_sample_size == 50.0


class TestGibbsMode:
    def test_tracks_tilted_oracles_within_three_standard_errors(self):
        rng = np.random.default_rng(201)
        game = random_table_game(rng, 5)
        target = GibbsTarget(0.8)
        cfg = EstimatorConfig(sample_count=20_000, seed=77, gamma=0.8, mode="gibbs")
        for i in range(5):
            batch = shapley_sample_batch(game, i, cfg)
            se = weighted_standard_error(batch)
            assert abs(batch.estimate() - exact_tilted_shapley_prefix(game, i, target)) <= 3 * se
            batch = banzhaf_sample_batch(game, i, cfg)
            se = weighted_standard_error(batch)
            assert abs(batch.estimate() - exact_tilted_banzhaf(game, i, target)) <= 3 * se
        batch = interaction_sample_batch(game, 0, 3, cfg)
        se = weighted_standard_error(batch)
        assert abs(batch.estimate() - exact_tilted_interaction(game, 0, 3, target)) <= 3 * se

    def test_high_temperature_flattens_to_classic_for_subset_samplers(self, worked_game):
        hot = EstimatorConfig(sample_count=500, seed=9, gamma=1e9, mode="gibbs")
        cold = EstimatorConfig(sample_count=500, seed=9, gamma=1e9, mode="classic")
        assert estimate_banzhaf(worked_game, 1, hot) == pytest.approx(
            estimate_banzhaf(worked_game, 1, cold), abs=1e-6
        )
        assert estimate_interaction(worked_game, 0, 1, hot) == pytest.approx(
            estimate_interaction(worked_game, 0, 1, cold), abs=1e-6
        )

    def test_high_temperature_prefix_estimator_targets_subset_average(self, worked_game):
        # the 1/p reweighting converts the permutation measure into the
        # uniform subset measure, so at high temperature the prefix
        # estimator's target is the Banzhaf average, not the Shapley value
        cfg = EstimatorConfig(sample_count=200_000, seed=31, gamma=1e9, mode="gibbs")
        batch = shapley_sample_batch(worked_game, 1, cfg)
        se = weighted_standard_error(batch)
        assert abs(batch.estimate() - exact_banzhaf(worked_game, 1)) <= 3 * se


class TestDeterminism:
    def test_bitwise_repeatability(self, worked_game):
        cfg = EstimatorConfig(sample_count=300, seed=2024, gamma=0.6, mode="gibbs")
        a = estimate_all(worked_game, cfg)
        b = estimate_all(worked_game, cfg)
        np.testing.assert_array_equal(a.shapley_hat, b.shapley_hat)
        np.testing.assert_array_equal(a.banzhaf_hat, b.banzhaf_hat)
        np.testing.assert_array_equal(a.interactions_hat, b.interactions_hat)
        np.testing.assert_array_equal(a.effective_sample_size, b.effective_sample_size)

    def test_estimate_all_matches_individual_calls(self, worked_game):
        cfg = EstimatorConfig(sample_count=64, seed=7, gamma=0.5, mode="gibbs")
        values = estimate_all(worked_game, cfg)
        for i in range(3):
            assert values.shapley_hat[i] == estimate_shapley(worked_game, i, cfg)
            assert values.banzhaf_hat[i] == estimate_banzhaf(worked_game, i, cfg)
        assert values.interactions_hat[0, 2] == estimate_interaction(worked_game, 0, 2, cfg)

    def test_interaction_orientation_is_identical(self, worked_game):
        cfg = EstimatorConfig(sample_count=100, seed=5, gamma=1.0, mode="gibbs")
        assert estimate_interaction(worked_game, 2, 0, cfg) == estimate_interaction(
            worked_game, 0, 2, cfg
        )

    def test_tokens_use_independent_streams(self, worked_game):
        cfg = EstimatorConfig(sample_count=50, seed=11, gamma=1.0, mode="classic")
        a = shapley_sample_batch(worked_game, 0, cfg)
        b = shapley_sample_batch(worked_game, 1, cfg)
        assert not np.array_equal(a.marginals, b.marginals)


class TestDiagnostics:
    def test_ess_bounds(self):
        rng = np.random.default_rng(88)
        game = random_table_game(rng, 6)
        cfg = EstimatorConfig(sample_count=200, seed=4, gamma=0.1, mode="gibbs")
        values = estimate_all(game, cfg)
        assert np.all(values.effective_sample_size >= 1.0)
        assert np.all(values.effective_sample_size <= 200.0)

    def test_standard_error_reduces_to_classic_formula(self, worked_game):
        cfg = EstimatorConfig(sample_count=400, seed=6, gamma=1.0, mode="classic")
        batch = banzhaf_sample_batch(worked_game, 1, cfg)
        expected = float(np.std(batch.marginals) / np.sqrt(batch.sample_count))
        assert weighted_standard_error(batch) == pytest.approx(expected, rel=1e-12)

    def test_structural_shape(self, worked_game):
        cfg = EstimatorConfig(sample_count=10, seed=1, gamma=1.0, mode="gibbs")
        values = estimate_all(worked_game, cfg)
        assert values.shapley_hat.shape == (3,)
        np.testing.assert_array_equal(values.interactions_hat, values.interactions_hat.T)
        assert np.all(np.diag(values.interactions_hat) == 0.0)
        assert np.all(np.isfinite(values.shapley_hat))


class TestConsistencyAgainstExactOracles:
    def test_classic_shapley_and_banzhaf_near_exact(self):
        rng = np.random.default_rng(301)
        game = random_table_game(rng, 6)
        cfg = EstimatorConfig(sample_count=30_000, seed=56, gamma=1.0, mode="classic")
        for i in range(6):
            batch = shapley_sample_batch(game, i, cfg)
            assert abs(batch.estimate() - exact_shapley(game, i)) <= 3 * weighted_standard_error(batch)
            batch = banzhaf_sample_batch(game, i, cfg)
            assert abs(batch.estimate() - exact_banzhaf(game, i)) <= 3 * weighted_standard_error(batch)
        batch = interaction_sample_batch(game, 1, 4, cfg)
        assert abs(batch.estimate() - exact_interaction(game, 1, 4)) <= 3 * weighted_standard_error(batch)
