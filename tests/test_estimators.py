import numpy as np
import pytest

from coalattn.estimators import (
    EstimatorConfig,
    _philox_keys,
    _slot_streams,
    estimate_all,
    gibbs_weights,
    sample_bernoulli_coalitions,
    sample_permutation_prefixes,
)
from coalattn.games import EmbeddingGame, TabularGame
from coalattn.oracles import (
    exact_banzhaf,
    exact_game_values,
    exact_gibbs_tilted_values,
    exact_interaction,
)

from conftest import (
    WORKED_TABLE,
    additive_table_game,
    random_table_game,
    reference_slot,
    reference_stream,
)


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
        rng = reference_stream(0, 99)
        masks, probs = sample_permutation_prefixes(rng, 3, 1, 4000)
        sizes = np.array([int(m).bit_count() for m in masks])
        # p(size 0) = 0!*2!/2! = 1, p(size 1) = 1!*1!/2! = 0.5, p(size 2) = 1
        np.testing.assert_array_equal(probs[sizes == 0], 1.0)
        np.testing.assert_array_equal(probs[sizes == 1], 0.5)
        np.testing.assert_array_equal(probs[sizes == 2], 1.0)
        assert {0, 1, 2} == set(sizes.tolist())

    def test_single_token_sequence(self):
        masks, probs = sample_permutation_prefixes(reference_stream(1, 99), 1, 0, count=1)
        assert masks.tolist() == [0] and probs.tolist() == [1.0]

    def test_target_token_never_sampled(self):
        rng = reference_stream(2, 99)
        masks, _ = sample_permutation_prefixes(rng, 5, 2, 2000)
        assert not np.any(masks & np.uint64(1 << 2))

    def test_prefix_sizes_cover_range(self):
        rng = reference_stream(3, 99)
        masks, _ = sample_permutation_prefixes(rng, 4, 0, 4000)
        sizes = {int(m).bit_count() for m in masks}
        assert sizes == {0, 1, 2, 3}

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            sample_permutation_prefixes(reference_stream(0, 99), 3, 3, 1)

    @pytest.mark.parametrize(
        "n,i,seed", [(1, 0, 0), (2, 1, 3), (5, 2, 7), (17, 0, 11), (64, 63, 5), (64, 20, 9)]
    )
    def test_masks_match_masked_sum_of_permuted_bits(self, n, i, seed):
        count = 300
        masks, probs = sample_permutation_prefixes(reference_stream(seed, 99), n, i, count)
        # the same draws, summed over the kept prefix positions
        rng = reference_stream(seed, 99)
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
        _, probs = sample_bernoulli_coalitions(reference_stream(0, 98), 3, {1}, 100)
        np.testing.assert_array_equal(probs, 0.25)

    def test_pair_exclusion_probability(self):
        _, probs = sample_bernoulli_coalitions(reference_stream(0, 98), 3, {0, 2}, 100)
        np.testing.assert_array_equal(probs, 0.5)

    def test_two_token_game_hits_both_outcomes(self):
        rng = reference_stream(1, 98)
        masks, probs = sample_bernoulli_coalitions(rng, 2, {0}, 500)
        assert set(np.unique(masks).tolist()) == {0, 2}
        np.testing.assert_array_equal(probs, 0.5)

    def test_excluded_tokens_absent(self):
        rng = reference_stream(2, 98)
        masks, _ = sample_bernoulli_coalitions(rng, 6, {1, 4}, 1000)
        assert not np.any(masks & np.uint64((1 << 1) | (1 << 4)))

    def test_scalar_wrapper(self):
        masks, probs = sample_bernoulli_coalitions(reference_stream(3, 98), 3, {2}, count=1)
        assert masks.shape == (1,) and not masks[0] & np.uint64(1 << 2)
        assert probs.tolist() == [0.25]

    def test_excluding_every_token_degenerates_to_empty(self):
        # one-token Banzhaf sampling: the only coalition is empty, prob 1
        masks, probs = sample_bernoulli_coalitions(reference_stream(0, 98), 1, {0}, 5)
        np.testing.assert_array_equal(masks, 0)
        np.testing.assert_array_equal(probs, 1.0)

    def test_out_of_range_exclusion_rejected(self):
        with pytest.raises(ValueError):
            sample_bernoulli_coalitions(reference_stream(0, 98), 2, {5}, 1)


def _mixed_draws(rng: np.random.Generator, size: int) -> list:
    # 32-bit bounded integers, a permutation and raw words touch every part
    # of the Philox state a re-keying has to reset (counter, key, buffer,
    # buffered 32-bit half)
    return [
        rng.integers(0, 7, size=size).tolist(),
        rng.permuted(np.arange(size)).tolist(),
        rng.bit_generator.random_raw(size).tolist(),
        rng.integers(0, 2**40, size=3).tolist(),
    ]


class TestStreamKeys:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [
        int(s) for s in np.random.default_rng(404).integers(0, 2**63, size=3)
    ]

    @staticmethod
    def _families(n: int):
        tokens = [(i,) for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return ((1, tokens), (2, tokens), (3, pairs))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_match_seed_sequence(self, seed):
        # (h0, h1 ^ id) with (h0, h1) the family's SeedSequence words
        for kind, slots in self._families(64):
            words = np.random.SeedSequence(entropy=seed, spawn_key=(kind,)).generate_state(2, np.uint64)
            h0, h1 = (int(word) for word in words)
            ids = [slot[0] if len(slot) == 1 else slot[0] * 2**32 + slot[1] for slot in slots]
            expected = np.array([[h0, h1 ^ ident] for ident in ids], dtype=np.uint64)
            np.testing.assert_array_equal(_philox_keys(seed, kind, slots), expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_slot_of_every_family_has_its_own_key(self, seed):
        keys = np.concatenate([_philox_keys(seed, kind, slots) for kind, slots in self._families(64)])
        assert len(keys) == 64 + 64 + 64 * 63 // 2
        assert len(np.unique(keys, axis=0)) == len(keys)

    @pytest.mark.parametrize(
        "seed,kind,indices",
        [(0, 99, ()), (7, 1, (3,)), (2**64 - 1, 3, (5, 63)), (2**70, 98, (2**32 - 1, 2**32 - 1))],
    )
    def test_token_stream_matches_fresh_generator(self, seed, kind, indices):
        assert _mixed_draws(next(_slot_streams(seed, kind, [indices])), 9) == _mixed_draws(
            reference_stream(seed, kind, *indices), 9
        )

    def test_rekeyed_generator_forgets_the_previous_slot(self):
        slots = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for size, (slot, rng) in enumerate(zip(slots, _slot_streams(11, 3, slots)), start=1):
            assert _mixed_draws(rng, size) == _mixed_draws(reference_stream(11, 3, *slot), size)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), 7.0])
    def test_seed_of_another_numeric_type_gives_the_int_seed_values(self, seed):
        rng = np.random.default_rng(3)
        game = EmbeddingGame(rng.normal(size=(9, 3)), rng.normal(size=(3, 2)))
        got = estimate_all(game, EstimatorConfig(seed=seed))
        expected = estimate_all(game, EstimatorConfig(seed=7))
        for field in ("shapley_hat", "banzhaf_hat", "interactions_hat", "effective_sample_size"):
            np.testing.assert_array_equal(getattr(got, field), getattr(expected, field))
        rng = next(_slot_streams(seed, 3, [(1, 2)]))
        assert _mixed_draws(rng, 5) == _mixed_draws(reference_stream(7, 3, 1, 2), 5)


class _RecordingGame:
    """Embedding game that keeps every mask batch it evaluates."""

    def __init__(self, game):
        self._game = game
        self.n = game.n
        self.batches = []

    def values_by_mask(self, masks):
        self.batches.append(np.asarray(masks).reshape(-1))
        return self._game.values_by_mask(masks)


class TestPinnedStream:
    """The first interaction contexts of one seed, written out as integers,
    so a change to the key derivation or the re-keying fails here instead of
    silently shifting every report.  Masks only, so no float math is pinned."""

    SEED = 20260318
    # the first four raw words of Philox(key=(h0, h1 ^ (5 << 32 | 63))) with
    # bits 5 and 63 cleared, where (h0, h1) = SeedSequence(entropy=SEED,
    # spawn_key=(3,)).generate_state(2, np.uint64)
    FIRST_CONTEXTS = [
        998759210206867980,
        5407011651746250967,
        7088507053547330050,
        8167636667467827334,
    ]

    def test_sampler_on_the_pair_stream(self):
        masks, _ = sample_bernoulli_coalitions(reference_stream(self.SEED, 3, 5, 63), 64, {5, 63}, 4)
        assert masks.tolist() == self.FIRST_CONTEXTS

    def test_interaction_batch_evaluates_the_pinned_contexts(self):
        rng = np.random.default_rng(1)
        game = _RecordingGame(EmbeddingGame(rng.normal(size=(64, 3)), rng.normal(size=(3, 2))))
        k = 4
        estimate_all(game, EstimatorConfig(sample_count=k, seed=self.SEED))
        masks = np.concatenate(game.batches).tolist()
        # in evaluation order: 2K masks per token for each of the two token
        # families, then 4K per pair in row-major pair order
        pairs = [(i, j) for i in range(64) for j in range(i + 1, 64)]
        start = 2 * 2 * k * 64 + 4 * k * pairs.index((5, 63))
        bits = [0, 1 << 5, 1 << 63, (1 << 5) | (1 << 63)]
        assert len(masks) == 2 * k * 64 * 65
        assert masks[start : start + 4 * k] == [m | b for b in bits for m in self.FIRST_CONTEXTS]


class TestTracedEvaluationCount:
    """The evaluation count an outside tracer sees: it wraps each game class's
    ``values_by_mask`` and adds up ``np.asarray(masks).size`` per call, so
    that count must stay ``2*K*n*(n+1)`` per ``estimate_all`` whatever form
    the masks are handed over in."""

    # K = 25 puts many slots in one evaluation, K = 1100 one slot per call
    @pytest.mark.parametrize("k", [25, 1100])
    @pytest.mark.parametrize("kind", ["embedding", "table"])
    def test_count_is_2kn_n_plus_1(self, monkeypatch, kind, k):
        sizes = []
        for cls in (EmbeddingGame, TabularGame):
            def traced(*args, _evaluate=cls.values_by_mask, **kwargs):
                sizes.append(np.asarray(args[1]).size)
                return _evaluate(*args, **kwargs)

            monkeypatch.setattr(cls, "values_by_mask", traced)
        rng = np.random.default_rng(k)
        n = 6
        if kind == "embedding":
            game = EmbeddingGame(rng.normal(size=(n, 3)), rng.normal(size=(3, 2)))
        else:
            game = random_table_game(rng, n)
        for mode in ("gibbs", "classic"):
            sizes.clear()
            estimate_all(game, EstimatorConfig(sample_count=k, seed=3, mode=mode))
            assert sum(sizes) == 2 * k * n * (n + 1)


class TestNormalizeWeights:
    def test_worked_values(self):
        _, weights = gibbs_weights(np.array([0.5, 0.8, 1.0]), np.ones(3), 1.0)
        # frozen full-precision weights; the 2-decimal view is 0.25/0.34/0.41
        np.testing.assert_allclose(weights, [0.250089, 0.337585, 0.412327], atol=5e-7)
        np.testing.assert_allclose(weights, [0.25, 0.34, 0.41], atol=0.005)

    def test_single_sample(self):
        _, weights = gibbs_weights(np.array([2.0]), np.array([0.5]), 1.0)
        np.testing.assert_array_equal(weights, [1.0])

    def test_equal_values_equal_proposals(self):
        _, weights = gibbs_weights(np.full(8, 0.7), np.full(8, 0.25), 0.5)
        np.testing.assert_allclose(weights, 1.0 / 8, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            k = int(rng.integers(1, 40))
            _, weights = gibbs_weights(rng.normal(size=k), rng.uniform(0.01, 1.0, size=k), 0.4)
            assert abs(float(np.sum(weights)) - 1.0) <= 1e-12

    def test_rows_are_weighted_on_their_own(self):
        rng = np.random.default_rng(73)
        values = rng.normal(size=(4, 9)) * [[1.0], [10.0], [100.0], [0.0]]
        probs = rng.uniform(0.05, 1.0, size=(4, 9))
        raw, normalized = gibbs_weights(values, probs, 0.3)
        for row in range(4):
            row_raw, row_normalized = gibbs_weights(values[row], probs[row], 0.3)
            np.testing.assert_array_equal(raw[row], row_raw)
            np.testing.assert_array_equal(normalized[row], row_normalized)
        np.testing.assert_array_equal(raw.max(axis=1), 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(72)
        values = rng.normal(size=30)
        probs = rng.uniform(0.1, 1.0, size=30)
        _, base = gibbs_weights(values, probs, 0.7)
        _, shifted = gibbs_weights(values + 123.456, probs, 0.7)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_extreme_exponents_stay_finite(self):
        raw, weights = gibbs_weights(np.array([4000.0, 3990.0]), np.array([0.5, 0.5]), 1.0)
        assert np.all(np.isfinite(weights))
        assert np.all(raw > 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            gibbs_weights(np.array([np.nan]), np.ones(1), 1.0)

    def test_bad_proposals_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            gibbs_weights(np.ones(1), np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="probabilities"):
            gibbs_weights(np.ones(1), np.array([1.5]), 1.0)

    def test_bad_gamma_rejected(self):
        for gamma in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="gamma"):
                gibbs_weights(np.ones(1), np.ones(1), gamma)


_SHAPLEY, _BANZHAF, _INTERACTION = 1, 2, 3


def _slot_estimate(values, kind: int, slot: tuple) -> float:
    """``estimate_all``'s value for one slot."""
    if kind == _SHAPLEY:
        return values.shapley_hat[slot[0]]
    if kind == _BANZHAF:
        return values.banzhaf_hat[slot[0]]
    return values.interactions_hat[slot]


def _checked_slot(values, game, cfg, kind: int, slot: tuple) -> tuple[float, float]:
    """(estimate, standard error) of one slot of *values*, after checking
    that ``estimate_all`` gave the per-slot reference estimate bit for bit."""
    estimate, _, se = reference_slot(game, cfg, kind, slot)
    assert _slot_estimate(values, kind, slot) == estimate
    return estimate, se


class TestClassicMode:
    def test_additive_game_exact_for_any_sample_count(self):
        weights = [0.4, -0.9, 1.7]
        game = additive_table_game(weights)
        cfg = EstimatorConfig(sample_count=13, seed=5, gamma=1.0, mode="classic")
        values = estimate_all(game, cfg)
        for i, w in enumerate(weights):
            assert _checked_slot(values, game, cfg, _SHAPLEY, (i,))[0] == pytest.approx(w, abs=1e-12)
            assert _checked_slot(values, game, cfg, _BANZHAF, (i,))[0] == pytest.approx(w, abs=1e-12)
        assert _checked_slot(values, game, cfg, _INTERACTION, (0, 2))[0] == pytest.approx(0.0, abs=1e-12)

    def test_worked_table_converges_to_exact(self, worked_game):
        cfg = EstimatorConfig(sample_count=100_000, seed=12, gamma=1.0, mode="classic")
        values = estimate_all(worked_game, cfg)
        assert values.shapley_hat[1] == pytest.approx(0.7667, abs=0.02)
        assert values.banzhaf_hat[1] == pytest.approx(0.775, abs=0.02)
        assert values.interactions_hat[0, 1] == pytest.approx(0.45, abs=0.02)

    def test_uniform_weights_and_full_ess(self, worked_game):
        cfg = EstimatorConfig(sample_count=50, seed=3, gamma=1.0, mode="classic")
        values = estimate_all(worked_game, cfg)
        _checked_slot(values, worked_game, cfg, _SHAPLEY, (0,))
        np.testing.assert_array_equal(values.effective_sample_size, 50.0)


class TestGibbsMode:
    def test_tracks_tilted_oracles_within_three_standard_errors(self):
        rng = np.random.default_rng(201)
        game = random_table_game(rng, 5)
        tilted = exact_gibbs_tilted_values(game, 0.8)
        cfg = EstimatorConfig(sample_count=20_000, seed=77, gamma=0.8, mode="gibbs")
        values = estimate_all(game, cfg)
        for i in range(5):
            estimate, se = _checked_slot(values, game, cfg, _SHAPLEY, (i,))
            assert abs(estimate - tilted.shapley[i]) <= 3 * se
            estimate, se = _checked_slot(values, game, cfg, _BANZHAF, (i,))
            assert abs(estimate - tilted.banzhaf[i]) <= 3 * se
        estimate, se = _checked_slot(values, game, cfg, _INTERACTION, (0, 3))
        assert abs(estimate - tilted.interactions[0, 3]) <= 3 * se

    def test_high_temperature_flattens_to_classic_for_subset_samplers(self, worked_game):
        hot = estimate_all(worked_game, EstimatorConfig(sample_count=500, seed=9, gamma=1e9, mode="gibbs"))
        cold = estimate_all(worked_game, EstimatorConfig(sample_count=500, seed=9, gamma=1e9, mode="classic"))
        assert hot.banzhaf_hat[1] == pytest.approx(cold.banzhaf_hat[1], abs=1e-6)
        assert hot.interactions_hat[0, 1] == pytest.approx(cold.interactions_hat[0, 1], abs=1e-6)

    def test_high_temperature_prefix_estimator_targets_subset_average(self, worked_game):
        # the 1/p reweighting converts the permutation measure into the
        # uniform subset measure, so at high temperature the prefix
        # estimator's target is the Banzhaf average, not the Shapley value
        cfg = EstimatorConfig(sample_count=200_000, seed=31, gamma=1e9, mode="gibbs")
        values = estimate_all(worked_game, cfg)
        estimate, se = _checked_slot(values, worked_game, cfg, _SHAPLEY, (1,))
        assert abs(estimate - exact_banzhaf(worked_game, 1)) <= 3 * se


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
            shapley_ess = reference_slot(worked_game, cfg, _SHAPLEY, (i,))[1]
            banzhaf_ess = reference_slot(worked_game, cfg, _BANZHAF, (i,))[1]
            _checked_slot(values, worked_game, cfg, _SHAPLEY, (i,))
            _checked_slot(values, worked_game, cfg, _BANZHAF, (i,))
            assert values.effective_sample_size[i] == min(shapley_ess, banzhaf_ess)
        _checked_slot(values, worked_game, cfg, _INTERACTION, (0, 2))

    def test_interaction_orientation_is_identical(self, worked_game):
        cfg = EstimatorConfig(sample_count=100, seed=5, gamma=1.0, mode="gibbs")
        values = estimate_all(worked_game, cfg)
        assert values.interactions_hat[2, 0] == values.interactions_hat[0, 2]
        _checked_slot(values, worked_game, cfg, _INTERACTION, (0, 2))

    def test_tokens_use_independent_streams(self):
        # tokens 0 and 1 are interchangeable, so with one shared stream the
        # prefix sampler would give them mirrored coalitions and equal
        # Shapley estimates
        table = np.asarray(WORKED_TABLE)
        masks = np.arange(8)
        swapped = (masks & 0b100) | ((masks & 1) << 1) | ((masks >> 1) & 1)
        game = TabularGame(0.5 * (table + table[swapped]))
        cfg = EstimatorConfig(sample_count=50, seed=11, gamma=1.0, mode="classic")
        values = estimate_all(game, cfg)
        assert values.shapley_hat[0] != values.shapley_hat[1]
        exact = exact_game_values(game).shapley
        assert exact[0] == pytest.approx(exact[1], abs=1e-15)


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
        values = estimate_all(worked_game, cfg)
        estimate, se = _checked_slot(values, worked_game, cfg, _BANZHAF, (1,))
        # token 1's Banzhaf stream: coalitions of tokens 0 and 2
        contexts, _ = sample_bernoulli_coalitions(reference_stream(6, _BANZHAF, 1), 3, {1}, 400)
        contexts = contexts.astype(np.int64)
        marginals = worked_game.table[contexts | 0b010] - worked_game.table[contexts]
        assert estimate == pytest.approx(float(np.mean(marginals)), rel=1e-12)
        assert se == pytest.approx(float(np.std(marginals) / np.sqrt(400)), rel=1e-12)

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
        values = estimate_all(game, cfg)
        exact_shapley = exact_game_values(game).shapley
        for i in range(6):
            estimate, se = _checked_slot(values, game, cfg, _SHAPLEY, (i,))
            assert abs(estimate - exact_shapley[i]) <= 3 * se
            estimate, se = _checked_slot(values, game, cfg, _BANZHAF, (i,))
            assert abs(estimate - exact_banzhaf(game, i)) <= 3 * se
        estimate, se = _checked_slot(values, game, cfg, _INTERACTION, (1, 4))
        assert abs(estimate - exact_interaction(game, 1, 4)) <= 3 * se
