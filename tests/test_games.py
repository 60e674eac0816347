import math

import numpy as np
import pytest

from coalattn.games import (
    CountingGame,
    EmbeddingGame,
    GibbsTarget,
    TabularGame,
    monotonicity_violations,
    tabulate,
)

from coalattn.estimators import normalize_weights

from conftest import WORKED_TABLE, additive_table_game, random_table_game


class TestCharacteristicValue:
    def test_worked_pair(self, worked_game):
        assert worked_game.value_by_mask(0b011) == 1.2

    def test_empty_is_zero(self, worked_game):
        assert worked_game.value_by_mask(0) == 0.0

    def test_embedding_single_token_is_norm(self):
        game = EmbeddingGame([[3.0, 4.0]], np.eye(2), nonlinearity="identity")
        assert game.value_by_mask(0b1) == pytest.approx(5.0, abs=1e-12)

    def test_empty_is_zero_for_random_games(self):
        rng = np.random.default_rng(5)
        for k in range(20):
            game = random_table_game(rng, int(rng.integers(1, 7)))
            assert game.value_by_mask(0) == 0.0
        emb = EmbeddingGame(rng.normal(size=(4, 3)), rng.normal(size=(3, 3)))
        assert emb.value_by_mask(0) == 0.0


def _gibbs_weights(game, masks, target):
    """Weights of *masks* under ``exp(v(C)/gamma)``, as ``normalize_weights``
    forms them from uniform proposals (common scale: largest weight 1)."""
    values = [game.value_by_mask(m) for m in masks]
    return normalize_weights(values, np.ones(len(masks)), target.gamma).raw_weights


class TestGibbsWeight:
    def test_half(self, worked_game):
        w = _gibbs_weights(worked_game, [0, 0b010], GibbsTarget(1.0))
        assert w[1] / w[0] == pytest.approx(1.65, abs=0.005)

    def test_unit_value(self, worked_game):
        w = _gibbs_weights(worked_game, [0, 0b110], GibbsTarget(1.0))
        assert w[1] / w[0] == pytest.approx(2.72, abs=0.005)

    def test_zero_value(self, worked_game):
        assert _gibbs_weights(worked_game, [0], GibbsTarget(0.37))[0] == 1.0

    def test_monotone_in_value(self, worked_game):
        masks = sorted(range(8), key=worked_game.value_by_mask)
        weights = _gibbs_weights(worked_game, masks, GibbsTarget(0.8))
        assert all(a <= b for a, b in zip(weights, weights[1:]))

    def test_log_weight_matches(self, worked_game):
        target = GibbsTarget(0.5)
        w = _gibbs_weights(worked_game, [0, 0b011], target)
        assert math.log(w[1] / w[0]) == pytest.approx(worked_game.value_by_mask(0b011) / target.gamma)

    def test_saturates_instead_of_overflowing(self):
        # exp(400 / 0.25) is beyond float64; the weights are formed in log space
        game = additive_table_game([400.0])
        w = _gibbs_weights(game, [0, 1], GibbsTarget(0.25))
        np.testing.assert_array_equal(w, [0.0, 1.0])

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            GibbsTarget(0.0)


class TestTabularGameValidation:
    def test_nonzero_empty_value_rejected(self):
        with pytest.raises(ValueError, match="empty coalition"):
            TabularGame([0.1, 1.0])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            TabularGame([0.0, 1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TabularGame([0.0, np.nan])

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="bound"):
            TabularGame([0.0, 5.0], bound=2.0)
        TabularGame([0.0, 5.0], bound=5.0)

    def test_token_cap(self):
        with pytest.raises(ValueError, match="at most 20"):
            TabularGame(np.zeros(1 << 21))


class TestEmbeddingGame:
    def test_projection_shape_checked(self):
        with pytest.raises(ValueError, match="rows"):
            EmbeddingGame(np.ones((2, 3)), np.ones((2, 3)))

    def test_unknown_nonlinearity_rejected(self):
        with pytest.raises(ValueError, match="nonlinearity"):
            EmbeddingGame(np.ones((2, 2)), np.eye(2), nonlinearity="gelu")

    def test_single_token_value_is_projected_norm(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 3))
        game = EmbeddingGame(x, w, nonlinearity="identity")
        for i in range(4):
            expected = float(np.linalg.norm(x[i] @ w))
            got = game.value_by_mask(1 << i)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_relu_equals_identity_on_norms(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 3))
        masks = np.arange(16, dtype=np.uint64)
        relu = EmbeddingGame(x, w, "relu").values_by_mask(masks)
        ident = EmbeddingGame(x, w, "identity").values_by_mask(masks)
        np.testing.assert_array_equal(relu, ident)

    def test_tanh_compresses(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 2)) * 5
        game = EmbeddingGame(x, np.eye(2), "tanh")
        assert np.all(game.values_by_mask(np.arange(8, dtype=np.uint64)) <= 1.0)


def test_tabulate_matches_scalar_path():
    rng = np.random.default_rng(31)
    game = EmbeddingGame(rng.normal(size=(5, 4)), rng.normal(size=(4, 4)))
    table = tabulate(game)
    for mask in range(32):
        assert table[mask] == game.value_by_mask(mask)


def test_tabulate_is_identity_for_tables(worked_game):
    np.testing.assert_array_equal(tabulate(worked_game), np.asarray(WORKED_TABLE))


def test_monotonicity_check_counts_decreases():
    assert monotonicity_violations(TabularGame(WORKED_TABLE)) == 0
    dipped = TabularGame([0.0, 1.0, 1.0, 0.5])  # both singleton additions decrease
    assert monotonicity_violations(dipped) == 2


def test_counting_game_counts_evaluations(worked_game):
    counting = CountingGame(worked_game)
    counting.value_by_mask(3)
    counting.values_by_mask(np.arange(8, dtype=np.uint64))
    assert counting.evaluations == 9
    assert counting.n == 3
