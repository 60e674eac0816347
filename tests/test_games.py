import math
import sys
import threading

import numpy as np
import pytest

from coalattn.games import (
    CountingGame,
    EmbeddingGame,
    Extensions,
    TabularGame,
    monotonicity_violations,
    tabulate,
)

from coalattn.estimators import EstimatorConfig, estimate_all, gibbs_weights
from coalattn.oracles import exact_gibbs_tilted_values

from conftest import WORKED_TABLE, additive_table_game, random_table_game


def _value(game, mask: int) -> float:
    """Value of one coalition, through a one-mask ``values_by_mask`` call."""
    return float(game.values_by_mask(np.array([mask], dtype=np.uint64))[0])


class TestCharacteristicValue:
    def test_worked_pair(self, worked_game):
        assert _value(worked_game, 0b011) == 1.2

    def test_empty_is_zero(self, worked_game):
        assert _value(worked_game, 0) == 0.0

    def test_embedding_single_token_is_norm(self):
        game = EmbeddingGame([[3.0, 4.0]], np.eye(2), nonlinearity="identity")
        assert _value(game, 0b1) == pytest.approx(5.0, abs=1e-12)

    def test_empty_is_zero_for_random_games(self):
        rng = np.random.default_rng(5)
        for k in range(20):
            game = random_table_game(rng, int(rng.integers(1, 7)))
            assert _value(game, 0) == 0.0
        emb = EmbeddingGame(rng.normal(size=(4, 3)), rng.normal(size=(3, 3)))
        assert _value(emb, 0) == 0.0


def _gibbs_weights(game, masks, gamma):
    """Raw weights of *masks* under ``exp(v(C)/gamma)``, as ``gibbs_weights``
    forms them from uniform proposals (common scale: largest weight 1)."""
    values = game.values_by_mask(np.array(masks, dtype=np.uint64))
    return gibbs_weights(values, np.ones(len(masks)), gamma)[0]


class TestGibbsWeight:
    def test_half(self, worked_game):
        w = _gibbs_weights(worked_game, [0, 0b010], 1.0)
        assert w[1] / w[0] == pytest.approx(1.65, abs=0.005)

    def test_unit_value(self, worked_game):
        w = _gibbs_weights(worked_game, [0, 0b110], 1.0)
        assert w[1] / w[0] == pytest.approx(2.72, abs=0.005)

    def test_zero_value(self, worked_game):
        assert _gibbs_weights(worked_game, [0], 0.37)[0] == 1.0

    def test_monotone_in_value(self, worked_game):
        masks = sorted(range(8), key=lambda m: worked_game.table[m])
        weights = _gibbs_weights(worked_game, masks, 0.8)
        assert all(a <= b for a, b in zip(weights, weights[1:]))

    def test_log_weight_matches(self, worked_game):
        gamma = 0.5
        w = _gibbs_weights(worked_game, [0, 0b011], gamma)
        assert math.log(w[1] / w[0]) == pytest.approx(worked_game.table[0b011] / gamma)

    def test_saturates_instead_of_overflowing(self):
        # exp(400 / 0.25) is beyond float64; the weights are formed in log space
        game = additive_table_game([400.0])
        w = _gibbs_weights(game, [0, 1], 0.25)
        np.testing.assert_array_equal(w, [0.0, 1.0])

    def test_gamma_must_be_positive(self, worked_game):
        # the weights and the tilted oracle check the temperature themselves
        with pytest.raises(ValueError):
            _gibbs_weights(worked_game, [0], 0.0)
        with pytest.raises(ValueError):
            exact_gibbs_tilted_values(worked_game, 0.0)


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
            got = _value(game, 1 << i)
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
        assert table[mask] == _value(game, mask)


def test_tabulate_is_identity_for_tables(worked_game):
    np.testing.assert_array_equal(tabulate(worked_game), np.asarray(WORKED_TABLE))


def test_monotonicity_check_counts_decreases():
    assert monotonicity_violations(TabularGame(WORKED_TABLE)) == 0
    dipped = TabularGame([0.0, 1.0, 1.0, 0.5])  # both singleton additions decrease
    assert monotonicity_violations(dipped) == 2


def test_counting_game_counts_evaluations(worked_game):
    counting = CountingGame(worked_game)
    counting.values_by_mask(np.array([3], dtype=np.uint64))
    counting.values_by_mask(np.arange(8, dtype=np.uint64))
    assert counting.evaluations == 9
    assert counting.n == 3


def _value_bytes(values) -> tuple[bytes, ...]:
    """The bytes of every array of a ``GameValues`` or of one value array."""
    if isinstance(values, np.ndarray):
        return (values.tobytes(),)
    return tuple(np.asarray(array).tobytes() for array in vars(values).values())


def test_one_embedding_game_serves_concurrent_callers():
    # four threads share one n=32, d_v=32 game; every call, whichever others
    # overlap it, gives the bytes a fresh game gives
    rng = np.random.default_rng(41)
    params = (rng.normal(size=(32, 32)), rng.normal(size=(32, 32)), "tanh")
    masks = [rng.integers(0, 2**32, size=20_000, dtype=np.uint64) for _ in range(4)]
    configs = [EstimatorConfig(sample_count=256, seed=seed) for seed in range(4)]
    expected = [
        (_value_bytes(estimate_all(EmbeddingGame(*params), cfg)), _value_bytes(EmbeddingGame(*params).values_by_mask(m)))
        for cfg, m in zip(configs, masks)
    ]
    shared = EmbeddingGame(*params)
    rounds = 3
    start = threading.Barrier(len(configs))
    mismatches, finished = [], []

    def caller(t: int) -> None:
        for r in range(rounds):
            start.wait(timeout=30)
            got = (_value_bytes(estimate_all(shared, configs[t])), _value_bytes(shared.values_by_mask(masks[t])))
            for what, result, want in zip(("estimate_all", "values_by_mask"), got, expected[t]):
                if result != want:
                    mismatches.append(f"round {r}, thread {t}: {what}")
        finished.append(t)

    threads = [threading.Thread(target=caller, args=(t,)) for t in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and sorted(finished) == list(range(len(configs)))
    assert mismatches == [], f"{len(mismatches)} of {2 * rounds * len(configs)} checks differ: {mismatches}"


def test_extensions_keep_a_read_only_copy_of_their_pool():
    rng = np.random.default_rng(43)
    params = (rng.normal(size=(6, 3)), rng.normal(size=(3, 4)))
    game = EmbeddingGame(*params)
    words = rng.integers(0, 64, size=5, dtype=np.uint64)
    orders = rng.permuted(np.tile(np.arange(6), (5, 1)), axis=1)
    pooled = Extensions(words, np.array([[1, 4], [0, 2]]))
    ordered = Extensions(None, np.array([[2], [5]]), orders)
    for extensions, pool, given in ((pooled, pooled.contexts, words), (ordered, ordered.orders, orders)):
        masks, values = np.asarray(extensions), game.values_by_mask(extensions)
        assert not pool.flags.writeable and extensions.rows(slice(1)).contexts is extensions.contexts
        with pytest.raises(ValueError, match="read-only"):
            pool[0] = pool[1]
        # a view of the read-only copy: its flag cannot be turned back on
        with pytest.raises(ValueError, match="WRITEABLE"):
            pool.flags.writeable = True
        # other words and other orders, had the pool been kept by reference
        given[:] = np.bitwise_xor(given, np.uint64(63)) if given is words else given[:, ::-1].copy()
        np.testing.assert_array_equal(np.asarray(extensions), masks)
        for evaluator in (game, EmbeddingGame(*params)):
            assert evaluator.values_by_mask(extensions).tobytes() == values.tobytes()
