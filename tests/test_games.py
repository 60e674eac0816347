import math
import re
import sys
import threading

import numpy as np
import pytest

from coalattn.games import (
    CountingGame,
    EmbeddingGame,
    Extensions,
    TabularGame,
    _word_tables,
    tabulate,
)

from coalattn.estimators import EstimatorConfig, estimate_all, gibbs_weights
from coalattn.oracles import exact_gibbs_tilted_values

from conftest import (
    WORKED_TABLE,
    additive_table_game,
    context_and_difference,
    random_table_game,
    row_contexts,
)


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

    def test_a_nested_table_is_refused(self):
        with pytest.raises(ValueError) as refusal:
            TabularGame([[0.0, 1.0]])
        assert str(refusal.value) == "tabular game: values must be a flat array"


class TestEmbeddingGame:
    def test_projection_shape_checked(self):
        with pytest.raises(ValueError, match="rows"):
            EmbeddingGame(np.ones((2, 3)), np.ones((2, 3)))

    def test_unknown_nonlinearity_rejected(self):
        with pytest.raises(ValueError, match="nonlinearity"):
            EmbeddingGame(np.ones((2, 2)), np.eye(2), nonlinearity="gelu")

    def test_token_cap(self):
        with pytest.raises(ValueError) as refusal:
            EmbeddingGame(np.ones((65, 1)), np.eye(1))
        assert str(refusal.value) == "embedding game: at most 64 tokens (got 65)"

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


def test_counting_game_counts_evaluations(worked_game):
    counting = CountingGame(worked_game)
    counting.values_by_mask(np.array([3], dtype=np.uint64))
    counting.values_by_mask(np.arange(8, dtype=np.uint64))
    assert counting.evaluations == 9
    assert counting.n == 3


def _value_bytes(values) -> tuple[bytes, ...]:
    """The bytes of every array of a ``GameValues``, of one value array or
    of an ``Extensions``' (context values, differences)."""
    if isinstance(values, np.ndarray):
        return (values.tobytes(),)
    arrays = values if isinstance(values, tuple) else vars(values).values()
    return tuple(np.asarray(array).tobytes() for array in arrays)


@pytest.mark.parametrize("kind", ["embedding", "table"])
def test_one_game_serves_concurrent_callers(kind):
    # four threads share one game, an n=32, d_v=32 embedding game or an n=16
    # table, each keeping its last pool's tables; every call, whichever
    # others overlap it, gives the bytes a fresh game gives
    rng = np.random.default_rng(41)
    if kind == "embedding":
        params = (rng.normal(size=(32, 32)), rng.normal(size=(32, 32)), "tanh")
        fresh, n, mode = lambda: EmbeddingGame(*params), 32, "gibbs"
    else:
        table = random_table_game(rng, 16).table
        fresh, n, mode = lambda: TabularGame(table), 16, "classic"
    masks = [rng.integers(0, 2**n, size=20_000, dtype=np.uint64) for _ in range(4)]
    configs = [EstimatorConfig(sample_count=256, seed=seed, mode=mode) for seed in range(4)]
    expected = [
        (_value_bytes(estimate_all(fresh(), cfg)), _value_bytes(fresh().values_by_mask(m)))
        for cfg, m in zip(configs, masks)
    ]
    shared = fresh()
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
        masks, values = np.asarray(extensions), _value_bytes(game.values_by_mask(extensions))
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
            assert _value_bytes(evaluator.values_by_mask(extensions)) == values
    # other rows on the same copy read as they do on a copy of their own
    tokens = np.array([[3], [0], [5]])
    other = pooled.with_tokens(tokens)
    assert other.contexts is pooled.contexts
    np.testing.assert_array_equal(np.asarray(other), np.asarray(Extensions(pooled.contexts, tokens)))
    own = EmbeddingGame(*params).values_by_mask(Extensions(pooled.contexts, tokens))
    assert _value_bytes(game.values_by_mask(other)) == _value_bytes(own)
    # with_tokens checks the rows itself, and refuses as the constructor does
    for rows, message in (
        ([[2, 2]], "a row repeats a token"),
        ([[0, 1, 2]], "tokens need a last axis of one or two tokens per row"),
        ([[64]], "tokens must be integers in [0, 64)"),
    ):
        for build in (lambda tokens: Extensions(pooled.contexts, tokens), pooled.with_tokens):
            with pytest.raises(ValueError, match=re.escape(f"extensions: {message}")):
                build(np.array(rows))


def test_with_tokens_needs_a_pool_of_words():
    with pytest.raises(ValueError, match="with_tokens needs a pool of words"):
        Extensions(None, np.array([[0]]), np.tile(np.arange(3), (2, 1))).with_tokens(np.array([[1]]))


@pytest.mark.parametrize("masks", [np.array([1.5, 2.9]), np.array([True, False])], ids=["float", "bool"])
def test_masks_and_pools_must_be_integers(worked_game, masks):
    # truncated, these would read as masks 1 and 2, or 1 and 0
    embedding = EmbeddingGame(np.eye(3), np.eye(3))
    for call in (worked_game.values_by_mask, embedding.values_by_mask, lambda pool: Extensions(pool, [[2]])):
        with pytest.raises(ValueError, match="masks must be integers"):
            call(masks)


def test_held_covers_every_token_a_word_or_a_row_holds():
    # one row per token of the game, whichever rows the words serve: row t is bit t of each word
    words = np.array([0b1, 0b100100, 0], dtype=np.uint64)
    bits = (words >> np.arange(8, dtype=np.uint64)[:, None]) & np.uint64(1)
    rng = np.random.default_rng(3)
    games = (random_table_game(rng, 8), EmbeddingGame(rng.normal(size=(8, 3)), rng.normal(size=(3, 2))))
    for game in games:
        for tokens in ([[0]], [[0], [7]], [[1, 2]], np.zeros((0, 2), np.intp)):
            held = _word_tables(game, Extensions(words, np.array(tokens))).held
            np.testing.assert_array_equal(held, bits == 1)


def test_embedding_tables_cover_the_held_tokens_below_n():
    rng = np.random.default_rng(44)
    game = EmbeddingGame(rng.normal(size=(6, 3)), rng.normal(size=(3, 4)))
    # tokens 0-2 of 6, in no word that a toggle of a row's tokens empties
    words = np.array([0b111, 0b110, 0, 0b110, 0b111], dtype=np.uint64)
    tokens = np.array([[0, 1], [2, 0]])
    few = Extensions(words, tokens)
    values = game.values_by_mask(np.asarray(few))
    (context, difference), (want_context, want_difference) = game.values_by_mask(few), context_and_difference(few, values)
    np.testing.assert_allclose(context, want_context, rtol=1e-12)
    # an alternating sum of four values, each within 1e-12 of its size
    np.testing.assert_allclose(difference, want_difference, rtol=0.0, atol=4e-12 * np.abs(values).max())
    # bits at or above n are never read
    high = Extensions(words | np.uint64(1 << 7), tokens)
    assert _value_bytes(game.values_by_mask(high)) == _value_bytes(game.values_by_mask(few))
    # nor by the toggles that empty a word, each the row's context here:
    # they read exactly 0, as the plain mask does, where the rounded sum may
    # read 1e-7
    for seed in range(20):
        rng = np.random.default_rng(seed)
        game = EmbeddingGame(rng.normal(size=(6, 3)), rng.normal(size=(3, 4)))
        for word, row in ((0b10000001, [0]), (0b10000011, [0, 1]), (0b11000010, [1])):
            context, _ = game.values_by_mask(Extensions(np.array([word], np.uint64), np.array([row])))
            assert context[0, 0] == 0.0, f"game {seed}, word {word:#b}"


def _assert_rows_read_alone_as_in_their_family(game, make, tokens):
    """Each row of ``make(tokens)``, an ``Extensions`` on one pool, gives the
    same context values and differences alone as inside the whole family."""
    context, difference = game.values_by_mask(make(tokens))
    for r in range(len(tokens)):
        own_context, own_difference = game.values_by_mask(make(tokens[r : r + 1]))
        assert own_context.tobytes() == context[r : r + 1].tobytes(), f"row {tokens[r]}"
        assert own_difference.tobytes() == difference[r : r + 1].tobytes(), f"row {tokens[r]}"


def test_a_row_alone_reads_what_it_reads_in_its_family():
    # the estimator's per-slot promise: a slot's bits never depend on the
    # rows evaluated beside it; a table sized by the rows reads this entry
    # one unit in the last place lower alone than among all 32 rows
    rng = np.random.default_rng(1)
    game = EmbeddingGame(rng.normal(size=(32, 8)), rng.normal(size=(8, 8)))
    words = np.array([0b101], dtype=np.uint64)
    alone, _ = game.values_by_mask(Extensions(words, np.array([[0]])))
    family, _ = game.values_by_mask(Extensions(words, np.arange(32)[:, None]))
    assert alone[0, 0] == family[0, 0]  # token 0's context: the word with it toggled
    _assert_rows_read_alone_as_in_their_family(
        game, lambda tokens: Extensions(words, tokens), np.arange(32)[:, None]
    )


@pytest.mark.parametrize("table, n", [(False, 9), (False, 16), (False, 32), (False, 64), (True, 9), (True, 12)])
def test_rows_read_alone_as_in_their_family(table, n):
    rng = np.random.default_rng(n)
    game = random_table_game(rng, n) if table else EmbeddingGame(rng.normal(size=(n, 4)), rng.normal(size=(4, 5)))
    # words that miss the top 3 tokens, so no word reaches the highest rows
    words = rng.integers(0, 2**63, size=5).astype(np.uint64) & np.uint64((1 << (n - 3)) - 1)
    orders = rng.permuted(np.tile(np.arange(n), (5, 1)), axis=1)
    pairs = np.array([(a, b) for a in range(n) for b in range(n) if a != b])
    singles = np.arange(n)[:, None]
    for tokens in (singles, pairs[rng.permutation(len(pairs))[:40]]):
        _assert_rows_read_alone_as_in_their_family(game, lambda rows: Extensions(words, rows), tokens)
    _assert_rows_read_alone_as_in_their_family(game, lambda rows: Extensions(None, rows, orders), singles)


def _assert_free_words_read_their_masks(game, words, tokens, message: str = "") -> np.ndarray:
    """A word that holds none of the row's tokens is the row's context, and
    reads its plain mask's value bit for bit; returns which words those are."""
    extensions = Extensions(words, tokens)
    context = game.values_by_mask(extensions)[0][0]
    free = row_contexts(extensions)[0] == words
    assert context[free].tobytes() == game.values_by_mask(words)[free].tobytes(), message
    return free


def test_a_pool_word_reads_its_plain_mask():
    # a pool word is summed as a plain mask is, to the bit; a word summed
    # by another route reads 12769439625 one unit in the last place apart
    rng = np.random.default_rng(15)
    game = EmbeddingGame(rng.normal(size=(34, 15)), rng.normal(size=(15, 10)))
    words = rng.integers(0, 2**63, size=28).astype(np.uint64) & np.uint64((1 << 34) - 1)
    assert words[10] == 12769439625
    for tokens in ([[1]], [[32, 5]]):  # tokens word 10 does not hold
        assert _assert_free_words_read_their_masks(game, words, np.array(tokens))[10]
    for shape in range(30):
        n, k, d, d_v = rng.integers(1, 65), rng.integers(1, 40), rng.integers(1, 16), rng.integers(1, 16)
        game = EmbeddingGame(rng.normal(size=(n, d)), rng.normal(size=(d, d_v)))
        words = rng.integers(0, 2**64, size=k, dtype=np.uint64) & np.uint64((1 << int(n)) - 1)
        _assert_free_words_read_their_masks(game, words, rng.permutation(n)[:1, None], f"shape {shape}: n={n}")
