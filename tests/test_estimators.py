import dataclasses
import itertools
import math

import numpy as np
import pytest

from coalattn.estimators import (
    _BLOCK_CONTEXTS,
    EstimatorConfig,
    _draw_pool,
    _pool_key,
    _proposal_probs,
    estimate_all,
    gibbs_weights,
)
from coalattn.games import EmbeddingGame, Extensions, TabularGame
from coalattn.oracles import (
    exact_banzhaf,
    exact_game_values,
    exact_gibbs_tilted_values,
)

from conftest import (
    WORKED_TABLE,
    additive_table_game,
    random_table_game,
    reference_contexts,
    reference_pool,
    reference_slot,
    reference_stream,
    row_contexts,
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
            {"sample_count": 2**32 + 1},
            {"sample_count": 2.5},
            {"seed": 7.5},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"sample_count": True}, "sample_count"),
            ({"seed": False}, "seed"),
            ({"gamma": True}, "coalition_gamma"),
            ({"mode": True}, "mode"),
        ],
    )
    def test_bools_are_refused_by_name(self, kwargs, name):
        with pytest.raises(ValueError) as refusal:
            EstimatorConfig(**kwargs)
        assert str(refusal.value).startswith(f"{name}: ")

    def test_whole_numbers_of_other_types_are_stored_as_ints(self):
        cfg = EstimatorConfig(sample_count=7.0, seed=np.uint64(3))
        assert cfg == EstimatorConfig(sample_count=7, seed=3)
        assert type(cfg.sample_count) is int and type(cfg.seed) is int


def _slot_contexts(seed: int, kind: int, n: int, slot: tuple, count: int) -> tuple[np.ndarray, np.ndarray]:
    """One slot's contexts and their proposal probabilities, as
    ``estimate_all`` takes them from its pool of *count* draws: the
    permutations of stream 1 or the words of stream 2."""
    pool, tokens = _draw_pool(seed, kind, n, count), np.array([slot])
    extensions = Extensions(None, tokens, pool) if kind == 1 else Extensions(pool, tokens)
    return row_contexts(extensions)[0], np.broadcast_to(_proposal_probs(extensions, n), (1, count))[0]


class TestPrefixSampling:
    """Token i's contexts in a permutation pool: the tokens before it."""

    def test_proposal_probability_by_size_n3(self):
        masks, probs = _slot_contexts(0, 1, 3, (1,), 4000)
        sizes = np.array([int(m).bit_count() for m in masks])
        # p(size 0) = 0!*2!/2! = 1, p(size 1) = 1!*1!/2! = 0.5, p(size 2) = 1
        np.testing.assert_array_equal(probs[sizes == 0], 1.0)
        np.testing.assert_array_equal(probs[sizes == 1], 0.5)
        np.testing.assert_array_equal(probs[sizes == 2], 1.0)
        assert {0, 1, 2} == set(sizes.tolist())

    def test_single_token_sequence(self):
        masks, probs = _slot_contexts(1, 1, 1, (0,), 1)
        assert masks.tolist() == [0] and probs.tolist() == [1.0]

    def test_target_token_never_sampled(self):
        masks, _ = _slot_contexts(2, 1, 5, (2,), 2000)
        assert not np.any(masks & np.uint64(1 << 2))

    def test_prefix_sizes_cover_range(self):
        masks, _ = _slot_contexts(3, 1, 4, (0,), 4000)
        sizes = {int(m).bit_count() for m in masks}
        assert sizes == {0, 1, 2, 3}

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError, match="one token of the orders"):
            Extensions(None, np.array([[3]]), _draw_pool(0, 1, 3, 1))

    @pytest.mark.parametrize(
        "n,i,seed", [(1, 0, 0), (2, 1, 3), (5, 2, 7), (17, 0, 11), (64, 63, 5), (64, 20, 9)]
    )
    def test_masks_match_masked_sum_of_permuted_bits(self, n, i, seed):
        count = 300
        masks, probs = _slot_contexts(seed, 1, n, (i,), count)
        # the same permutations, summed over the positions before token i
        perms = reference_pool(seed, 1, n, count)
        places = np.argmax(perms == i, axis=1)
        keep = np.arange(n)[None, :] < places[:, None]
        bits = np.left_shift(np.uint64(1), perms.astype(np.uint64))
        expected = np.where(keep, bits, np.uint64(0)).sum(axis=1, dtype=np.uint64)
        np.testing.assert_array_equal(masks, expected)
        assert masks.dtype == np.uint64
        assert np.array_equal([int(m).bit_count() for m in masks], places)
        np.testing.assert_array_equal(probs, reference_contexts(perms, 1, n, (i,))[1])


class TestBernoulliSampling:
    """A slot's contexts in a Bernoulli pool: the words without its bits."""

    def test_single_exclusion_probability(self):
        _, probs = _slot_contexts(0, 2, 3, (1,), 100)
        np.testing.assert_array_equal(probs, 0.25)

    def test_pair_exclusion_probability(self):
        _, probs = _slot_contexts(0, 2, 3, (0, 2), 100)
        np.testing.assert_array_equal(probs, 0.5)

    def test_two_token_game_hits_both_outcomes(self):
        masks, probs = _slot_contexts(1, 2, 2, (0,), 500)
        assert set(np.unique(masks).tolist()) == {0, 2}
        np.testing.assert_array_equal(probs, 0.5)

    def test_excluded_tokens_absent(self):
        masks, _ = _slot_contexts(2, 2, 6, (1, 4), 1000)
        assert not np.any(masks & np.uint64((1 << 1) | (1 << 4)))
        assert np.any(masks & np.uint64(1 << 5))

    def test_scalar_wrapper(self):
        masks, probs = _slot_contexts(3, 2, 3, (2,), 1)
        assert masks.shape == (1,) and not masks[0] & np.uint64(1 << 2)
        assert probs.tolist() == [0.25]

    def test_excluding_every_token_degenerates_to_empty(self):
        # one-token Banzhaf sampling: the only coalition is empty, prob 1
        masks, probs = _slot_contexts(0, 2, 1, (0,), 5)
        np.testing.assert_array_equal(masks, 0)
        np.testing.assert_array_equal(probs, 1.0)


class TestProposalLaw:
    """Every slot's K contexts have the law of K independent draws of its
    own: count each context in a large pool at n = 4 and compare the count
    with its binomial law, and each proposal probability with the law's."""

    K = 200_000
    # failure probability allowed per test, shared by its at most 8 counts
    DELTA = 1e-9

    def _check_counts(self, masks: np.ndarray, expected: dict) -> None:
        # Bernstein's inequality: a Binomial(K, p) count lies within
        # L/3 + sqrt((L/3)**2 + 2 K p (1-p) L) of K p, L = ln(2/delta),
        # except with probability delta
        log_term = math.log(2.0 * len(expected) / self.DELTA)
        values, counts = np.unique(masks, return_counts=True)
        assert set(values.tolist()) <= set(expected)
        seen = dict(zip(values.tolist(), counts.tolist()))
        for mask, p in expected.items():
            reach = log_term / 3.0
            radius = reach + math.sqrt(reach**2 + 2.0 * self.K * p * (1.0 - p) * log_term)
            assert abs(seen.get(mask, 0) - self.K * p) <= radius

    @pytest.mark.parametrize("i", range(4))
    def test_prefix_contexts(self, i):
        n = 4
        masks, probs = _slot_contexts(41, 1, n, (i,), self.K)
        others = [t for t in range(n) if t != i]
        expected = {}
        for size in range(n):
            for subset in itertools.combinations(others, size):
                # size uniform on 0..n-1, the set uniform given its size
                expected[sum(1 << t for t in subset)] = 1.0 / (n * math.comb(n - 1, size))
        self._check_counts(masks, expected)
        sizes = np.bitwise_count(masks)
        for size in range(n):
            np.testing.assert_array_equal(probs[sizes == size], 1.0 / math.comb(n - 1, size))

    def test_permutation_probabilities_are_the_factorial_ratios(self):
        for n in range(1, 65):
            # the n cyclic shifts place every token at every rank
            orders = (np.arange(n)[None, :] + np.arange(n)[:, None]) % n
            probs = _proposal_probs(Extensions(None, np.arange(n)[:, None], orders), n)
            places = np.argsort(orders, axis=1).T  # places[t, k]: token t's rank in order k
            expected = [
                [math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n - 1) for s in row]
                for row in places.tolist()
            ]
            assert probs.tolist() == expected

    @pytest.mark.parametrize("kind, slot", [(2, (0,)), (2, (3,)), (2, (0, 1)), (2, (1, 3)), (2, (2, 3))])
    def test_bernoulli_contexts(self, kind, slot):
        n = 4
        masks, probs = _slot_contexts(43, kind, n, slot, self.K)
        others = [t for t in range(n) if t not in slot]
        p = 0.5 ** len(others)
        expected = {
            sum(1 << t for t in subset): p
            for size in range(len(others) + 1)
            for subset in itertools.combinations(others, size)
        }
        self._check_counts(masks, expected)
        np.testing.assert_array_equal(probs, p)


def _mixed_draws(rng: np.random.Generator, size: int) -> list:
    # 32-bit bounded integers, a permutation and raw words touch every part
    # of the Philox state (counter, key, buffer, buffered 32-bit half)
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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_match_seed_sequence(self, seed):
        # a pool's key is the two words of its SeedSequence
        for kind in (1, 2):
            words = np.random.SeedSequence(entropy=seed, spawn_key=(kind,)).generate_state(2, np.uint64)
            key = _pool_key(seed, kind)
            assert key.dtype == np.uint64 and key.tolist() == words.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_the_three_family_keys_differ(self, seed):
        # the two pools' streams and stream 3, which no pool draws: distinct
        # kinds give distinct keys
        keys = np.stack([_pool_key(seed, kind) for kind in (1, 2, 3)])
        assert len(np.unique(keys, axis=0)) == 3

    @pytest.mark.parametrize("seed,kind", [(0, 99), (7, 1), (2**64 - 1, 3), (2**70, 98)])
    def test_pool_stream_matches_fresh_generator(self, seed, kind):
        # a family key is a Philox key: the generator it keys draws the
        # documented stream
        key = _pool_key(seed, kind)
        assert _mixed_draws(np.random.Generator(np.random.Philox(key=key)), 9) == _mixed_draws(
            reference_stream(seed, kind), 9
        )

    # kind 3 is neither pool's stream: _draw_pool draws words on every
    # stream but the Shapley one
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 9, 64])
    def test_family_pool_matches_fresh_generator(self, seed, kind, n):
        np.testing.assert_array_equal(_draw_pool(seed, kind, n, 37), reference_pool(seed, kind, n, 37))

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), 7.0])
    def test_seed_of_another_numeric_type_gives_the_int_seed_values(self, seed):
        rng = np.random.default_rng(3)
        game = EmbeddingGame(rng.normal(size=(9, 3)), rng.normal(size=(3, 2)))
        got = estimate_all(game, EstimatorConfig(seed=seed))
        expected = estimate_all(game, EstimatorConfig(seed=7))
        for field in dataclasses.fields(expected):
            np.testing.assert_array_equal(getattr(got, field.name), getattr(expected, field.name))
        for kind in (1, 2):
            np.testing.assert_array_equal(_draw_pool(seed, kind, 9, 5), reference_pool(7, kind, 9, 5))


class _RecordingGame:
    """Embedding game that keeps every mask batch it evaluates."""

    def __init__(self, game):
        self._game = game
        self.n = game.n
        self.batches = []

    def values_by_mask(self, masks):
        self.batches.append(np.asarray(masks))
        return self._game.values_by_mask(masks)


class TestPinnedStream:
    """The pool keys and first pool draws of one seed, written out as
    integers, so a change to the key derivation or the pool draws fails
    here instead of silently shifting every report.  Masks only, so no float
    math is pinned."""

    SEED = 20260318
    # (h0, h1) = SeedSequence(entropy=SEED, spawn_key=(kind,)).generate_state(2, np.uint64)
    FAMILY_KEYS = {
        1: [12164794782058381883, 13745585440701167947],
        2: [17874541722704740760, 17658661319511904818],
    }
    # the first four raw words of Philox(key=FAMILY_KEYS[2]), the Banzhaf
    # and interaction pool of a 64-token game
    FIRST_WORDS = [
        7531076695659951360,
        13874506068184411892,
        15590939155447497981,
        3683903906639631532,
    ]
    # the first two permutations of the Shapley pool of an 8-token game
    FIRST_ORDERS = [[1, 7, 4, 0, 2, 6, 5, 3], [6, 2, 5, 7, 0, 4, 3, 1]]

    def test_family_keys(self):
        for kind, key in self.FAMILY_KEYS.items():
            assert _pool_key(self.SEED, kind).tolist() == key

    def test_sampler_on_the_pair_stream(self):
        assert _draw_pool(self.SEED, 2, 64, 4).tolist() == self.FIRST_WORDS
        assert _draw_pool(self.SEED, 1, 8, 2).tolist() == self.FIRST_ORDERS

    def test_interaction_batch_evaluates_the_pinned_contexts(self):
        rng = np.random.default_rng(1)
        game = _RecordingGame(EmbeddingGame(rng.normal(size=(64, 3)), rng.normal(size=(3, 2))))
        k = 4
        estimate_all(game, EstimatorConfig(sample_count=k, seed=self.SEED))
        assert sum(batch.size for batch in game.batches) == 2 * k * 64 * 65
        # the two token families evaluate (2, slots, K) blocks, then the
        # pairs (4, pairs, K) blocks in row-major pair order
        pair_masks = np.concatenate([batch for batch in game.batches if batch.shape[0] == 4], axis=1)
        pairs = [(i, j) for i in range(64) for j in range(i + 1, 64)]
        assert pair_masks.shape == (4, len(pairs), k)
        masks = pair_masks[:, pairs.index((5, 63))].tolist()
        # each word with every subset of the pair toggled, which per word is
        # the word's context, the word without the pair, with every subset added
        bits = [0, 1 << 5, 1 << 63, (1 << 5) | (1 << 63)]
        assert masks == [[m ^ b for m in self.FIRST_WORDS] for b in bits]
        contexts = [m & ~bits[3] for m in self.FIRST_WORDS]
        for column, context in enumerate(contexts):
            assert sorted(row[column] for row in masks) == sorted(context | b for b in bits)


class TestPinnedBits:
    """``float.hex`` of some ``estimate_all`` outputs of a seeded embedding
    game in both modes and of a seeded table game, so a change that moves
    one bit of an estimate, a standard error or an effective sample size
    fails here.  The bits come from the engine's float64 arithmetic and
    numpy's BLAS, ``exp`` and ``log``; a build that rounds those otherwise
    shows here first."""

    # K = 700 puts several slots in a block and leaves the last one part full
    CONFIG = {"sample_count": 700, "seed": 11, "gamma": 2.0}
    # Shapley and Banzhaf values of tokens 3 and 5, the interaction of (2, 6),
    # their standard errors and token 5's effective sample size
    PINS = {
        ("embedding", "gibbs"): (
            "-0x1.6ed51e90ca520p-1", "-0x1.6cc15c8ef8e1ap+0", "-0x1.2a2d3a442bdd6p-1",
            "0x1.66e04543fe4b2p-5", "0x1.0d6c688b8f322p-4", "0x1.c7fd26077afc3p-6", "0x1.4d53fee368d32p+4",
        ),
        ("embedding", "classic"): (
            "-0x1.8b6fdbfaebbdep-3", "-0x1.6a317bdff8cf0p-2", "-0x1.0b3d1a5fbe565p+0",
            "0x1.d26902e338bc6p-6", "0x1.cc14174fd891ap-5", "0x1.d5bd4c3df75fep-6", "0x1.5e00000000000p+9",
        ),
        ("table", "gibbs"): (
            "-0x1.1312ea744ee0ep-4", "-0x1.015f47af76489p-2", "0x1.9e42478bf4c8cp-5",
            "0x1.28ab26bc18eb0p-5", "0x1.f4ec6d1c351c9p-6", "0x1.033516ae38ab2p-5", "0x1.91654c185ac2fp+8",
        ),
    }

    @staticmethod
    def _games() -> dict:
        rng = np.random.default_rng(2026)
        embedding = EmbeddingGame(rng.normal(size=(12, 4)), rng.normal(size=(4, 3)))
        table = rng.uniform(-1.0, 1.0, size=1 << 7)
        table[0] = 0.0
        return {"embedding": embedding, "table": TabularGame(table)}

    @pytest.mark.parametrize("game, mode", sorted(PINS))
    def test_estimates_keep_their_bits(self, game, mode):
        values = estimate_all(self._games()[game], EstimatorConfig(mode=mode, **self.CONFIG))
        got = (
            values.shapley[3],
            values.banzhaf[5],
            values.interactions[2, 6],
            values.shapley_standard_error[3],
            values.banzhaf_standard_error[5],
            values.interaction_standard_error[2, 6],
            values.effective_sample_size[5],
        )
        assert tuple(float(number).hex() for number in got) == self.PINS[game, mode]


class TestSharedWordPool:
    """The Banzhaf and pair slots of one estimate share one pool of words:
    the game sums it once, and every block toggles the same K words."""

    def test_one_word_sum_serves_the_banzhaf_and_pair_blocks(self, monkeypatch):
        summed = []

        def word_values(game, extensions, members, signs, _form=EmbeddingGame._word_values):
            summed.append(extensions.contexts)
            return _form(game, extensions, members, signs)

        monkeypatch.setattr(EmbeddingGame, "_word_values", word_values)
        rng = np.random.default_rng(5)
        n, k = 9, 700
        game = _RecordingGame(EmbeddingGame(rng.normal(size=(n, 3)), rng.normal(size=(3, 2))))
        estimate_all(game, EstimatorConfig(sample_count=k, seed=8))
        assert len(summed) == 1
        # a block holds as many slots as _BLOCK_CONTEXTS contexts allow: the
        # n Shapley and then the n Banzhaf rows take (2, slots, K) blocks,
        # the pairs (4, pairs, K)
        per_block = _BLOCK_CONTEXTS // k
        assert 1 < per_block < n * (n - 1) // 2  # the pairs take several blocks of several slots
        token_rows = np.concatenate([batch for batch in game.batches if batch.shape[0] == 2], axis=1)
        pair_rows = np.concatenate([batch for batch in game.batches if batch.shape[0] == 4], axis=1)
        assert token_rows.shape == (2, 2 * n, k) and pair_rows.shape == (4, n * (n - 1) // 2, k)
        assert len(game.batches) == 2 * -(-n // per_block) + -(-(n * (n - 1) // 2) // per_block)
        # coalition 0 of a row on a word toggles no token: it is the word itself
        words = summed[0]
        np.testing.assert_array_equal(words, _draw_pool(8, 2, n, k))
        np.testing.assert_array_equal(token_rows[0, n:], np.broadcast_to(words, (n, k)))
        np.testing.assert_array_equal(pair_rows[0], np.broadcast_to(words, pair_rows.shape[1:]))


class TestTracedEvaluationCount:
    """The evaluation count an outside tracer sees: it wraps each game class's
    ``values_by_mask`` and adds up ``np.asarray(masks).size`` per call, so
    that count must stay ``2*K*n*(n+1)`` per ``estimate_all`` whatever form
    the masks are handed over in."""

    # K = 25 and 1100 put many slots in one evaluation, the last one partly
    # filled, and K past the block cap one slot per call
    @pytest.mark.parametrize("k", [25, 1100, _BLOCK_CONTEXTS + 1])
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

    def test_nan_beside_an_overflowing_value_is_named(self):
        # 1e308 / 1e-10 overflows too, but the NaN is what the refusal names
        with pytest.raises(ValueError) as refusal:
            gibbs_weights(np.array([1e308, np.nan]), np.ones(2), 1e-10)
        assert type(refusal.value) is ValueError
        assert str(refusal.value) == "values must not contain NaN"

    @pytest.mark.parametrize("infinity", [np.inf, -np.inf])
    def test_infinite_values_are_named_not_the_temperature(self, infinity):
        with pytest.raises(ValueError) as refusal:
            gibbs_weights(np.array([infinity, 0.0]), np.ones(2), 1.0)
        assert type(refusal.value) is ValueError
        assert str(refusal.value) == "values must not contain inf or -inf"

    def test_bad_proposals_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            gibbs_weights(np.ones(1), np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="probabilities"):
            gibbs_weights(np.ones(1), np.array([1.5]), 1.0)
        # a NaN fails every comparison, so a check for bad values would pass it
        with pytest.raises(ValueError, match="probabilities"):
            gibbs_weights(np.ones(2), np.array([np.nan, 0.5]), 1.0)

    def test_bad_gamma_rejected(self):
        # by the run setting's name: a bool is not 1.0, and a string is
        # not a temperature
        for gamma in (True, "0.25", 0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="^coalition_gamma: "):
                gibbs_weights(np.ones(1), np.ones(1), gamma)


# the streams of the permutation pool and of the word pool, which Banzhaf
# values (slots of one token) and interactions (slots of two) share
_SHAPLEY, _WORDS = 1, 2


def _slot_estimate(values, kind: int, slot: tuple) -> float:
    """``estimate_all``'s value for one slot."""
    if len(slot) == 2:
        return values.interactions[slot]
    return (values.shapley if kind == _SHAPLEY else values.banzhaf)[slot[0]]


def _slot_standard_error(values, kind: int, slot: tuple) -> float:
    """``estimate_all``'s standard error for one slot."""
    if len(slot) == 2:
        return values.interaction_standard_error[slot]
    return (values.shapley_standard_error if kind == _SHAPLEY else values.banzhaf_standard_error)[slot[0]]


def _checked_slot(values, game, cfg, kind: int, slot: tuple) -> tuple[float, float]:
    """(estimate, standard error) of one slot of *values*, after checking
    that ``estimate_all`` gave the per-slot reference estimate and standard
    error bit for bit."""
    estimate, _, se = reference_slot(game, cfg, kind, slot)
    assert _slot_estimate(values, kind, slot) == estimate
    assert _slot_standard_error(values, kind, slot) == se
    return estimate, se


class TestClassicMode:
    def test_additive_game_exact_for_any_sample_count(self):
        weights = [0.4, -0.9, 1.7]
        game = additive_table_game(weights)
        cfg = EstimatorConfig(sample_count=13, seed=5, gamma=1.0, mode="classic")
        values = estimate_all(game, cfg)
        for i, w in enumerate(weights):
            assert _checked_slot(values, game, cfg, _SHAPLEY, (i,))[0] == pytest.approx(w, abs=1e-12)
            assert _checked_slot(values, game, cfg, _WORDS, (i,))[0] == pytest.approx(w, abs=1e-12)
        assert _checked_slot(values, game, cfg, _WORDS, (0, 2))[0] == pytest.approx(0.0, abs=1e-12)

    def test_worked_table_converges_to_exact(self, worked_game):
        cfg = EstimatorConfig(sample_count=100_000, seed=12, gamma=1.0, mode="classic")
        values = estimate_all(worked_game, cfg)
        assert values.shapley[1] == pytest.approx(0.7667, abs=0.02)
        assert values.banzhaf[1] == pytest.approx(0.775, abs=0.02)
        assert values.interactions[0, 1] == pytest.approx(0.45, abs=0.02)

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
            estimate, se = _checked_slot(values, game, cfg, _WORDS, (i,))
            assert abs(estimate - tilted.banzhaf[i]) <= 3 * se
        estimate, se = _checked_slot(values, game, cfg, _WORDS, (0, 3))
        assert abs(estimate - tilted.interactions[0, 3]) <= 3 * se

    def test_high_temperature_flattens_to_classic_for_subset_samplers(self, worked_game):
        hot = estimate_all(worked_game, EstimatorConfig(sample_count=500, seed=9, gamma=1e9, mode="gibbs"))
        cold = estimate_all(worked_game, EstimatorConfig(sample_count=500, seed=9, gamma=1e9, mode="classic"))
        assert hot.banzhaf[1] == pytest.approx(cold.banzhaf[1], abs=1e-6)
        assert hot.interactions[0, 1] == pytest.approx(cold.interactions[0, 1], abs=1e-6)

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
        np.testing.assert_array_equal(a.shapley, b.shapley)
        np.testing.assert_array_equal(a.banzhaf, b.banzhaf)
        np.testing.assert_array_equal(a.interactions, b.interactions)
        np.testing.assert_array_equal(a.effective_sample_size, b.effective_sample_size)

    def test_estimate_all_matches_individual_calls(self, worked_game):
        cfg = EstimatorConfig(sample_count=64, seed=7, gamma=0.5, mode="gibbs")
        values = estimate_all(worked_game, cfg)
        for i in range(3):
            shapley_ess = reference_slot(worked_game, cfg, _SHAPLEY, (i,))[1]
            banzhaf_ess = reference_slot(worked_game, cfg, _WORDS, (i,))[1]
            _checked_slot(values, worked_game, cfg, _SHAPLEY, (i,))
            _checked_slot(values, worked_game, cfg, _WORDS, (i,))
            assert values.effective_sample_size[i] == min(shapley_ess, banzhaf_ess)
        _checked_slot(values, worked_game, cfg, _WORDS, (0, 2))

    def test_interaction_orientation_is_identical(self, worked_game):
        cfg = EstimatorConfig(sample_count=100, seed=5, gamma=1.0, mode="gibbs")
        values = estimate_all(worked_game, cfg)
        assert values.interactions[2, 0] == values.interactions[0, 2]
        _checked_slot(values, worked_game, cfg, _WORDS, (0, 2))

    def test_symmetric_tokens_take_different_contexts_from_one_pool(self):
        # tokens 0 and 1 are interchangeable, so contexts drawn alike for
        # both (one stream replayed per token) would give them mirrored
        # coalitions and equal Shapley estimates; from one permutation each
        # takes the tokens before it, which differ
        table = np.asarray(WORKED_TABLE)
        masks = np.arange(8)
        swapped = (masks & 0b100) | ((masks & 1) << 1) | ((masks >> 1) & 1)
        game = TabularGame(0.5 * (table + table[swapped]))
        cfg = EstimatorConfig(sample_count=50, seed=11, gamma=1.0, mode="classic")
        values = estimate_all(game, cfg)
        assert values.shapley[0] != values.shapley[1]
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
        estimate, se = _checked_slot(values, worked_game, cfg, _WORDS, (1,))
        # the Banzhaf pool without token 1: coalitions of tokens 0 and 2
        contexts, _ = reference_contexts(reference_pool(6, _WORDS, 3, 400), _WORDS, 3, (1,))
        contexts = contexts.astype(np.int64)
        marginals = worked_game.table[contexts | 0b010] - worked_game.table[contexts]
        assert estimate == pytest.approx(float(np.mean(marginals)), rel=1e-12)
        assert se == pytest.approx(float(np.std(marginals) / np.sqrt(400)), rel=1e-12)
        assert values.banzhaf_standard_error[1] == se

    def test_structural_shape(self, worked_game):
        cfg = EstimatorConfig(sample_count=10, seed=1, gamma=1.0, mode="gibbs")
        values = estimate_all(worked_game, cfg)
        assert values.shapley.shape == (3,)
        np.testing.assert_array_equal(values.interactions, values.interactions.T)
        assert np.all(np.diag(values.interactions) == 0.0)
        assert np.all(np.isfinite(values.shapley))
        for name in ("shapley", "banzhaf", "interaction"):
            errors = getattr(values, f"{name}_standard_error")
            assert errors.shape == getattr(values, "interactions" if name == "interaction" else name).shape
            assert np.all(errors >= 0.0) and np.all(np.isfinite(errors))
        np.testing.assert_array_equal(values.interaction_standard_error, values.interaction_standard_error.T)
        assert np.all(np.diag(values.interaction_standard_error) == 0.0)

    def test_exact_oracles_leave_the_standard_errors_unset(self, worked_game):
        for values in (exact_game_values(worked_game), exact_gibbs_tilted_values(worked_game, 0.5)):
            assert values.effective_sample_size is None
            assert values.shapley_standard_error is None
            assert values.banzhaf_standard_error is None
            assert values.interaction_standard_error is None


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
            estimate, se = _checked_slot(values, game, cfg, _WORDS, (i,))
            assert abs(estimate - exact_banzhaf(game, i)) <= 3 * se
        estimate, se = _checked_slot(values, game, cfg, _WORDS, (1, 4))
        assert abs(estimate - exact_game_values(game).interactions[1, 4]) <= 3 * se
