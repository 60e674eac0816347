import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalattn import oracles
from coalattn.games import CountingGame, EmbeddingGame, TabularGame, token_members
from coalattn.linalg import TemperatureError
from coalattn.oracles import (
    EnumerationLimitError,
    exact_banzhaf,
    exact_game_values,
    exact_gibbs_tilted_values,
    exact_spin_marginals,
    exact_table,
)

from conftest import (
    _masks_excluding,
    _reference_tilted_average,
    additive_table_game,
    exact_shapley_by_permutations,
    hamiltonian,
    random_table_game,
    reference_game_values,
    reference_spin_marginals,
    reference_tilted_values,
)

WORKED_FIELDS = [0.423, 0.711, 0.512]
WORKED_COUPLINGS = [[0.0, 0.466, 0.312], [0.466, 0.0, 0.278], [0.312, 0.278, 0.0]]


class TestExactShapley:
    def test_worked_table(self, worked_game):
        # frozen from an independent all-permutations hand enumeration
        shapley = exact_game_values(worked_game).shapley
        assert shapley[1] == pytest.approx(0.7667, abs=5e-5)
        assert shapley[0] == pytest.approx(0.516667, abs=5e-6)
        assert shapley[2] == pytest.approx(0.516667, abs=5e-6)

    def test_efficiency_on_worked_table(self, worked_game):
        shapley = exact_game_values(worked_game).shapley
        total = sum(shapley[i] for i in range(3))
        assert total == pytest.approx(1.8, abs=1e-12)

    def test_additive_game(self):
        weights = [0.3, -1.2, 2.0, 0.05]
        game = additive_table_game(weights)
        shapley = exact_game_values(game).shapley
        for i, w in enumerate(weights):
            assert shapley[i] == pytest.approx(w, abs=1e-12)

    def test_agrees_with_permutation_walk(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 7):
            game = random_table_game(rng, n)
            shapley = exact_game_values(game).shapley
            for i in range(n):
                closed = shapley[i]
                walked = exact_shapley_by_permutations(game, i)
                assert closed == pytest.approx(walked, abs=1e-10)

    def test_weights_are_the_factorial_ratios(self):
        for n in range(1, 21):
            per_size = [math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n) for s in range(n)]
            sizes = np.bitwise_count(np.arange(1 << (n - 1)))
            assert oracles._shapley_weights(n).tolist() == [per_size[s] for s in sizes.tolist()]

    def test_limit_refused_with_message(self):
        rng = np.random.default_rng(1)
        game = EmbeddingGame(rng.normal(size=(21, 2)), np.eye(2))
        with pytest.raises(EnumerationLimitError, match="20"):
            exact_game_values(game)


class TestExactBanzhaf:
    def test_worked_table(self, worked_game):
        # (0.5 + 1.0 + 0.6 + 1.0) / 4 over the four coalitions avoiding token 1
        assert exact_banzhaf(worked_game, 1) == pytest.approx(0.775, abs=1e-12)

    def test_additive_game(self):
        weights = [0.25, 1.5, -0.75]
        game = additive_table_game(weights)
        for i, w in enumerate(weights):
            assert exact_banzhaf(game, i) == pytest.approx(w, abs=1e-12)

    def test_single_token_game(self):
        game = TabularGame([0.0, 0.9])
        assert exact_banzhaf(game, 0) == pytest.approx(0.9)

    def test_limit_refused(self):
        rng = np.random.default_rng(2)
        game = EmbeddingGame(rng.normal(size=(21, 2)), np.eye(2))
        with pytest.raises(EnumerationLimitError, match="20"):
            exact_banzhaf(game, 0)

    def test_a_token_past_the_game_is_refused_by_index(self):
        with pytest.raises(ValueError) as refusal:
            exact_banzhaf(TabularGame([0.0, 0.9]), 3)
        assert str(refusal.value) == "token index 3 out of range for n=1"


class TestExactInteraction:
    def test_worked_table(self, worked_game):
        # (0.5 + 0.4) / 2 over the contexts {} and {token 2}
        interactions = exact_game_values(worked_game).interactions
        assert interactions[0, 1] == pytest.approx(0.45, abs=1e-12)

    def test_additive_game_vanishes(self):
        game = additive_table_game([1.0, 2.0, 3.0])
        assert exact_game_values(game).interactions[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_in_arguments(self, worked_game):
        interactions = exact_game_values(worked_game).interactions
        assert interactions[1, 0] == interactions[0, 1]


class TestAxioms:
    def test_efficiency_on_random_games(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            game = random_table_game(rng, n)
            shapley = exact_game_values(game).shapley
            total = sum(shapley[i] for i in range(n))
            target = game.table[(1 << n) - 1] - game.table[0]
            assert abs(total - target) < 1e-9

    def test_symmetry_of_swap_invariant_game(self):
        rng = np.random.default_rng(102)
        n, a, b = 5, 1, 3
        base = random_table_game(rng, n).table.copy()

        def swap(mask):
            bit_a, bit_b = (mask >> a) & 1, (mask >> b) & 1
            mask &= ~((1 << a) | (1 << b))
            return mask | (bit_b << a) | (bit_a << b)

        table = np.array([0.5 * (base[m] + base[swap(m)]) for m in range(1 << n)])
        game = TabularGame(table)
        shapley = exact_game_values(game).shapley
        assert abs(shapley[a] - shapley[b]) <= 1e-12
        assert abs(exact_banzhaf(game, a) - exact_banzhaf(game, b)) <= 1e-12

    def test_dummy_token_scores_exactly_zero(self):
        rng = np.random.default_rng(103)
        n = 6
        base = random_table_game(rng, n - 1).table
        low = (1 << (n - 1)) - 1
        table = np.array([base[m & low] for m in range(1 << n)])
        game = TabularGame(table)
        assert exact_game_values(game).shapley[n - 1] == 0.0
        assert exact_banzhaf(game, n - 1) == 0.0


class TestTiltedOracles:
    def test_flattens_to_uniform_at_high_temperature(self, worked_game):
        hot = exact_gibbs_tilted_values(worked_game, 1e9)
        assert hot.banzhaf[1] == pytest.approx(exact_banzhaf(worked_game, 1), abs=1e-6)
        exact = exact_game_values(worked_game).interactions[0, 1]
        assert hot.interactions[0, 1] == pytest.approx(exact, abs=1e-6)

    def test_prefix_limit_is_the_subset_tilted_average(self, worked_game):
        # the prefix sampler's density differs from the weight denominator by
        # the constant 1/n only, so its exact limit coincides with the
        # subset-tilted value; at high temperature both flatten to Banzhaf
        tilted = exact_gibbs_tilted_values(worked_game, 0.7)
        assert tilted.shapley[1] == pytest.approx(tilted.banzhaf[1], abs=1e-12)
        hot = exact_gibbs_tilted_values(worked_game, 1e9)
        assert hot.shapley[1] == pytest.approx(exact_banzhaf(worked_game, 1), abs=1e-6)

    def test_hand_enumeration_of_worked_table(self, worked_game):
        # independent 4-coalition enumeration for token 1 at gamma = 1
        table = dict(enumerate(worked_game.table))
        masks = [0b000, 0b001, 0b100, 0b101]
        weights = [math.exp(table[m]) for m in masks]
        z = sum(weights)
        expected = sum(
            w * (table[m | 0b010] - table[m]) for w, m in zip(weights, masks)
        ) / z
        got = exact_gibbs_tilted_values(worked_game, 1.0).banzhaf[1]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_game_is_uniform(self):
        game = TabularGame(np.zeros(8))
        assert exact_gibbs_tilted_values(game, 0.3).banzhaf[0] == pytest.approx(
            exact_banzhaf(game, 0), abs=1e-15
        )

    def test_full_structure(self, worked_game):
        values = exact_gibbs_tilted_values(worked_game, 1.0)
        np.testing.assert_array_equal(values.interactions, values.interactions.T)
        assert np.all(np.diag(values.interactions) == 0.0)

    def test_limit_refused(self):
        rng = np.random.default_rng(3)
        game = EmbeddingGame(rng.normal(size=(21, 2)), np.eye(2))
        with pytest.raises(EnumerationLimitError, match="20"):
            exact_gibbs_tilted_values(game, 1.0)


class TestTemperatureOverflow:
    """A gamma so small that a context's ``v / gamma`` overflows float64 is
    refused by name; the worked table's values are 0.2-1.8."""

    def test_tilted_oracles_refuse_an_overflowing_gamma(self, worked_game):
        with pytest.raises(TemperatureError, match="^coalition_gamma: 1e-310 is too small"):
            exact_gibbs_tilted_values(worked_game, 1e-310)

    def test_the_grand_coalition_is_no_context(self, worked_game):
        # 1.8 / 8e-309 overflows, but 1.2 / 8e-309, the largest value of a
        # context, does not
        values = exact_gibbs_tilted_values(worked_game, 8e-309)
        for field in (values.shapley, values.banzhaf, values.interactions):
            assert np.all(np.isfinite(field))
        assert values.banzhaf[2] == reference_tilted_values(worked_game.table, 8e-309)[1][2]

    def test_spin_marginals_refuse_an_overflowing_gamma(self):
        with pytest.raises(TemperatureError, match="^spin_gamma: 1e-310 is too small"):
            exact_spin_marginals(WORKED_FIELDS, WORKED_COUPLINGS, 1e-310)


@pytest.mark.parametrize("gamma", [True, "0.25", 0, float("inf"), float("nan")])
def test_bad_temperatures_refused_by_name(worked_game, gamma):
    # a bool is not 1.0, and a string is not a temperature
    with pytest.raises(ValueError, match="^coalition_gamma: "):
        exact_gibbs_tilted_values(worked_game, gamma)
    with pytest.raises(ValueError, match="^spin_gamma: "):
        exact_spin_marginals(WORKED_FIELDS, WORKED_COUPLINGS, gamma)


class TestHamiltonian:
    def test_single_spin(self):
        assert hamiltonian([1.0], [[0.0]], [1.0]) == -1.0

    def test_worked_instance_all_plus(self):
        energy = hamiltonian(WORKED_FIELDS, WORKED_COUPLINGS, [1.0, 1.0, 1.0])
        assert energy == pytest.approx(-2.702, abs=1e-9)

    def test_zero_couplings_and_fields(self):
        for spins in itertools.product([-1.0, 1.0], repeat=3):
            assert hamiltonian([0.0] * 3, np.zeros((3, 3)), list(spins)) == 0.0

    def test_non_unit_spin_rejected(self):
        with pytest.raises(ValueError, match="exactly"):
            hamiltonian([1.0], [[0.0]], [0.5])

    def test_asymmetric_couplings_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            hamiltonian([0.0, 0.0], [[0.0, 1.0], [0.5, 0.0]], [1.0, 1.0])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            hamiltonian([0.0], [[1.0]], [1.0])


class TestExactSpinMarginals:
    def test_single_spin_closed_form(self):
        result = exact_spin_marginals([0.5], [[0.0]], 1.0)
        assert result.expected_spins[0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        assert result.alphas[0] == pytest.approx(0.7311, abs=5e-5)

    def test_zero_system_is_uniform(self):
        result = exact_spin_marginals(np.zeros(4), np.zeros((4, 4)), 2.0)
        np.testing.assert_allclose(result.alphas, 0.5, atol=1e-15)

    def test_flip_symmetry(self):
        couplings = [[0.0, 1.0], [1.0, 0.0]]
        result = exact_spin_marginals([0.0, 0.0], couplings, 1.0)
        np.testing.assert_allclose(result.expected_spins, 0.0, atol=1e-12)

    def test_zero_couplings_match_tanh(self):
        rng = np.random.default_rng(55)
        fields = rng.uniform(-2, 2, size=6)
        gamma = 0.8
        result = exact_spin_marginals(fields, np.zeros((6, 6)), gamma)
        np.testing.assert_allclose(result.expected_spins, np.tanh(fields / gamma), atol=1e-12)

    def test_alpha_spin_relation(self):
        rng = np.random.default_rng(56)
        fields, couplings = _random_spin_system(rng, 5)
        result = exact_spin_marginals(fields, couplings, 0.9)
        np.testing.assert_allclose(
            result.alphas, (1.0 + result.expected_spins) / 2.0, atol=1e-15
        )

    def test_alpha_sum_is_expected_active_count(self):
        rng = np.random.default_rng(57)
        fields, couplings = _random_spin_system(rng, 4)
        gamma = 1.3
        result = exact_spin_marginals(fields, couplings, gamma)
        # independent route: direct probability-weighted active-token count
        total = 0.0
        norm = 0.0
        expected_active = 0.0
        for spins in itertools.product([-1.0, 1.0], repeat=4):
            weight = math.exp(-hamiltonian(fields, couplings, list(spins)) / gamma)
            norm += weight
            expected_active += weight * sum(1 for s in spins if s > 0)
        assert float(np.sum(result.alphas)) == pytest.approx(expected_active / norm, abs=1e-9)

    def test_limit_refused(self):
        with pytest.raises(EnumerationLimitError, match="16"):
            exact_spin_marginals(np.zeros(17), np.zeros((17, 17)), 1.0)


def _random_spin_system(rng, n, scale=1.0):
    fields = rng.uniform(-scale, scale, size=n)
    raw = rng.uniform(-scale, scale, size=(n, n))
    couplings = (raw + raw.T) / 2.0
    np.fill_diagonal(couplings, 0.0)
    return fields, couplings


def test_exact_game_values_structure(worked_game):
    values = exact_game_values(worked_game)
    np.testing.assert_allclose(values.shapley, [0.516667, 0.766667, 0.516667], atol=5e-7)
    np.testing.assert_array_equal(values.interactions, values.interactions.T)
    assert np.all(np.diag(values.interactions) == 0.0)
    assert float(np.sum(values.shapley)) == pytest.approx(1.8, abs=1e-9)


class TestOneTablePerCall:
    @pytest.mark.parametrize("n", [1, 6, 12])
    def test_game_values_evaluate_each_coalition_once(self, n):
        rng = np.random.default_rng(n)
        game = CountingGame(EmbeddingGame(rng.normal(size=(n, 3)), rng.normal(size=(3, 4))))
        exact_game_values(game)
        assert game.evaluations == 2**n
        game.evaluations = 0
        exact_gibbs_tilted_values(game, 0.5)
        assert game.evaluations == 2**n

    def test_same_numbers_as_the_per_token_oracles(self):
        rng = np.random.default_rng(23)
        n = 6
        game = EmbeddingGame(rng.normal(size=(n, 3)), rng.normal(size=(3, 4)), "tanh")
        gamma = 0.5
        pairs = list(itertools.combinations(range(n), 2))
        exact = exact_game_values(game)
        tilted = exact_gibbs_tilted_values(game, gamma)
        assert exact.banzhaf.tolist() == [exact_banzhaf(game, i) for i in range(n)]
        # a second call tabulates the game afresh
        again = exact_game_values(game).interactions
        assert [exact.interactions[i, j] for i, j in pairs] == [again[i, j] for i, j in pairs]
        # both read the same per-token rows, so pin them to the mask-filter formulas too
        table = exact_table(game).table
        _assert_same_bits(exact, reference_game_values(table))
        _assert_same_bits(tilted, reference_tilted_values(table, gamma))

    @pytest.mark.parametrize(
        "oracle, n, limit",
        [
            (exact_game_values, 21, "20"),
            (lambda game: exact_gibbs_tilted_values(game, 1.0), 21, "20"),
        ],
    )
    def test_limit_refused_before_any_evaluation(self, oracle, n, limit):
        rng = np.random.default_rng(n)
        game = CountingGame(EmbeddingGame(rng.normal(size=(n, 2)), np.eye(2)))
        with pytest.raises(EnumerationLimitError, match=limit):
            oracle(game)
        assert game.evaluations == 0

    def test_the_limit_game_matches_the_per_token_oracle(self):
        # 20 tokens, the game oracles' one limit
        game = random_table_game(np.random.default_rng(20), 20)
        assert _bits(exact_game_values(game).banzhaf[7]) == _bits(exact_banzhaf(game, 7))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_same_bits(values, reference) -> None:
    shapley, banzhaf, interactions = reference
    assert _bits(values.shapley) == _bits(shapley)
    assert _bits(values.banzhaf) == _bits(banzhaf)
    assert _bits(values.interactions) == _bits(interactions)


def _reference_table(n: int) -> TabularGame:
    # values spread over a few units, so the tilted weights at gamma 0.3
    # range over many orders of magnitude
    return random_table_game(np.random.default_rng(1000 + n), n, scale=3.0)


class TestMaskFilterReference:
    """The per-token-row oracles against ``conftest``'s mask-filter formulas,
    bit for bit, batched and, for ``exact_banzhaf``, one token at a time."""

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_exact_values(self, n):
        game = _reference_table(n)
        reference = reference_game_values(game.table)
        _assert_same_bits(exact_game_values(game), reference)
        _, banzhaf, interactions = reference
        assert _bits([exact_banzhaf(game, i) for i in range(n)]) == _bits(banzhaf)
        got = exact_game_values(game).interactions
        for i, j in itertools.permutations(range(n), 2):
            assert _bits(got[i, j]) == _bits(interactions[i, j])

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 16])
    def test_tilted_values(self, n):
        game = _reference_table(n)
        reference = reference_tilted_values(game.table, 0.3)
        _assert_same_bits(exact_gibbs_tilted_values(game, 0.3), reference)

    @pytest.mark.parametrize("logsumexp", ["engine", "scipy"])
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 16])
    def test_spin_marginals(self, n, logsumexp):
        # the engine's _logsumexp applied to each spin's mask-filtered "up"
        # configurations checks the oracle's reshape views; scipy's is the
        # function the oracle used before
        if logsumexp == "scipy":
            reference_logsumexp = pytest.importorskip("scipy.special").logsumexp
        else:
            reference_logsumexp = oracles._logsumexp
        fields, couplings = _random_spin_system(np.random.default_rng(2000 + n), n, scale=2.0)
        gamma = 0.25
        alphas, log_z = reference_spin_marginals(fields, couplings, gamma, reference_logsumexp)
        result = exact_spin_marginals(fields, couplings, gamma)
        assert _bits(result.alphas) == _bits(alphas)
        assert _bits(result.log_partition) == _bits(log_z)


class TestEarlierSummationOrders:
    """The oracles' earlier forms against today's: the four-term second
    difference ``v(C+lo+hi) - v(C+lo) - v(C+hi) + v(C)``, the prefix
    Shapley limit with both of its densities explicit, and the
    three-operand ``einsum`` spin energy.  Today's forms are pinned bit for
    bit by ``TestMaskFilterReference``; the two differ by roundoff alone."""

    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_game_values(self, n):
        game, gamma = _reference_table(n), 0.3
        table, tol = game.table, 1e-14 * 3.0  # the table's scale
        exact, tilted = exact_game_values(game), exact_gibbs_tilted_values(game, gamma)
        log_p_by_size = np.array([math.lgamma(s + 1) + math.lgamma(n - s) - math.lgamma(n) for s in range(n)])
        for i in range(n):
            masks = _masks_excluding(n, i)
            base = table[masks]
            log_p = log_p_by_size[np.bitwise_count(masks)]
            log_q = log_p - math.log(n)
            prefix = _reference_tilted_average(log_q + base / gamma - log_p, table[masks | (1 << i)] - base)
            assert abs(prefix - tilted.shapley[i]) <= tol
        for lo, hi in itertools.combinations(range(n), 2):
            masks = _masks_excluding(n, lo, hi)
            bl, bh = 1 << lo, 1 << hi
            base = table[masks]
            deltas = table[masks | bl | bh] - table[masks | bl] - table[masks | bh] + base
            assert abs(float(np.mean(deltas)) - exact.interactions[lo, hi]) <= tol
            assert abs(_reference_tilted_average(base / gamma, deltas) - tilted.interactions[lo, hi]) <= tol

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 16])
    def test_spin_energies(self, n):
        fields, couplings = _random_spin_system(np.random.default_rng(2000 + n), n, scale=2.0)
        spins = 2.0 * token_members(np.arange(1 << n, dtype=np.uint64), n) - 1.0
        einsum = -(spins @ fields) - 0.5 * np.einsum("ki,ij,kj->k", spins, couplings, spins)
        vecdot = -(spins @ fields) - 0.5 * np.vecdot(spins @ couplings, spins)
        # relative to the bound on every |H(S)|
        bound = float(np.sum(np.abs(fields)) + np.sum(np.abs(couplings)))
        assert float(np.max(np.abs(vecdot - einsum))) <= 1e-12 * bound


@pytest.mark.parametrize("oracle", [exact_game_values, lambda game: exact_gibbs_tilted_values(game, 0.3)])
def test_traced_peak_stays_within_four_tables(oracle):
    # one row per token and one pair row at a time; a rewrite that stacks
    # every token's rows needs n/2 tables and more
    game = random_table_game(np.random.default_rng(16), 16)
    tracemalloc.start()
    try:
        oracle(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * game.table.nbytes


@pytest.fixture(scope="module")
def scipy_logsumexp():
    return pytest.importorskip("scipy.special").logsumexp


@st.composite
def _log_weight_arrays(draw):
    """Finite float64 arrays of 1-5000 entries at scales from 1e-300 to
    1e300, some around a large offset, some with several entries tied at
    the maximum, and some holding hand-picked floats."""
    length = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    offset = draw(st.sampled_from([0.0, 1.0, -745.0, 709.0, 1e15, -1e300]))
    a = offset + scale * rng.standard_normal(length)
    picked = draw(st.lists(st.floats(-1e300, 1e300, allow_nan=False), max_size=min(8, length)))
    a[rng.choice(length, len(picked), replace=False)] = picked
    ties = draw(st.integers(0, length - 1))
    a[rng.choice(length, ties, replace=False)] = a.max()
    return a


@settings(max_examples=200, deadline=None)
@given(_log_weight_arrays())
def test_logsumexp_matches_scipy(scipy_logsumexp, a):
    assert _bits(oracles._logsumexp(a)) == _bits(scipy_logsumexp(a))
