import math
import warnings

import numpy as np
import pytest

from coalattn.games import EmbeddingGame
from coalattn.linalg import as_matrix, as_vector, logistic, require_finite


def _l2_norm(*rows):
    """Norm of the summed *rows*: the value of the grand coalition of an
    ``EmbeddingGame`` with identity projection and nonlinearity."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    game = EmbeddingGame(rows, np.eye(rows.shape[1]), nonlinearity="identity")
    return float(game.values_by_mask(np.array([(1 << len(rows)) - 1], dtype=np.uint64))[0])


class TestL2Norm:
    def test_zero_vector(self):
        assert _l2_norm([0.0, 0.0, 0.0]) == 0.0

    def test_three_four_five(self):
        assert _l2_norm([3.0, 4.0]) == 5.0

    def test_unit(self):
        assert _l2_norm([1.0]) == 1.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            assert _l2_norm(u, v) <= _l2_norm(u) + _l2_norm(v) + 1e-12


class TestLogistic:
    def test_symmetry_point(self):
        assert logistic(0.0) == 0.5

    def test_saturation(self):
        val = logistic(50.0)
        assert 1.0 - val < 1e-20

    def test_inverts_to_known_gate(self):
        # log(0.6/0.4) is the score whose gate value is 0.6
        assert logistic(math.log(1.5)) == pytest.approx(0.6, abs=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(-100, 100, size=2000):
            assert abs(logistic(x) + logistic(-x) - 1.0) <= 1e-15

    def test_open_interval_within_representable_range(self):
        # float64 saturates to exactly 0/1 past |x| ~ 36; test inside that
        rng = np.random.default_rng(3)
        for x in rng.uniform(-36, 36, size=2000):
            val = logistic(x)
            assert 0.0 < val < 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            logistic(float("nan"))


class TestArrayEntries:
    @pytest.mark.parametrize(
        "check, data",
        [
            (as_vector, ["0.5", 1.0]),
            (as_vector, [0.5, True]),
            (as_matrix, [[1.0, 2.0], [3.0, None]]),
            (as_vector, np.array([True, False])),
            (as_vector, np.array(["1.0"])),
        ],
    )
    def test_non_numbers_rejected(self, check, data):
        with pytest.raises(ValueError, match="values: not a numeric array"):
            check(data, "values")

    def test_numbers_of_any_real_type_accepted(self):
        np.testing.assert_array_equal(as_vector([1, 2.5, np.float64(3.0), np.int32(4)]), [1.0, 2.5, 3.0, 4.0])
        np.testing.assert_array_equal(as_vector(np.arange(3, dtype=np.uint8)), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(as_matrix([np.array([1.0, 2.0]), [3, 4]]), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "check, data, message",
        [
            (as_vector, [[1.0, 2.0]], "values: expected a 1-d array, got shape (1, 2)"),
            (as_vector, 1.0, "values: expected a 1-d array, got shape ()"),
            (as_matrix, [1.0, 2.0], "values: expected a 2-d array, got shape (2,)"),
            (as_matrix, [[[1.0]]], "values: expected a 2-d array, got shape (1, 1, 1)"),
            (as_vector, [], "values: must not be empty"),
            (as_matrix, [[]], "values: must not be empty"),
            (as_vector, [1.0, float("inf")], "values: all entries must be finite"),
            (as_matrix, [[float("nan")]], "values: all entries must be finite"),
            (as_matrix, [[[1.0]], [1.0]], "values: expected a 2-d array"),
        ],
    )
    def test_shape_size_and_finiteness_messages(self, check, data, message):
        with pytest.raises(ValueError) as rejected:
            check(data, "values")
        assert str(rejected.value) == message


_HUGE = np.array([1e308, 1e308])


class TestRequireFinite:
    # each test records every warning itself, whatever the configured filters
    @pytest.mark.parametrize(
        "bound",
        [lambda: 0.0, lambda: -1e308, lambda: np.float64(2.5), lambda: _HUGE, lambda: np.eye(3) * 1e300],
        ids=["zero", "float", "numpy-scalar", "vector", "matrix"],
    )
    def test_finite_bounds_pass_silently(self, bound):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert require_finite(bound, "bound: not finite") is None
        assert caught == []

    @pytest.mark.parametrize(
        "bound",
        [
            lambda: math.inf,
            lambda: np.array([1.0, math.nan]),
            lambda: _HUGE.sum(),
            lambda: _HUGE * 10.0 - _HUGE * 10.0,
        ],
        ids=["inf", "nan", "overflow", "inf-minus-inf"],
    )
    def test_a_bound_that_is_not_finite_raises_the_message_alone(self, bound):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as refused:
                require_finite(bound, "fields: bound (sum of |x|) is not finite")
        assert type(refused.value) is ValueError
        assert str(refused.value) == "fields: bound (sum of |x|) is not finite"
        assert caught == []
