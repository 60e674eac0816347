"""Property-based checks of the evaluation and sampling hot paths.

Example counts are kept small so the suite stays fast; each property is
also covered at the byte boundaries of the 64-bit coalition masks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalattn.estimators import sample_bernoulli_coalitions, token_stream
from coalattn.games import NONLINEARITIES, EmbeddingGame

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
