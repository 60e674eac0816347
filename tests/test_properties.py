"""Property-based checks of the evaluation, sampling and estimation hot paths,
of the exact oracles' game-theory axioms, of the mean-field solver's
residual contract and of the byte stability of reports.

Example counts are kept small so the suite stays fast; each hot-path property
is also covered at the byte boundaries of the 64-bit coalition masks.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalattn.estimators import (
    _BLOCK_CONTEXTS,
    MODES,
    EstimatorConfig,
    _draw_pool,
    _proposal_probs,
    estimate_all,
)
from coalattn.games import (
    _TABULATE_CHUNK,
    NONLINEARITIES,
    CountingGame,
    EmbeddingGame,
    Extensions,
    TabularGame,
    _word_tables,
    tabulate,
)
from coalattn.inputs import RunConfig, parse_document
from coalattn.meanfield import MeanFieldConfig, solve_fixed_point
from coalattn.oracles import exact_and_tilted_values, exact_game_values, exact_gibbs_tilted_values, exact_table
from coalattn.pipeline import NORMALIZATIONS
from coalattn.reports import dump_json, run_attend

from conftest import (
    context_and_difference,
    per_pair_game_values,
    per_pair_tilted_values,
    random_table_game,
    reference_slot,
    row_contexts,
    subsets,
)

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
@given(
    _games_and_masks(),
    st.sampled_from(("uint64", "int64", "strided", "big-endian", "high-bits")),
    st.integers(0, 2**32 - 1),
)
def test_values_match_membership_matmul(game_and_masks, layout, seed):
    game, masks = game_and_masks
    if layout == "int64":
        given_masks = masks.view(np.int64)  # bit 63 reads as the sign bit
    elif layout == "strided":
        given_masks = np.repeat(masks, 3)[1::3]
        assert not given_masks.flags.c_contiguous
    elif layout == "big-endian":
        given_masks = masks.astype(">u8")
    elif layout == "high-bits":
        # bits at or above n are not tokens of the game and must not count
        high = np.random.default_rng(seed).integers(0, 2**64, size=masks.size, dtype=np.uint64)
        given_masks = masks | (high & ~np.uint64((1 << game.n) - 1))
    else:
        given_masks = masks
    got = game.values_by_mask(given_masks)
    ref = _reference_values(game, masks)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))


def test_tabulate_across_chunks_matches_membership_matmul():
    game = _game(17, 17, 3, 4, "tanh")
    masks = np.arange(1 << game.n, dtype=np.uint64)
    assert masks.size > _TABULATE_CHUNK  # the table takes two calls
    ref = _reference_values(game, masks)
    assert np.all(np.abs(tabulate(game) - ref) <= 1e-12 * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
@pytest.mark.parametrize("n", BOUNDARY_TOKEN_COUNTS)
def test_empty_coalition_is_exactly_zero(n, nonlinearity):
    game = _game(n, n, 3, 4, nonlinearity)
    assert game.values_by_mask(np.zeros(3, dtype=np.uint64)).tolist() == [0.0, 0.0, 0.0]


def _pooled_extensions(rng: np.random.Generator, n: int, rows: int, f: int, k: int) -> Extensions:
    """K random words over *n* tokens shared by *rows* rows of f = 1 or 2
    distinct random tokens each (all n tokens when f > n); each row toggles
    every subset of its tokens in every word."""
    tokens = np.argsort(rng.random((rows, n)), axis=1)[:, :f]
    return Extensions(rng.integers(0, 2**64, size=k, dtype=np.uint64) & np.uint64((1 << n) - 1), tokens)


def _ordered_extensions(rng: np.random.Generator, n: int, rows: int, k: int) -> Extensions:
    """K random orders of *n* tokens shared by *rows* rows of one random
    token each."""
    orders = rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
    return Extensions(None, rng.integers(0, n, size=(rows, 1)), orders)


def _membership(masks: np.ndarray, n: int) -> np.ndarray:
    bits = np.arange(n, dtype=np.uint64)
    return ((masks[..., None] >> bits) & np.uint64(1)).astype(np.float64)


def _pooled_reach(game: EmbeddingGame, extensions: Extensions) -> np.ndarray:
    """``M`` of the ``games`` docstring's bound, for every row and pool
    entry of *extensions*: the norm of the shared context's sum (a
    Bernoulli word, or a row's prefix) plus the norms of the row's f
    tokens."""
    x = game.projected
    shared = extensions.contexts if extensions.orders is None else row_contexts(extensions)
    shared = np.linalg.norm(_membership(shared, game.n) @ x, axis=-1)
    in_row = _membership(extensions.mask, game.n)  # each row's tokens
    return shared + (in_row @ np.linalg.norm(x, axis=-1))[..., None]


def _pooled_bound(game: EmbeddingGame, extensions: Extensions) -> np.ndarray:
    """The ``games`` docstring's bound ``2 (d_v + f**2 + 2 f + 4) eps M**2`` on how
    far a pooled squared norm lies from the direct one of the same sums,
    for every coalition of a row and pool entry of *extensions*."""
    width = extensions.tokens.shape[-1]
    reach = _pooled_reach(game, extensions)
    return 2.0 * (game.projected.shape[1] + width**2 + 2.0 * width + 4.0) * np.finfo(float).eps * reach**2


@st.composite
def _pool_cases(draw, max_tokens: int = 64):
    """An embedding game of 1-*max_tokens* tokens whose entries have 40
    significant bits, so that every sum of up to 64 of them is exact and
    only the squared-norm arithmetic rounds, and an ``Extensions`` of either
    form."""
    n = draw(st.integers(1, max_tokens))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-(2**40), 2**40, size=(n, d)) * 2.0**-40
    game = EmbeddingGame(x, np.eye(d), draw(st.sampled_from(NONLINEARITIES)))
    rows, k = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        return game, _ordered_extensions(rng, n, rows, k), rng
    return game, _pooled_extensions(rng, n, rows, draw(st.integers(1, 2)), k), rng


def _difference_bound(extensions: Extensions, root: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The ``EmbeddingGame`` docstring's bound on how far a row's difference
    strays from the alternating sum of the direct values: ``2**f (r + 2**f
    eps M)``, with *root* ``r`` the root of the squared-norm bound and
    *reach* ``M``."""
    width = 2.0 ** extensions.tokens.shape[-1]
    return width * (root + width * np.finfo(float).eps * reach)


@settings(max_examples=60, deadline=None)
@given(_pool_cases())
def test_extension_values_match_the_plain_masks(case):
    game, extensions, rng = case
    masks = np.asarray(extensions)
    assert masks.shape == extensions.shape and masks.size == extensions.size
    # the pooled context values and differences against the inverse of the
    # direct norms of the materialised masks; as the square root and both
    # nonlinearities change by at most sqrt(gap) for a gap of squared norms,
    # the bound's root bounds the values
    context, difference = game.values_by_mask(extensions)
    ref_context, ref_difference = context_and_difference(extensions, game.values_by_mask(masks))
    assert context.shape == difference.shape == ref_context.shape == extensions.shape[1:]
    bound, reach = _pooled_bound(game, extensions), _pooled_reach(game, extensions)
    assert np.all(np.abs(context - ref_context) <= np.sqrt(bound))
    assert np.all(np.abs(difference - ref_difference) <= _difference_bound(extensions, np.sqrt(bound), reach))
    if game.nonlinearity == "identity":
        assert np.all(np.abs(context**2 - ref_context**2) <= bound)
    # the empty context is worth exactly 0, however it is formed
    contexts = row_contexts(extensions)
    assert np.all(context[contexts == 0] == 0.0)
    # a word that holds none of a row's tokens is the row's context: the same bits
    if extensions.orders is None:
        free = contexts == extensions.contexts
        np.testing.assert_array_equal(context[free], ref_context[free])
    # a table game looks the materialised masks up, bit for bit
    if game.n <= 12:
        table = random_table_game(rng, game.n)
        for got, want in zip(
            table.values_by_mask(extensions), context_and_difference(extensions, table.table[masks.astype(np.int64)])
        ):
            np.testing.assert_array_equal(got, want)
    # a counting game counts the true coalitions
    counting = CountingGame(game)
    counting.values_by_mask(extensions)
    assert counting.evaluations == masks.size


@st.composite
def _own_table_cases(draw):
    """``_pool_cases`` of at most 10 tokens, whose words gain every nonempty
    subset of each row's tokens: the word of exactly a row's tokens toggles
    to the empty coalition."""
    game, extensions, _ = draw(_pool_cases(max_tokens=10))
    if extensions.orders is not None:
        return game, extensions
    own = subsets(extensions)[1:].reshape(-1)
    return game, Extensions(np.concatenate([extensions.contexts, own]), extensions.tokens)


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)
@given(_own_table_cases())
def test_extensions_read_as_the_games_own_table(case):
    """An embedding game reads an ``Extensions`` as the table it tabulates
    reads it, within the ``EmbeddingGame`` docstring's bound: the context
    within the root of the squared-norm bound, the difference within
    ``2**f`` times that plus the rounding of its additions."""
    game, extensions = case
    context, difference = game.values_by_mask(extensions)
    ref_context, ref_difference = exact_table(game).values_by_mask(extensions)
    root = np.sqrt(_pooled_bound(game, extensions))
    assert np.all(np.abs(context - ref_context) <= root)
    assert np.all(np.abs(difference - ref_difference) <= _difference_bound(extensions, root, _pooled_reach(game, extensions)))
    # an emptied coalition, and an empty context, read exactly 0 on both sides
    assert np.all(context[row_contexts(extensions) == 0] == 0.0)


@pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
@pytest.mark.parametrize("n", BOUNDARY_TOKEN_COUNTS)
def test_empty_context_with_empty_added_set_is_exactly_zero(n, nonlinearity):
    game = _game(n, n, 3, 4, nonlinearity)
    # the empty words are every row's context
    context, _ = game.values_by_mask(Extensions(np.zeros(3, np.uint64), np.array([[0], [n - 1]])))
    assert context.tolist() == [[0.0] * 3] * 2
    # every order's prefix before its first token is empty
    orders = np.tile(np.arange(n), (3, 1))
    context, _ = game.values_by_mask(Extensions(None, np.array([[0]]), orders))
    assert context[0].tolist() == [0.0] * 3
    # pool words holding only a row's own tokens leave it an empty context,
    # the coalition of each word that toggles all the word's tokens
    top = 1 << (n - 1)
    words = np.array([1, top, 1 | top], dtype=np.uint64)
    extensions = Extensions(words, np.array([sorted({0, n - 1})]))
    np.testing.assert_array_equal(row_contexts(extensions), [[0, 0, 0]])
    assert game.values_by_mask(extensions)[0].tolist() == [[0.0] * 3]
    # and so do the words of one token, each toggled by a row of its token
    singles = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    extensions = Extensions(singles, np.arange(n)[:, None])
    empty = row_contexts(extensions) == 0
    assert empty.sum() == n
    assert game.values_by_mask(extensions)[0][empty].tolist() == [0.0] * n


@pytest.mark.parametrize("n", BOUNDARY_TOKEN_COUNTS)
def test_an_added_set_clears_its_tokens_from_the_contexts(n):
    top = np.uint64(1 << (n - 1))
    contexts = np.array([0, top], dtype=np.uint64)
    extensions = Extensions(contexts, np.array([[n - 1]]))
    # each word with the token toggled: the contexts, cleared, come first on
    # the word without the token and second on the word with it
    assert np.asarray(extensions).tolist() == [[[0, top]], [[top, 0]]]
    np.testing.assert_array_equal(row_contexts(extensions), [[0, 0]])
    game = _game(n, n, 3, 4, "identity")
    context, difference = game.values_by_mask(extensions)
    assert context.tolist() == [[0.0, 0.0]]
    # the token over the same empty context from the two words: the value of
    # the word of the token, toggled on or off, equal up to roundoff
    assert difference[0, 0] == pytest.approx(difference[0, 1], rel=1e-12)
    assert difference[0, 1] == game.values_by_mask(contexts)[1]


def test_malformed_extensions_are_rejected():
    words, tokens = np.zeros(3, np.uint64), np.array([[0]])
    orders = np.tile(np.arange(4), (3, 1))
    cases = [
        ((words, tokens, orders), "either contexts or orders"),
        ((None, tokens), "either contexts or orders"),
        ((np.zeros((2, 3), np.uint64), tokens), "one axis"),
        ((words, np.int64(1)), "last axis"),
        ((None, tokens, np.array([[0, 1, 1, 3]])), "permutation"),
        ((None, tokens, np.array([[0, 1, 2, 4]])), "permutation"),
        ((None, tokens, orders.astype(float)), "integer array"),
        ((None, np.array([[1, 2]]), orders), "one token"),
        ((None, np.zeros((1, 0), np.intp), orders), "one or two tokens per row"),
        ((None, np.array([[4]]), orders), "one token"),
        ((words, np.array([[2, 2]])), "repeats a token"),
        ((words, np.array([[2, 5, 7]])), "one or two tokens per row"),
        ((words, np.zeros((1, 0), np.intp)), "one or two tokens per row"),
        ((words, np.array([[0.0]])), "integers"),
        ((words, np.array([[-1]])), "integers in"),
        ((words, np.array([[64]])), "integers in"),
        ((words, np.array([[2**64 - 1]], np.uint64)), "integers in"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            Extensions(*args)


@pytest.mark.parametrize("n", BOUNDARY_TOKEN_COUNTS[:-1])  # token 64 is no token at all
def test_an_embedding_game_refuses_tokens_past_its_own(n):
    game = _game(n, n, 3, 4, "relu")
    with pytest.raises(ValueError, match=f"token {n} of an extension for a game of {n}"):
        game.values_by_mask(Extensions(np.zeros(3, np.uint64), np.array([[0, n]])))
    # orders wider than the game, whichever rows they serve
    orders = np.array([np.arange(n + 1), np.roll(np.arange(n + 1), -1)])
    for row in ([[0]], [[n - 1]]):
        with pytest.raises(ValueError, match=f"embedding game: orders of {n + 1} tokens for a game of {n}"):
            game.values_by_mask(Extensions(None, np.array(row), orders))


@pytest.mark.parametrize("n", (1, 2, 8, 9, 12))
def test_a_table_game_refuses_tokens_past_its_own(n):
    game = random_table_game(np.random.default_rng(n), n)
    with pytest.raises(ValueError, match=f"token {n} of an extension for a game of {n}"):
        game.values_by_mask(Extensions(np.zeros(3, np.uint64), np.array([[0, n]])))
    # a plain mask, or a pool word, with a bit at or above n names its highest token
    for masks in (np.array([1, 1 << n], np.uint64), np.array([-1], np.int64)):
        top = int(masks.astype(np.uint64).max()).bit_length() - 1
        with pytest.raises(ValueError, match=f"token {top} of a coalition for a game of {n}"):
            game.values_by_mask(masks)
    with pytest.raises(ValueError, match=f"token {n + 2} of a coalition for a game of {n}"):
        game.values_by_mask(Extensions(np.array([0, 1 << (n + 2)], np.uint64), np.array([[0]])))
    # orders wider than the game, even where a row's prefixes are below n:
    # token 0 comes first in both orders
    orders = np.array([np.arange(n + 3), np.r_[0, np.arange(n + 2, 0, -1)]])
    for row in ([[0]], [[n - 1]], [[n + 2]]):
        message = "of an extension" if row[0][0] >= n else f"tabular game: orders of {n + 3} tokens for a game of {n}"
        with pytest.raises(ValueError, match=message):
            game.values_by_mask(Extensions(None, np.array(row), orders))


@pytest.mark.seeded
@_SETTINGS
@given(st.integers(1, 12), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_table_extension_values_are_table_lookups(n, f, seed):
    rng = np.random.default_rng(seed)
    game = random_table_game(rng, n)
    extensions = _pooled_extensions(rng, n, 3, f, 5)
    assert extensions.shape == (2 ** min(f, n), 3, 5)
    masks = subsets(extensions)[..., None] ^ extensions.contexts
    np.testing.assert_array_equal(np.asarray(extensions), masks)
    # the inverse of the toggle order applied to the lookups of the masks
    want = context_and_difference(extensions, game.table[masks.astype(np.int64)])
    for got, expected in zip(game.values_by_mask(extensions), want):
        assert got.shape == (3, 5)
        np.testing.assert_array_equal(got, expected)


@pytest.mark.seeded
@_SETTINGS
@given(st.integers(1, 12), st.integers(1, 2), st.booleans(), st.integers(0, 2**32 - 1))
def test_table_values_invert_the_toggle_order(n, f, ordered, seed):
    # a table of small integers, so that every difference is exact in any order
    rng = np.random.default_rng(seed)
    table = rng.integers(-50, 50, size=1 << n).astype(np.float64)
    table[0] = 0.0
    game = TabularGame(table)
    extensions = _ordered_extensions(rng, n, 3, 5) if ordered else _pooled_extensions(rng, n, 3, f, 5)
    context, difference = context_and_difference(extensions, table[np.asarray(extensions).astype(np.int64)])
    # which is what the table game's own evaluation returns
    for got, want in zip(game.values_by_mask(extensions), (context, difference)):
        np.testing.assert_array_equal(got, want)
    contexts = row_contexts(extensions)
    assert context.shape == difference.shape == contexts.shape
    np.testing.assert_array_equal(context, table[contexts.astype(np.int64)])
    # the inclusion-exclusion sum over the context extended by each subset of the row's tokens
    width = extensions.tokens.shape[-1]
    expected = np.zeros(contexts.shape)
    for j, subset in enumerate(subsets(extensions)):
        expected += (-1.0) ** (width - j.bit_count()) * table[(contexts | subset[..., None]).astype(np.int64)]
    np.testing.assert_array_equal(difference, expected)


def _table_bytes(tables) -> list:
    """The shape, dtype and bytes of every array of a game's word tables."""
    arrays = []
    for part in tables:
        for array in part if isinstance(part, tuple) else (part,):
            arrays.append((array.shape, array.dtype.str, array.tobytes()))
    return arrays


@pytest.mark.seeded
@_SETTINGS
@given(st.integers(1, 64), st.booleans(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_word_tables_do_not_depend_on_the_rows(n, tabular, k, seed):
    """A game's tables of one pool of words are the same bytes whatever
    rows the ``Extensions`` carries: one-token rows, some of them, pair
    rows, or none.  An embedding game never reads a word's bits at or above
    n, so its words may hold them and still give the tables of the words
    without them; a table game refuses such words."""
    rng = np.random.default_rng(seed)
    if tabular:
        n = min(n, 12)
        game = random_table_game(rng, n)
    else:
        game = _game(seed, n, 3, 2, "tanh")
    low = np.uint64((1 << n) - 1)
    words = rng.integers(0, 2**64, size=k, dtype=np.uint64)
    pool = words & low if tabular else words
    singles = Extensions(pool, np.arange(n)[:, None])
    pairs = np.argsort(rng.random((3, n)), axis=1)[:, : min(2, n)]
    want = _table_bytes(_word_tables(game, Extensions(words & low, np.arange(n)[:, None])))
    for extensions in (
        singles,
        singles.rows(np.flatnonzero(rng.random(n) < 0.5)),
        singles.with_tokens(pairs),
        Extensions(pool, pairs),
        Extensions(pool, np.zeros((0, 2), np.intp)),
    ):
        assert _table_bytes(_word_tables(game, extensions)) == want


def test_counting_game_counts_every_extension():
    counting = CountingGame(_game(0, 9, 3, 2, "relu"))
    rng = np.random.default_rng(0)
    counting.values_by_mask(_pooled_extensions(rng, 9, 3, 2, 7))
    counting.values_by_mask(Extensions(np.zeros(5, np.uint64), np.array([[0], [8]])))
    counting.values_by_mask(_ordered_extensions(rng, 9, 5, 6))
    assert counting.evaluations == 3 * 4 * 7 + 2 * 2 * 5 + 5 * 2 * 6


@st.composite
def _call_sequences(draw):
    """Parameters of an embedding game and ``values_by_mask`` arguments whose
    sizes first grow and then shrink, each a plain mask array or an
    ``Extensions`` of either form."""
    n = draw(st.sampled_from(BOUNDARY_TOKEN_COUNTS))
    params = (
        draw(st.integers(0, 2**32 - 1)),
        n,
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
        draw(st.sampled_from(NONLINEARITIES)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = sorted(draw(st.lists(st.integers(0, 1500), min_size=2, max_size=5)))
    arguments = []
    for size in sizes + sizes[-2::-1]:
        form = draw(st.sampled_from(("plain", "pooled", "ordered")))
        if form == "plain":
            arguments.append(rng.integers(0, 2**64, size=size, dtype=np.uint64) & np.uint64((1 << n) - 1))
        else:
            rows = draw(st.integers(1, 3))
            if form == "pooled":
                f = draw(st.integers(1, 2))
                arguments.append(_pooled_extensions(rng, n, rows, f, max(1, size // rows)))
            else:
                arguments.append(_ordered_extensions(rng, n, rows, max(1, size // rows)))
    return params, arguments


@_SETTINGS
@given(_call_sequences())
def test_earlier_calls_do_not_change_results(case):
    params, arguments = case
    game = _game(*params)

    def arrays(result) -> list:
        # the values of plain masks, or an Extensions' contexts and differences
        return list(result) if isinstance(result, tuple) else [result]

    def contents(result) -> list:
        return [(array.shape, array.tobytes()) for array in result]

    results, copies = [], []
    for argument in arguments:
        results.append(arrays(game.values_by_mask(argument)))
        copies.append([array.copy() for array in results[-1]])
        # a later call leaves every earlier result as it was
        for result, copy in zip(results, copies):
            assert contents(result) == contents(copy)
    for argument, result in zip(arguments, results):
        assert contents(arrays(_game(*params).values_by_mask(argument))) == contents(result)


@st.composite
def _bernoulli_cases(draw):
    n = draw(st.sampled_from((1, 63, 64)))
    excluded = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
    return n, excluded, draw(st.integers(1, 64)), draw(st.integers(0, 2**64 - 1))


@_SETTINGS
@given(_bernoulli_cases())
def test_bernoulli_sampler_sets_only_allowed_bits(case):
    # a slot's contexts in a Bernoulli pool: the words without its tokens
    n, excluded, count, seed = case
    tokens = np.array(sorted(excluded), dtype=np.intp)[None]
    extensions = Extensions(_draw_pool(seed, 2, n, count), tokens)
    masks, probs = row_contexts(extensions)[0], _proposal_probs(extensions, n)
    assert masks.dtype == np.uint64 and masks.shape == (count,)
    for mask in masks.tolist():
        assert mask < (1 << n)
        assert not any((mask >> t) & 1 for t in excluded)
    np.testing.assert_array_equal(np.broadcast_to(probs, (1, count))[0], np.full(count, 0.5 ** (n - len(excluded))))


@st.composite
def _estimation_cases(draw):
    n = draw(st.sampled_from((1, 2, 9, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n == 64 or draw(st.booleans()):
        nonlinearity = draw(st.sampled_from(NONLINEARITIES))
        game = EmbeddingGame(rng.normal(size=(n, 4)), rng.normal(size=(4, 3)), nonlinearity)
    else:
        game = random_table_game(rng, n)
    # at most _BLOCK_CONTEXTS contexts go to one evaluation: K = 5, 25, 100
    # and 300 leave a partly filled last block, and past the cap every slot
    # alone is over it
    k = draw(st.sampled_from((1, 5, 25) if n == 64 else (1, 5, 25, 100, 300, _BLOCK_CONTEXTS + 1)))
    return game, k, draw(st.integers(0, 2**64 - 1)), draw(st.sampled_from((0.05, 0.25, 4.0)))


@pytest.mark.seeded
@settings(max_examples=10, deadline=None)
@given(_estimation_cases())
def test_estimate_all_equals_the_per_slot_estimates(case):
    game, k, seed, gamma = case
    n = game.n
    for mode in MODES:
        cfg = EstimatorConfig(sample_count=k, seed=seed, gamma=gamma, mode=mode)
        values = estimate_all(game, cfg)
        for i in range(n):
            (shapley, shapley_ess, _), (banzhaf, banzhaf_ess, _) = (
                reference_slot(game, cfg, kind, (i,)) for kind in (1, 2)
            )
            assert (values.shapley[i], values.banzhaf[i]) == (shapley, banzhaf)
            assert values.effective_sample_size[i] == min(shapley_ess, banzhaf_ess)
        for i in range(n):
            for j in range(i + 1, n):
                assert values.interactions[i, j] == values.interactions[j, i]
                assert values.interactions[i, j] == reference_slot(game, cfg, 2, (i, j))[0]


@st.composite
def _telescoping_cases(draw):
    """A classic-mode config of 1-299 samples and an embedding game of 1-39
    tokens or a table game of 1-12 tokens."""
    k, seed = draw(st.integers(1, 299)), draw(st.integers(0, 2**64 - 1))
    cfg = EstimatorConfig(sample_count=k, seed=seed, mode="classic")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_table_game(rng, draw(st.integers(1, 12))), cfg
    n, d, d_v = draw(st.integers(1, 39)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    nonlinearity = draw(st.sampled_from(NONLINEARITIES))
    return EmbeddingGame(rng.normal(size=(n, d)), rng.normal(size=(d, d_v)), nonlinearity), cfg


@settings(max_examples=40, deadline=None)
@given(_telescoping_cases())
def test_classic_shapley_estimates_telescope(case):
    """Along each sampled permutation the tokens' marginals telescope to
    ``v(N) - v(empty)``, so the classic estimates sum to it up to roundoff.

    The values of one order's prefixes are shared by the tokens of that
    order, so the exact differences of the computed values sum to the
    computed grand value ``a_k`` of each order.  With ``u = 2**-53``, ``R``
    a bound on each order's total variation ``sum_i |m_ki|`` and ``B =
    sum_i |x_i W|``:

    * each marginal's subtraction, the rounded weight ``1/K`` and the
      K-term dot product stray by at most ``(K + 3) u`` times the sum of
      the terms' magnitudes, ``R`` over all tokens, and the correctly
      rounded ``math.fsum`` by ``u R`` more;
    * a table game looks every ``a_k`` up as ``v(N)``; an embedding game
      sums it along the order, ``v(N)`` from the member matmul: each of
      the two sums of n rows, added in any order, is within ``(n - 1) u
      B`` of the exact one, the squared norm, root and ``tanh`` add at most
      ``(d_v / 2 + 6) u B``, so the two differ by at most ``(2 n + d_v +
      10) u B``.

    For an embedding game ``R`` is ``B`` up to roundoff (``|m_ki| <=
    |x_i W|`` when exact), for a table game ``2 n max |v|``.  Writing the
    bound with ``eps = 2 u`` leaves a factor of two for the second-order
    terms: ``(K + 2 n + d_v + 14) eps R``, with ``d_v = 0`` for tables.
    """
    game, cfg = case
    n = game.n
    full = game.values_by_mask(np.array([(1 << n) - 1], dtype=np.uint64))[0]
    empty = game.values_by_mask(np.zeros(1, dtype=np.uint64))[0]
    if isinstance(game, TabularGame):
        reach, width = 2.0 * n * float(np.max(np.abs(game.table))), 0
    else:
        reach, width = float(np.linalg.norm(game.projected, axis=1).sum()), game.projected.shape[1]
    bound = (cfg.sample_count + 2 * n + width + 14) * np.finfo(float).eps * reach
    gap = abs(math.fsum(estimate_all(game, cfg).shapley.tolist()) - (full - empty))
    assert gap <= bound


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
    grand = game.table[-1]
    assert abs(float(np.sum(values.shapley)) - grand) <= _AXIOM_TOL


def _swapped_masks(n: int, a: int, b: int) -> np.ndarray:
    """Every mask over n tokens with the bits of tokens a and b exchanged."""
    masks = np.arange(1 << n, dtype=np.int64)
    bit_a, bit_b = (masks >> a) & 1, (masks >> b) & 1
    return (masks & ~((1 << a) | (1 << b))) | (bit_b << a) | (bit_a << b)


@_AXIOM_SETTINGS
@given(_table_games(min_n=2), st.data())
def test_symmetric_tokens_get_equal_values(game, data):
    a, b = data.draw(st.lists(st.integers(0, game.n - 1), min_size=2, max_size=2, unique=True))
    sym = TabularGame(0.5 * (game.table + game.table[_swapped_masks(game.n, a, b)]))
    others = [k for k in range(game.n) if k not in (a, b)]
    for values in (exact_game_values(sym), exact_gibbs_tilted_values(sym, 0.5)):
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
    for values in (exact_game_values(game), exact_gibbs_tilted_values(game, 0.5)):
        assert abs(values.shapley[p] - c) <= _AXIOM_TOL
        assert abs(values.banzhaf[p] - c) <= _AXIOM_TOL
        assert np.all(np.abs(values.interactions[p, others]) <= _AXIOM_TOL)


@_AXIOM_SETTINGS
@given(_table_games(min_n=2), st.data())
def test_interactions_ignore_pair_orientation(game, data):
    # a pair's interaction depends on neither its orientation nor the
    # tokens' labels: exchanging the labels of tokens a and b permutes the
    # interaction matrix's rows and columns the same way
    a, b = data.draw(st.lists(st.integers(0, game.n - 1), min_size=2, max_size=2, unique=True))
    relabelled = TabularGame(game.table[_swapped_masks(game.n, a, b)])
    order = np.arange(game.n)
    order[[a, b]] = b, a
    for oracle in (exact_game_values, lambda g: exact_gibbs_tilted_values(g, 0.5)):
        values = oracle(game)
        assert values.interactions[a, b] == values.interactions[b, a]
        np.testing.assert_array_equal(values.interactions, values.interactions.T)
        assert np.all(np.diag(values.interactions) == 0.0)
        moved = oracle(relabelled).interactions
        assert np.all(np.abs(moved - values.interactions[np.ix_(order, order)]) <= _AXIOM_TOL)


@st.composite
def _tilted_dummy_cases(draw):
    """(game, dummy token p, gamma): a random table of 1-9 tokens with a
    token p inserted that changes no coalition's value, and gamma in
    [0.05, 5]."""
    base = random_table_game(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 9)))
    n = base.n + 1
    p = draw(st.integers(0, base.n))
    masks = np.arange(1 << n, dtype=np.int64)
    game = TabularGame(base.table[(masks & ((1 << p) - 1)) | ((masks >> (p + 1)) << p)])
    return game, p, draw(st.floats(0.05, 5.0))


@_AXIOM_SETTINGS
@given(_tilted_dummy_cases())
def test_tilted_oracle_dummy_alias_and_symmetry(case):
    # every difference of a dummy is v(C) - v(C) or (a - b) - (a - b): exactly 0
    game, p, gamma = case
    values = exact_gibbs_tilted_values(game, gamma)
    assert values.banzhaf[p] == 0.0
    assert values.shapley[p] == 0.0
    assert np.all(values.interactions[p] == 0.0)
    assert values.shapley.tobytes() == values.banzhaf.tobytes()
    np.testing.assert_array_equal(values.interactions, values.interactions.T)


@st.composite
def _walk_cases(draw):
    """(game, gamma): a random table of 1-13 tokens whose values spread over
    a scale from 1e-3 to 1e3, and gamma in {0.05, 0.25, 0.5, 4}."""
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    game = random_table_game(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 13)), scale)
    return game, draw(st.sampled_from((0.05, 0.25, 0.5, 4.0)))


@pytest.mark.seeded
@settings(max_examples=30, deadline=None)
@given(_walk_cases())
def test_one_walk_has_the_bits_of_the_per_pair_walks(case):
    # the chunked rows reduce in the per-pair walks' order, so every value
    # keeps its bits, whichever public oracle computes it
    game, gamma = case
    exact, tilted = per_pair_game_values(game.table), per_pair_tilted_values(game.table, gamma)
    both = exact_and_tilted_values(game, gamma)
    for values, reference in (
        (exact_game_values(game), exact),
        (both[0], exact),
        (exact_gibbs_tilted_values(game, gamma), tilted),
        (both[1], tilted),
    ):
        for got, want in zip((values.shapley, values.banzhaf, values.interactions), reference):
            assert got.tobytes() == want.tobytes()


# mean-field solver contract on random symmetric, zero-diagonal systems
_SOLVER_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def _spin_systems(draw):
    """(fields, couplings, gamma, damping, tolerance, max_iterations)."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((0.0, 0.1, 0.5, 2.0)))
    fields = rng.uniform(-1.0, 1.0, size=n)
    raw = rng.uniform(-scale, scale, size=(n, n))
    couplings = (raw + raw.T) / 2.0
    np.fill_diagonal(couplings, 0.0)
    return (
        fields,
        couplings,
        draw(st.sampled_from((0.25, 1.0, 4.0))),
        draw(st.floats(0.0, 1.0, exclude_max=True)),
        draw(st.sampled_from((1e-4, 1e-8, 1e-10))),
        draw(st.integers(1, 300)),
    )


@_SOLVER_SETTINGS
@given(_spin_systems())
def test_converged_exactly_when_the_residual_is_below_tolerance(system):
    fields, couplings, gamma, damping, tolerance, iterations = system
    cfg = MeanFieldConfig(gamma=gamma, max_iterations=iterations, tolerance=tolerance, damping=damping)
    result = solve_fixed_point(fields, couplings, cfg)
    assert result.converged == (result.final_residual < tolerance)
    assert result.final_residual == result.trace[-1][1]
    assert result.converged or result.iterations_used == iterations


@_SOLVER_SETTINGS
@given(_spin_systems())
def test_converged_results_meet_the_undamped_residual_bound(system):
    # damping only slows the approach; a converged iterate at any damping is
    # a fixed point of the undamped update s = tanh((J + C s) / gamma)
    fields, couplings, gamma, damping, tolerance, iterations = system
    cfg = MeanFieldConfig(gamma=gamma, max_iterations=iterations, tolerance=tolerance, damping=damping)
    result = solve_fixed_point(fields, couplings, cfg)
    if result.converged:
        s = result.expected_spins
        assert float(np.max(np.abs(s - np.tanh((fields + couplings @ s) / gamma)))) < tolerance


@_SOLVER_SETTINGS
@given(_spin_systems())
def test_solver_input_round_trips_to_the_same_solver_block(system):
    fields, couplings, gamma, damping, tolerance, iterations = system
    cfg = RunConfig(spin_gamma=gamma, max_iterations=iterations, tolerance=tolerance, damping=damping)
    document = {"schema_version": 1, "n": fields.size, "fields": fields.tolist(), "couplings": couplings.tolist()}
    solver = json.loads(dump_json(run_attend(parse_document(document), cfg)))["solver"]
    rerun = json.loads(dump_json(run_attend(parse_document(solver["solver_input"]), cfg)))["solver"]
    assert rerun == solver


@st.composite
def _contracting_systems(draw):
    """(fields, couplings, gamma, ratio) with ``||couplings||_2 / gamma =
    ratio`` at most 0.95."""
    n = draw(st.integers(1, 19))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = draw(st.sampled_from((0.25, 1.0, 4.0)))
    raw = rng.normal(size=(n, n))
    couplings = raw + raw.T
    np.fill_diagonal(couplings, 0.0)
    norm = np.linalg.norm(couplings, 2)
    if norm:
        couplings *= draw(st.floats(0.0, 0.95)) * gamma / norm
    return rng.uniform(-1.0, 1.0, size=n), couplings, gamma, np.linalg.norm(couplings, 2) / gamma


@pytest.mark.seeded
@_SOLVER_SETTINGS
@given(_contracting_systems())
def test_a_contraction_converges_to_one_point_at_any_damping(system):
    """With ``ratio = ||C||_2 / gamma < 1`` the clipped update ``G(s) =
    clip(tanh((J + C s) / gamma))`` is a contraction in the 2-norm with that
    constant, since tanh and the clip are 1-Lipschitz.  So it has one fixed
    point s*, the damped update converges to it too, and an iterate whose
    defect ``G(s) - s`` is below tol in the max-norm lies within
    ``sqrt(n) tol / (1 - ratio)`` of s*: two converged solves are within
    twice that of each other."""
    fields, couplings, gamma, ratio = system
    tolerance = 1e-6
    spins = []
    for damping in (0.0, 0.5):
        cfg = MeanFieldConfig(gamma=gamma, max_iterations=10_000, tolerance=tolerance, damping=damping)
        result = solve_fixed_point(fields, couplings, cfg)
        assert result.converged
        spins.append(result.expected_spins)
    assert np.linalg.norm(spins[0] - spins[1]) <= 2 * math.sqrt(fields.size) * tolerance / (1 - ratio)


@st.composite
def _small_documents(draw):
    n, d, d_v = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    doc = {
        "schema_version": 1,
        "n": n,
        "embeddings": rng.normal(size=(n, d)).tolist(),
        "value_projection": rng.normal(size=(d, d_v)).tolist(),
        "gate_weights": rng.normal(size=d).tolist(),
        "gate_bias": float(rng.normal()),
    }
    cfg = {
        "seed": draw(st.integers(0, 2**64 - 1)),
        "sample_count": draw(st.integers(1, 40)),
        "mode": draw(st.sampled_from(MODES)),
        "normalization": draw(st.sampled_from(NORMALIZATIONS)),
    }
    return doc, cfg


@settings(max_examples=20, deadline=None)
@given(_small_documents())
def test_attend_reports_are_byte_identical_across_runs(case):
    doc, cfg = case
    reports = [dump_json(run_attend(parse_document(doc), RunConfig(**cfg))) for _ in range(2)]
    assert reports[0] == reports[1]


# the floats whose shortest repr switches form or sign: -0.0, subnormals, and
# either side of the switch to exponent notation (1e16 and 1e-5)
_EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 2.5e-310, 1e16, 9999999999999998.0, 1e-7, 1e-4, 0.1])
_REPORT_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _EDGE_FLOATS)
_JSON_LEAVES = st.one_of(
    _REPORT_FLOATS,
    _REPORT_FLOATS.map(np.float64),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"\\/\b\f\n\r\t\x00\x1f', "é漢字😀 "]),
    # float-only lists, the form every report array takes
    st.lists(_REPORT_FLOATS),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
        st.dictionaries(st.integers(), children),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES, st.lists(_REPORT_FLOATS, min_size=1))
def test_dump_json_writes_the_bytes_of_json_dumps(value, shared):
    # one list object at two depths, as a head holds its couplings, beside
    # another list of its length
    negated = [-x for x in shared]
    for report in (value, {"shared": shared, "deeper": {"again": [shared, value], "negated": negated}}):
        assert dump_json(report) == json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
