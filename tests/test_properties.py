"""Property-based checks of the evaluation, sampling and estimation hot paths,
of the exact oracles' game-theory axioms, of the mean-field solver's
residual contract and of the byte stability of reports.

Example counts are kept small so the suite stays fast; each hot-path property
is also covered at the byte boundaries of the 64-bit coalition masks.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalattn.estimators import (
    MODES,
    EstimatorConfig,
    _philox_keys,
    estimate_all,
    sample_bernoulli_coalitions,
)
from coalattn.games import (
    NONLINEARITIES,
    CountingGame,
    EmbeddingGame,
    Extensions,
    TabularGame,
    monotonicity_violations,
)
from coalattn.inputs import RunConfig, parse_document
from coalattn.meanfield import MeanFieldConfig, solve_fixed_point
from coalattn.oracles import exact_game_values, exact_gibbs_tilted_values
from coalattn.pipeline import NORMALIZATIONS
from coalattn.reports import dump_json, run_attend

from conftest import (
    random_table_game,
    reference_monotonicity_violations,
    reference_slot,
    reference_stream,
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


def _disjoint_extensions(rng: np.random.Generator, n: int, rows: int, m: int, k: int) -> Extensions:
    """Random contexts and added sets over *n* tokens: each row splits the
    tokens at random, draws its added sets from one part (the first one
    empty) and its contexts from the other."""
    full = np.uint64((1 << n) - 1)
    split = rng.integers(0, 2**64, size=(rows, 1), dtype=np.uint64) & full
    added = rng.integers(0, 2**64, size=(rows, m), dtype=np.uint64) & split
    added[:, 0] = 0
    contexts = rng.integers(0, 2**64, size=(rows, k), dtype=np.uint64) & (full & ~split)
    return Extensions(contexts, added)


@st.composite
def _extension_cases(draw):
    n = draw(st.sampled_from(BOUNDARY_TOKEN_COUNTS))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # entries with 40 significant bits: every sum of up to 64 of them is
    # exact, so only the squared-norm arithmetic rounds
    x = rng.integers(-(2**40), 2**40, size=(n, d)) * 2.0**-40
    game = EmbeddingGame(x, np.eye(d), "identity")
    extensions = _disjoint_extensions(
        rng, n, draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    )
    return game, extensions


@_SETTINGS
@given(_extension_cases())
def test_extension_values_match_the_plain_masks(case):
    # |s + a|^2 formed as |s|^2 + 2 a.s + |a|^2 and the direct |s + a|^2
    # each round by at most (d + 2) eps/2 (|s| + |a|)^2, and the square root
    # and re-squaring add 3 eps/2 per side: 8 eps in all for d <= 4
    game, extensions = case
    got = game.values_by_mask(extensions)
    ref = game.values_by_mask(np.asarray(extensions))
    assert got.shape == ref.shape == extensions.shape
    s = game.values_by_mask(extensions.contexts)[..., None, :]
    a = game.values_by_mask(extensions.added)[..., :, None]
    assert np.all(np.abs(got**2 - ref**2) <= 8 * np.finfo(float).eps * (s + a) ** 2)
    # the empty added set is the plain context: the same bits
    np.testing.assert_array_equal(got[:, 0], ref[:, 0])


@pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
@pytest.mark.parametrize("n", BOUNDARY_TOKEN_COUNTS)
def test_empty_context_with_empty_added_set_is_exactly_zero(n, nonlinearity):
    game = _game(n, n, 3, 4, nonlinearity)
    values = game.values_by_mask(Extensions(np.zeros((2, 3), np.uint64), np.zeros((2, 2), np.uint64)))
    assert values.shape == (2, 2, 3)
    assert values.tolist() == [[[0.0] * 3] * 2] * 2


@pytest.mark.parametrize("n", BOUNDARY_TOKEN_COUNTS)
def test_added_set_overlapping_a_context_is_rejected(n):
    top = np.uint64(1 << (n - 1))
    contexts = np.array([[0, 0], [0, top]], dtype=np.uint64)
    with pytest.raises(ValueError, match="overlaps"):
        Extensions(contexts, np.array([[top], [top]], dtype=np.uint64))
    Extensions(contexts, np.array([[top], [0]], dtype=np.uint64))  # disjoint per row


@_SETTINGS
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_table_extension_values_are_table_lookups(n, seed):
    rng = np.random.default_rng(seed)
    game = random_table_game(rng, n)
    extensions = _disjoint_extensions(rng, n, 3, 4, 5)
    got = game.values_by_mask(extensions)
    assert got.shape == (3, 4, 5)
    masks = extensions.added[..., :, None] | extensions.contexts[..., None, :]
    np.testing.assert_array_equal(got, game.table[masks.astype(np.int64)])


def test_counting_game_counts_every_extension():
    counting = CountingGame(_game(0, 9, 3, 2, "relu"))
    counting.values_by_mask(_disjoint_extensions(np.random.default_rng(0), 9, 3, 4, 7))
    counting.values_by_mask(Extensions(np.zeros(5, np.uint64), np.zeros(2, np.uint64)))
    assert counting.evaluations == 3 * 4 * 7 + 2 * 5


@st.composite
def _call_sequences(draw):
    """Parameters of an embedding game and ``values_by_mask`` arguments whose
    sizes first grow and then shrink, each a plain mask array or an
    ``Extensions``."""
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
        if draw(st.booleans()):
            arguments.append(rng.integers(0, 2**64, size=size, dtype=np.uint64) & np.uint64((1 << n) - 1))
        else:
            rows, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
            arguments.append(_disjoint_extensions(rng, n, rows, m, max(1, size // rows)))
    return params, arguments


@_SETTINGS
@given(_call_sequences())
def test_reused_gather_buffers_do_not_show_in_results(case):
    params, arguments = case
    game = _game(*params)
    results, copies = [], []
    for argument in arguments:
        results.append(game.values_by_mask(argument))
        copies.append(results[-1].copy())
        # a later call leaves every earlier result as it was
        for result, copy in zip(results, copies):
            assert result.tobytes() == copy.tobytes()
    for argument, result in zip(arguments, results):
        fresh = _game(*params).values_by_mask(argument)
        assert fresh.shape == result.shape and fresh.tobytes() == result.tobytes()


@st.composite
def _bernoulli_cases(draw):
    n = draw(st.sampled_from((1, 63, 64)))
    excluded = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return n, excluded, draw(st.integers(1, 64)), draw(st.integers(0, 2**64 - 1))


@_SETTINGS
@given(_bernoulli_cases())
def test_bernoulli_sampler_sets_only_allowed_bits(case):
    n, excluded, count, seed = case
    masks, probs = sample_bernoulli_coalitions(reference_stream(seed, 97), n, excluded, count)
    assert masks.dtype == np.uint64 and masks.shape == (count,)
    for mask in masks.tolist():
        assert mask < (1 << n)
        assert not any((mask >> t) & 1 for t in excluded)
    np.testing.assert_array_equal(probs, np.full(count, 0.5 ** (n - len(excluded))))


@st.composite
def _slot_families(draw):
    """(seed, kind, slots): up to 40 token slots ``(i,)`` or pair slots
    ``(a, b)``, in any order and with repeats, indices anywhere below 2**32."""
    index = st.integers(0, 2**32 - 1)
    width = draw(st.sampled_from((1, 2)))
    slots = draw(st.lists(st.tuples(*[index] * width), min_size=1, max_size=40))
    return draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**32 - 1)), slots


@_SETTINGS
@given(_slot_families())
def test_a_slot_key_does_not_depend_on_the_other_slots(case):
    seed, kind, slots = case
    keys = _philox_keys(seed, kind, slots)
    assert keys.dtype == np.uint64 and keys.shape == (len(slots), 2)
    for r, slot in enumerate(slots):
        assert keys[r].tolist() == _philox_keys(seed, kind, [slot])[0].tolist()


@st.composite
def _estimation_cases(draw):
    n = draw(st.sampled_from((1, 2, 9, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n == 64 or draw(st.booleans()):
        nonlinearity = draw(st.sampled_from(NONLINEARITIES))
        game = EmbeddingGame(rng.normal(size=(n, 4)), rng.normal(size=(4, 3)), nonlinearity)
    else:
        game = random_table_game(rng, n)
    # at most 1024 contexts go to one evaluation: K = 5, 25, 100 and 300
    # leave a partly filled last block, and at K = 1025 every slot alone is
    # over the cap
    k = draw(st.sampled_from((1, 5, 25) if n == 64 else (1, 5, 25, 100, 300, 1025)))
    return game, k, draw(st.integers(0, 2**64 - 1)), draw(st.sampled_from((0.05, 0.25, 4.0)))


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
                assert values.interactions[i, j] == reference_slot(game, cfg, 3, (i, j))[0]


@st.composite
def _monotonicity_tables(draw):
    """Tables of 1-16 tokens with values rounded to 0-3 decimals, so many
    pairs tie, and some all zero."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.round(rng.uniform(-1.0, 1.0, size=1 << n), draw(st.integers(0, 3)))
    values *= draw(st.sampled_from((0.0, 1.0)))
    values[0] = 0.0
    return TabularGame(values)


@_SETTINGS
@given(_monotonicity_tables())
def test_monotonicity_count_matches_the_mask_filter(game):
    assert monotonicity_violations(game) == reference_monotonicity_violations(game.table)


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
def test_attend_reports_are_byte_identical_across_thread_hints(case):
    doc, cfg = case
    reports = [
        dump_json(run_attend(parse_document(doc), RunConfig(threads=threads, **cfg)))
        for threads in ("1", "16")
    ]
    assert reports[0] == reports[1]
