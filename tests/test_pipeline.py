import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from coalattn.estimators import EstimatorConfig
from coalattn.games import EmbeddingGame
from coalattn.inputs import RunConfig, parse_document
from coalattn.linalg import logistic
from coalattn.meanfield import MeanFieldConfig, solve_fixed_point
from coalattn.oracles import exact_game_values
from coalattn.pipeline import (
    DegenerateScoresError,
    HeadParams,
    MultiHeadParams,
    combine_fields,
    derive_head_seed,
    gate_lambda,
    head_field,
    multi_head_attend,
    normalize_scores,
    single_head_attend,
)
from coalattn.reports import _head_report, dump_json, run_attend, run_oracle


def _head(rng, d, d_v=None, sample_count=64, seed=5, gamma=0.5, mode="gibbs", damping=0.0):
    d_v = d if d_v is None else d_v
    return HeadParams(
        value_projection=rng.normal(size=(d, d_v)),
        gate_weights=rng.normal(size=d),
        gate_bias=float(rng.normal()),
        estimator=EstimatorConfig(sample_count=sample_count, seed=seed, gamma=gamma, mode=mode),
        meanfield=MeanFieldConfig(gamma=gamma, max_iterations=200, tolerance=1e-9, damping=damping),
    )


class TestGateLambda:
    def test_zero_score_is_half(self):
        assert gate_lambda(np.zeros((1, 3)), np.zeros(3), 0.0).tolist() == [0.5]

    def test_known_gate_value(self):
        # score log(1.5) through the logistic gives 0.6
        assert gate_lambda(np.array([[1.0]]), np.array([math.log(1.5)]), 0.0)[0] == pytest.approx(
            0.6, abs=1e-12
        )

    def test_saturates_low(self):
        assert gate_lambda(np.array([[1.0]]), np.array([-80.0]), 0.0)[0] < 1e-20

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width 3, weights 2"):
            gate_lambda(np.zeros((1, 3)), np.zeros(2), 0.0)

    def test_each_row_gets_the_gate_of_its_own_score(self):
        # one call gives every token the bits of the scalar formula
        rng = np.random.default_rng(11)
        x, w, b = rng.normal(size=(40, 7)), rng.normal(size=7), 0.3
        expected = [logistic(float(row @ w) + b) for row in x]
        assert gate_lambda(x, w, b).tolist() == expected


class TestNormalizeScores:
    def test_positive_scores(self):
        np.testing.assert_allclose(normalize_scores([1.0, 1.0, 2.0]), [0.25, 0.25, 0.5])

    def test_singleton(self):
        np.testing.assert_array_equal(normalize_scores([2.0]), [1.0])

    def test_mixed_signs_l1_versus_sum(self, caplog):
        scores = [-1.0, 3.0]
        with caplog.at_level(logging.DEBUG):
            l1 = normalize_scores(scores, "l1")
            total = normalize_scores(scores, "sum")
        assert not caplog.records  # the two conventions differ without a warning
        np.testing.assert_allclose(l1, [-0.25, 0.75])
        np.testing.assert_allclose(total, [-0.5, 1.5])

    def test_no_warning_for_one_signed_scores(self, caplog):
        with caplog.at_level(logging.WARNING, logger="coalattn.pipeline"):
            normalize_scores([0.5, 1.5])
        assert not caplog.records

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateScoresError):
            normalize_scores([0.0, 0.0])

    def test_cancelling_sum_rejected_only_for_sum_convention(self):
        scores = [1.0, -1.0]
        np.testing.assert_allclose(normalize_scores(scores, "l1"), [0.5, -0.5])
        with pytest.raises(DegenerateScoresError):
            normalize_scores(scores, "sum")

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            normalize_scores([1.0], "l2")


class TestCombineFields:
    def test_equal_scores_pass_through(self):
        got = combine_fields([0.711], [0.711], [0.6])
        assert got[0] == pytest.approx(0.711, abs=1e-15)

    def test_gate_one_selects_first_score(self):
        got = combine_fields([0.2, 0.8], [0.9, 0.1], [1.0, 1.0])
        np.testing.assert_array_equal(got, [0.2, 0.8])

    def test_midpoint(self):
        assert combine_fields([0.2], [0.6], [0.5])[0] == pytest.approx(0.4, abs=1e-15)

    def test_gate_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            combine_fields([0.5], [0.5], [1.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine_fields([0.5], [0.5, 0.5], [0.5])


class TestSingleHead:
    def test_single_token_closed_form(self):
        x = np.array([[2.0]])
        gamma = 0.5
        params = HeadParams(
            value_projection=np.array([[1.5]]),
            gate_weights=np.array([0.3]),
            gate_bias=-0.1,
            estimator=EstimatorConfig(sample_count=16, seed=0, gamma=gamma, mode="gibbs"),
            meanfield=MeanFieldConfig(gamma=gamma, max_iterations=50, tolerance=1e-12, damping=0.0),
        )
        out = single_head_attend(x, params)
        head = out.heads[0]
        # one token: both normalized scores are 1, so the field is 1 and the
        # weight has the single-spin closed form
        alpha = (1.0 + math.tanh(1.0 / gamma)) / 2.0
        assert head.field_vector[0] == pytest.approx(1.0, abs=1e-15)
        assert head.meanfield.alphas[0] == pytest.approx(alpha, abs=1e-12)
        np.testing.assert_allclose(out.output, [alpha * 3.0], atol=1e-12)

    def test_alphas_bounded_and_interactions_symmetric(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(5, 4))
        out = single_head_attend(x, _head(rng, 4))
        head = out.heads[0]
        alphas = head.meanfield.alphas
        assert np.all(alphas >= 0.0) and np.all(alphas <= 1.0)
        np.testing.assert_array_equal(head.values.interactions, head.values.interactions.T)
        assert np.all(np.diag(head.values.interactions) == 0.0)
        assert math.isfinite(float(np.sum(alphas)))

    def test_deterministic(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(4, 3))
        params = _head(rng, 3)
        a = single_head_attend(x, params)
        b = single_head_attend(x, params)
        np.testing.assert_array_equal(a.output, b.output)
        np.testing.assert_array_equal(a.heads[0].meanfield.alphas, b.heads[0].meanfield.alphas)

    def test_identical_tokens_share_weights_with_exact_values(self):
        # exchangeable input: the field of oracle-exact values (sampling
        # bypassed) and its solve give every token the same weight
        rng = np.random.default_rng(63)
        row = rng.normal(size=4)
        x = np.tile(row, (5, 1))
        params = _head(rng, 4)
        exact = exact_game_values(EmbeddingGame(x, params.value_projection, params.nonlinearity))
        alphas = solve_fixed_point(head_field(x, params, exact)[1], exact.interactions, params.meanfield).alphas
        assert np.max(alphas) - np.min(alphas) <= 1e-9

    def test_head_report_dumps(self):
        rng = np.random.default_rng(66)
        x = rng.normal(size=(4, 3))
        params = _head(rng, 3)
        head = single_head_attend(x, params).heads[0]
        built = _head_report(head, 4)
        # the head reports its couplings twice, as one list that dump_json formats once
        assert built["interaction_matrix"] is built["solver_input"]["couplings"]
        report = json.loads(dump_json(built))
        assert report["alphas"] == head.meanfield.alphas.tolist()

    def test_a_head_holds_the_game_values_it_ran_on(self):
        rng = np.random.default_rng(67)
        x = rng.normal(size=(4, 3))
        estimated = single_head_attend(x, _head(rng, 3)).heads[0].values
        assert estimated.effective_sample_size.shape == (4,)

    def test_a_heads_gates_and_field_are_head_field_of_its_own_values(self):
        rng = np.random.default_rng(68)
        x = rng.normal(size=(5, 3))
        params = _head(rng, 3)
        head = single_head_attend(x, params).heads[0]
        lambdas, fields = head_field(x, params, head.values)
        np.testing.assert_array_equal(head.lambdas, lambdas)
        np.testing.assert_array_equal(head.field_vector, fields)

    def test_zero_embeddings_degenerate(self):
        rng = np.random.default_rng(64)
        params = _head(rng, 3)
        with pytest.raises(DegenerateScoresError):
            single_head_attend(np.zeros((3, 3)), params)

    def test_embedding_width_checked(self):
        rng = np.random.default_rng(65)
        with pytest.raises(ValueError):
            single_head_attend(rng.normal(size=(3, 5)), _head(rng, 4))


class TestMultiHead:
    def test_single_head_with_identity_projection_degenerates(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(4, 3))
        head = _head(rng, 3)
        single = single_head_attend(x, head)
        multi = multi_head_attend(x, MultiHeadParams((head,), np.eye(3)))
        np.testing.assert_allclose(multi.output, single.output, atol=1e-12)

    def test_identical_heads_and_seeds_agree(self):
        rng = np.random.default_rng(72)
        x = rng.normal(size=(4, 3))
        head = _head(rng, 3, d_v=2)
        multi = multi_head_attend(x, MultiHeadParams((head, head), np.eye(4)))
        np.testing.assert_array_equal(multi.heads[0].output, multi.heads[1].output)

    def test_concat_projection_matches_hand_product(self):
        rng = np.random.default_rng(73)
        x = rng.normal(size=(4, 5))
        heads = (_head(rng, 5, d_v=2, seed=1), _head(rng, 5, d_v=3, seed=2))
        w_out = rng.normal(size=(5, 3))
        multi = multi_head_attend(x, MultiHeadParams(heads, w_out))
        z_cat = np.concatenate([multi.heads[0].output, multi.heads[1].output])
        hand = [sum(z_cat[k] * w_out[k, j] for k in range(5)) for j in range(3)]
        np.testing.assert_allclose(multi.output, hand, atol=1e-12)

    def test_projection_rows_validated(self):
        rng = np.random.default_rng(74)
        head = _head(rng, 3, d_v=2)
        with pytest.raises(ValueError, match="rows"):
            MultiHeadParams((head, head), np.eye(3))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: HeadParams(np.eye(1), [1.0], 0.0, nonlinearity="gelu"), "head params: unknown nonlinearity 'gelu'"),
            (lambda: HeadParams(np.eye(1), [1.0], 0.0, normalization="max"), "head params: unknown normalization 'max'"),
            (lambda: MultiHeadParams((), np.eye(1)), "multi-head params: need at least one head"),
        ],
        ids=["nonlinearity", "normalization", "no-heads"],
    )
    def test_each_parameter_refusal_keeps_its_whole_message(self, build, message):
        with pytest.raises(ValueError) as refusal:
            build()
        assert str(refusal.value) == message

    def test_head_seed_derivation_is_stable_and_distinct(self):
        a = derive_head_seed(12345, 0)
        b = derive_head_seed(12345, 1)
        assert a == derive_head_seed(12345, 0)
        assert a != b
        assert 0 <= a < 2**64


def _all_floats(node) -> bool:
    return type(node) is float or (type(node) is list and bool(node) and all(map(_all_floats, node)))


def _float_lists(node, path="$"):
    """Yield the path and JSON text of every outermost list of the report
    whose leaves are all floats: a vector, or a matrix as a whole."""
    if type(node) is dict:
        for key, item in node.items():
            yield from _float_lists(item, f"{path}.{key}")
    elif type(node) is list and _all_floats(node):
        yield path, json.dumps(node)
    elif type(node) is list:
        for index, item in enumerate(node):
            yield from _float_lists(item, f"{path}[{index}]")


def test_each_number_is_reported_once():
    # a report repeats a float list only where a document needs it: the
    # head's couplings in its self-contained solver input, the oracle's
    # exact interactions as the derived spins' couplings, and a single
    # head's output as the run's
    rng = np.random.default_rng(81)
    n, d = 7, 5
    doc = parse_document(
        {
            "schema_version": 1,
            "n": n,
            "d": d,
            "embeddings": rng.normal(size=(n, d)).tolist(),
            "value_projection": rng.normal(size=(d, d)).tolist(),
            "gate_weights": rng.normal(size=d).tolist(),
            "gate_bias": float(rng.normal()),
        }
    )
    cfg = RunConfig(sample_count=64, seed=4)
    expected = {
        "attend": {
            ("$.heads[0].interaction_matrix", "$.heads[0].solver_input.couplings"),
            ("$.heads[0].output", "$.output"),
        },
        "oracle": {("$.game.interactions", "$.spins.couplings")},
    }
    for command, report in (("attend", run_attend(doc, cfg)), ("oracle", run_oracle(doc, cfg))):
        paths_by_list: dict[str, list[str]] = {}
        for path, text in _float_lists(report):
            paths_by_list.setdefault(text, []).append(path)
        repeated = {tuple(sorted(paths)) for paths in paths_by_list.values() if len(paths) > 1}
        assert repeated == expected[command], command


def test_the_oracle_solves_the_field_of_the_exact_values_once():
    # a derived spin system takes attend's route from values to a field:
    # the exact values through head_field, then one solve under the run's
    # solver settings
    rng = np.random.default_rng(82)
    n, d = 6, 4
    doc = parse_document(
        {
            "schema_version": 1,
            "n": n,
            "embeddings": rng.normal(size=(n, d)).tolist(),
            "value_projection": rng.normal(size=(d, d)).tolist(),
            "gate_weights": rng.normal(size=d).tolist(),
            "gate_bias": float(rng.normal()),
        }
    )
    cfg = RunConfig(normalization="sum", max_iterations=7, damping=0.3)
    exact = exact_game_values(doc.build_game())
    fields = head_field(doc.embeddings, replace(doc.heads[0], normalization="sum"), exact)[1]
    solved = solve_fixed_point(fields, exact.interactions, cfg.meanfield_config())
    spins = run_oracle(doc, cfg)["spins"]
    assert spins["fields"] == fields.tolist()
    assert spins["meanfield_alphas"] == solved.alphas.tolist()
