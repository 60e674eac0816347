"""End-to-end acceptance suite.

One test per criterion; each prints a single ``[PASS]``/``[FAIL]`` line
(run ``pytest -s tests/test_acceptance.py`` to see them).  Tolerances are
pinned here and nowhere else; the random seeds are frozen so every run is
deterministic.
"""

import time

import numpy as np
import pytest

from coalattn.bench import (
    expected_characteristic_evaluations,
    expected_coupling_operations,
    run_bench,
    synthetic_embedding_game,
)
from coalattn.demo import run_demo
from coalattn.estimators import EstimatorConfig, estimate_all, gibbs_weights
from coalattn.games import CountingGame, TabularGame
from coalattn.inputs import RunConfig, parse_document
from coalattn.meanfield import MeanFieldConfig, solve_fixed_point
from coalattn.oracles import (
    exact_game_values,
    exact_gibbs_tilted_values,
    exact_spin_marginals,
)
from coalattn.pipeline import HeadParams, MultiHeadParams, multi_head_attend, single_head_attend
from coalattn.reports import dump_json, run_attend

from conftest import random_table_game, reference_slot

GAME_SEED = 20250810


def _gate(name: str, checks: list[tuple[str, bool]]):
    ok = all(flag for _, flag in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if not ok:
        failed = [label for label, flag in checks if not flag]
        pytest.fail(f"{name}: failed checks: {failed}")


def _fixture_game() -> TabularGame:
    rng = np.random.default_rng(GAME_SEED)
    return random_table_game(rng, 8)


def test_criterion_1_worked_example_golden_values():
    start = time.perf_counter()
    report = run_demo()
    elapsed = time.perf_counter() - start

    weights = np.asarray(report["weights"]["engine"])
    iter1 = np.asarray(report["iteration_1"]["engine"])
    iter2 = np.asarray(report["iteration_2"]["engine"])
    checks = [
        ("weights within 0.005", bool(np.all(np.abs(weights - [0.25, 0.34, 0.41]) <= 0.005))),
        ("shapley 0.711 within 0.001", abs(report["shapley_estimate"]["engine"] - 0.711) <= 0.001),
        ("banzhaf 0.711 within 0.001", abs(report["banzhaf_estimate"]["engine"] - 0.711) <= 0.001),
        ("interaction 0.466 within 0.001", abs(report["interaction_estimate"]["engine"] - 0.466) <= 0.001),
        ("iteration-1 spins within 0.001", bool(np.all(np.abs(iter1 - [0.400, 0.611, 0.471]) <= 0.001))),
        ("iteration-2 spins within 0.002", bool(np.all(np.abs(iter2 - [0.693, 0.773, 0.668]) <= 0.002))),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    _gate("criterion 1: worked-example golden values", checks)


def test_criterion_2_exact_oracle_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    efficiency_ok = symmetry_ok = dummy_ok = True
    for _ in range(200):
        n = int(rng.integers(3, 9))
        game = random_table_game(rng, n)
        values = exact_game_values(game)
        target = game.table[(1 << n) - 1] - game.table[0]
        efficiency_ok &= abs(float(np.sum(values.shapley)) - target) < 1e-9

        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())

        def swap(mask):
            bit_a, bit_b = (mask >> a) & 1, (mask >> b) & 1
            mask &= ~((1 << a) | (1 << b))
            return mask | (bit_b << a) | (bit_a << b)

        table = game.table
        sym = TabularGame([0.5 * (table[m] + table[swap(m)]) for m in range(1 << n)])
        sym_values = exact_game_values(sym)
        symmetry_ok &= abs(sym_values.shapley[a] - sym_values.shapley[b]) <= 1e-12
        symmetry_ok &= abs(sym_values.banzhaf[a] - sym_values.banzhaf[b]) <= 1e-12

        low = (1 << n) - 1
        dummy = TabularGame([table[m & low] for m in range(1 << (n + 1))]) if n < 8 else None
        if dummy is not None:
            dummy_values = exact_game_values(dummy)
            dummy_ok &= abs(dummy_values.shapley[n]) <= 1e-12
            dummy_ok &= abs(dummy_values.banzhaf[n]) <= 1e-12
    elapsed = time.perf_counter() - start
    checks = [
        ("efficiency |sum(phi) - (v(full) - v(empty))| < 1e-9", bool(efficiency_ok)),
        ("symmetry exact to 1e-12", bool(symmetry_ok)),
        ("dummy token exact to 1e-12", bool(dummy_ok)),
        ("runtime < 30 s", elapsed < 30.0),
    ]
    _gate("criterion 2: exact-oracle axioms on 200 random games", checks)


def test_criterion_3_classic_estimator_consistency():
    game = _fixture_game()
    exact = exact_game_values(game)

    cfg = EstimatorConfig(sample_count=50_000, seed=1001, gamma=1.0, mode="classic")
    estimated = estimate_all(game, cfg)
    within_se = per_slot_ok = True
    for kind, estimates, exact_values in (
        (1, estimated.shapley_hat, exact.shapley),
        (2, estimated.banzhaf_hat, exact.banzhaf),
    ):
        for i in range(8):
            slot_estimate, _, se = reference_slot(game, cfg, kind, (i,))
            per_slot_ok &= estimates[i] == slot_estimate
            within_se &= abs(estimates[i] - exact_values[i]) <= 3 * se

    def rmse(sample_count):
        """(Shapley, Banzhaf) RMSE over 50 seeds and all 8 tokens."""
        shapley_errors, banzhaf_errors = [], []
        for rep in range(50):
            rep_cfg = EstimatorConfig(
                sample_count=sample_count, seed=7000 + rep, gamma=1.0, mode="classic"
            )
            values = estimate_all(game, rep_cfg)
            shapley_errors.extend((values.shapley_hat - exact.shapley) ** 2)
            banzhaf_errors.extend((values.banzhaf_hat - exact.banzhaf) ** 2)
        return float(np.sqrt(np.mean(shapley_errors))), float(np.sqrt(np.mean(banzhaf_errors)))

    ratios = [fine / coarse for fine, coarse in zip(rmse(4096), rmse(1024))]

    checks = [
        ("estimate_all equals the per-slot reference bit for bit", bool(per_slot_ok)),
        ("every token within 3 standard errors at K=50000", bool(within_se)),
        ("shapley RMSE(K=4096) <= 0.6 x RMSE(K=1024)", ratios[0] <= 0.6),
        ("banzhaf RMSE(K=4096) <= 0.6 x RMSE(K=1024)", ratios[1] <= 0.6),
    ]
    _gate("criterion 3: classic-mode estimator consistency", checks)


def test_criterion_4_gibbs_estimator_consistency():
    game = _fixture_game()
    tilted = exact_gibbs_tilted_values(game, 1.0)
    cfg = EstimatorConfig(sample_count=50_000, seed=2003, gamma=1.0, mode="gibbs")

    estimated = estimate_all(game, cfg)
    slots = [(1, (i,), estimated.shapley_hat[i], tilted.shapley[i]) for i in range(8)]
    slots += [(2, (i,), estimated.banzhaf_hat[i], tilted.banzhaf[i]) for i in range(8)]
    slots += [
        (3, (i, j), estimated.interactions_hat[i, j], tilted.interactions[i, j])
        for i in range(8)
        for j in range(i + 1, 8)
    ]
    within_se = per_slot_ok = True
    for kind, slot, estimate, ref in slots:
        slot_estimate, _, se = reference_slot(game, cfg, kind, slot)
        per_slot_ok &= estimate == slot_estimate
        within_se &= abs(estimate - ref) <= 3 * se

    rng = np.random.default_rng(4)
    values = rng.normal(size=1000)
    probs = rng.uniform(0.05, 1.0, size=1000)
    _, base = gibbs_weights(values, probs, 1.0)
    _, shifted = gibbs_weights(values + 42.5, probs, 1.0)
    shift_gap = float(np.max(np.abs(base - shifted)))

    checks = [
        ("estimate_all equals the per-slot reference bit for bit", bool(per_slot_ok)),
        ("every estimate within 3 standard errors of its tilted oracle", bool(within_se)),
        ("weight scale invariance under value shifts within 1e-12", shift_gap <= 1e-12),
    ]
    _gate("criterion 4: gibbs-mode estimator consistency", checks)


def test_criterion_5_mean_field_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    # zero couplings: exact closed form, undamped and damped
    fields = rng.uniform(-2.0, 2.0, size=12)
    zeros = np.zeros((12, 12))
    gamma = 0.8
    undamped = solve_fixed_point(
        fields, zeros, MeanFieldConfig(gamma=gamma, max_iterations=50, tolerance=1e-13, damping=0.0)
    )
    damped = solve_fixed_point(
        fields, zeros, MeanFieldConfig(gamma=gamma, max_iterations=500, tolerance=1e-13, damping=0.7)
    )
    closed = np.tanh(fields / gamma)
    zero_coupling_ok = (
        float(np.max(np.abs(undamped.expected_spins - closed))) <= 1e-12
        and float(np.max(np.abs(damped.expected_spins - closed))) <= 1e-12
    )

    # converged runs satisfy the self-consistency residual on the returned vector
    residual_ok = True
    for damping in (0.0, 0.7):
        for trial in range(10):
            f = rng.uniform(-1, 1, size=8)
            raw = rng.uniform(-1, 1, size=(8, 8)) * 0.1
            c = (raw + raw.T) / 2.0
            np.fill_diagonal(c, 0.0)
            cfg = MeanFieldConfig(gamma=1.0, max_iterations=2000, tolerance=1e-8, damping=damping)
            result = solve_fixed_point(f, c, cfg)
            if not result.converged:
                residual_ok = False
                continue
            s = result.expected_spins
            defect = np.max(np.abs(s - np.tanh(f + c @ s)))
            residual_ok &= defect < cfg.tolerance

    # weak-coupling agreement with exact enumeration
    wk_rng = np.random.default_rng(424242)
    f10 = wk_rng.uniform(-1.0, 1.0, size=10)
    raw = wk_rng.uniform(-0.01, 0.01, size=(10, 10))
    c10 = (raw + raw.T) / 2.0
    np.fill_diagonal(c10, 0.0)
    mf = solve_fixed_point(
        f10, c10, MeanFieldConfig(gamma=1.0, max_iterations=500, tolerance=1e-10, damping=0.7)
    )
    exact = exact_spin_marginals(f10, c10, 1.0)
    weak_gap = float(np.max(np.abs(mf.alphas - exact.alphas)))

    # temperature limits
    f6 = rng.uniform(-1.0, 1.0, size=6)
    raw = rng.uniform(-1, 1, size=(6, 6))
    c6 = (raw + raw.T) / 2.0
    np.fill_diagonal(c6, 0.0)
    hot = solve_fixed_point(
        f6, c6, MeanFieldConfig(gamma=1e6, max_iterations=100, tolerance=1e-10, damping=0.0)
    )
    hot_ok = float(np.max(np.abs(hot.alphas - 0.5))) <= 1e-5
    f_signed = np.array([0.8, -0.3, 1.2, -2.0, 0.05, -0.6])
    cold = solve_fixed_point(
        f_signed,
        np.zeros((6, 6)),
        MeanFieldConfig(gamma=1e-6, max_iterations=50, tolerance=1e-8, damping=0.0),
    )
    cold_ok = float(np.max(np.abs(cold.alphas - (f_signed > 0)))) <= 1e-6

    elapsed = time.perf_counter() - start
    checks = [
        ("zero couplings match tanh(J/gamma) to 1e-12", zero_coupling_ok),
        ("converged runs satisfy the residual bound", bool(residual_ok)),
        ("weak coupling within 0.02 of exact marginals", weak_gap <= 0.02),
        ("gamma=1e6 gives uniform 0.5 weights within 1e-5", hot_ok),
        ("gamma=1e-6, zero couplings snaps to field sign within 1e-6", cold_ok),
        ("runtime < 60 s", elapsed < 60.0),
    ]
    _gate("criterion 5: mean-field correctness and limits", checks)


def _random_attend_document(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n, d = 6, 8
    return {
        "schema_version": 1,
        "n": n,
        "d": d,
        "embeddings": rng.normal(size=(n, d)).tolist(),
        "value_projection": rng.normal(size=(d, d)).tolist(),
        "gate_weights": rng.normal(size=d).tolist(),
        "gate_bias": float(rng.normal()),
    }


def test_criterion_6_pipeline_structure():
    bounds_ok = symmetry_ok = sum_ok = True
    for seed in range(50):
        doc = parse_document(_random_attend_document(seed))
        cfg = RunConfig(sample_count=64, seed=seed, coalition_gamma=0.5, spin_gamma=0.5)
        report = run_attend(doc, cfg)
        head = report["heads"][0]
        alphas = np.asarray(head["alphas"])
        inter = np.asarray(head["interaction_matrix"])
        bounds_ok &= bool(np.all(alphas >= 0.0) and np.all(alphas <= 1.0))
        symmetry_ok &= bool(
            np.array_equal(inter, inter.T) and np.all(np.abs(np.diag(inter)) <= 1e-12)
        )
        sum_ok &= np.isfinite(head["alpha_sum"])

    byte_ok = True
    for seed in (0, 1, 2):
        doc = parse_document(_random_attend_document(seed))
        a = dump_json(run_attend(doc, RunConfig(sample_count=64, seed=seed, threads="1")))
        b = dump_json(run_attend(doc, RunConfig(sample_count=64, seed=seed, threads="16")))
        byte_ok &= a == b

    checks = [
        ("all weights in [0, 1] over 50 runs", bool(bounds_ok)),
        ("interaction matrices symmetric with zero diagonal", bool(symmetry_ok)),
        ("weight sums reported unconstrained and finite", bool(sum_ok)),
        ("byte-identical reports across thread hints", bool(byte_ok)),
    ]
    _gate("criterion 6: pipeline structure on 50 seeded runs", checks)


def test_criterion_7_complexity_accounting():
    # evaluation counts exactly linear in K
    game = synthetic_embedding_game(8, 0)
    counts = {}
    for sample_count in (64, 128):
        counting = CountingGame(game)
        estimate_all(counting, EstimatorConfig(sample_count=sample_count, seed=0, gamma=0.5))
        counts[sample_count] = counting.evaluations
    linear_ok = (
        counts[128] == 2 * counts[64]
        and counts[64] == expected_characteristic_evaluations(8, 64)
        and counts[128] == expected_characteristic_evaluations(8, 128)
    )

    # solver coupling-operation count exactly quadratic in n at fixed T
    ops, iterations = {}, 25
    for n in (8, 16):
        fields = np.linspace(-1, 1, n)
        couplings = np.zeros((n, n))
        cfg = MeanFieldConfig(gamma=0.5, max_iterations=iterations, tolerance=1e-300, damping=0.7)
        result = solve_fixed_point(fields, couplings, cfg)
        assert result.iterations_used == iterations
        ops[n] = expected_coupling_operations(n, iterations)
    quadratic_ok = ops[16] / ops[8] == 4.0

    start = time.perf_counter()
    rows = run_bench(RunConfig())
    elapsed = time.perf_counter() - start
    sweep_ok = all(row["count_ok"] for row in rows) and len(rows) == 20

    checks = [
        ("characteristic evaluations exactly linear in K", linear_ok),
        ("coupling operations exactly quadratic in n", quadratic_ok),
        ("full sweep counts verified", sweep_ok),
        ("full sweep under 5 minutes", elapsed < 300.0),
    ]
    _gate("criterion 7: complexity accounting", checks)


def test_criterion_8_multi_head_degeneracy():
    rng = np.random.default_rng(606)
    n, d = 5, 6
    embeddings = rng.normal(size=(n, d))

    def head(d_v, seed):
        return HeadParams(
            value_projection=rng.normal(size=(d, d_v)),
            gate_weights=rng.normal(size=d),
            gate_bias=float(rng.normal()),
            estimator=EstimatorConfig(sample_count=32, seed=seed, gamma=0.5),
            meanfield=MeanFieldConfig(gamma=0.5, max_iterations=200, tolerance=1e-10, damping=0.0),
        )

    h0 = head(d, 1)
    single = single_head_attend(embeddings, h0)
    multi = multi_head_attend(embeddings, MultiHeadParams((h0,), np.eye(d)))
    identity_gap = float(np.max(np.abs(multi.output - single.output)))

    h1, h2 = head(3, 2), head(2, 3)
    w_out = rng.normal(size=(5, 4))
    result = multi_head_attend(embeddings, MultiHeadParams((h1, h2), w_out))
    z_cat = np.concatenate([result.heads[0].output, result.heads[1].output])
    hand = np.array([sum(z_cat[k] * w_out[k, j] for k in range(5)) for j in range(4)])
    concat_gap = float(np.max(np.abs(result.output - hand)))

    checks = [
        ("H=1 with identity projection reproduces single head to 1e-12", identity_gap <= 1e-12),
        ("H=2 concat-projection matches hand product to 1e-12", concat_gap <= 1e-12),
    ]
    _gate("criterion 8: multi-head degeneracy", checks)
