import math

import numpy as np
import pytest

from coalattn.meanfield import (
    MeanFieldConfig,
    solve_fixed_point,
    spins_to_attention,
)
from coalattn.oracles import exact_spin_marginals

WORKED_FIELDS = np.array([0.423, 0.711, 0.512])
WORKED_COUPLINGS = np.array(
    [[0.0, 0.466, 0.312], [0.466, 0.0, 0.278], [0.312, 0.278, 0.0]]
)


def _undamped(gamma=1.0, tol=1e-6, iters=500):
    return MeanFieldConfig(gamma=gamma, max_iterations=iters, tolerance=tol, damping=0.0)


def _iterate(fields, couplings, count, damping=0.0):
    """The solver's iterate after *count* ``gamma=1`` updates from zeros."""
    cfg = MeanFieldConfig(gamma=1.0, max_iterations=count, tolerance=1e-12, damping=damping)
    return solve_fixed_point(fields, couplings, cfg).expected_spins


def _random_system(rng, n, coupling_scale=1.0):
    fields = rng.uniform(-1.0, 1.0, size=n)
    raw = rng.uniform(-coupling_scale, coupling_scale, size=(n, n))
    couplings = (raw + raw.T) / 2.0
    np.fill_diagonal(couplings, 0.0)
    return fields, couplings


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"max_iterations": 0},
            {"tolerance": 0.0},
            {"damping": 1.0},
            {"damping": -0.1},
            {"max_iterations": 1.5},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            MeanFieldConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"max_iterations": True}, "max_iterations"),
            ({"tolerance": True}, "tolerance"),
            ({"damping": False}, "damping"),
            ({"gamma": True}, "spin_gamma"),
        ],
    )
    def test_bools_are_refused_by_name(self, kwargs, name):
        with pytest.raises(ValueError) as refusal:
            MeanFieldConfig(**kwargs)
        assert str(refusal.value).startswith(f"{name}: ")

    def test_whole_numbers_of_other_types_are_stored_as_ints(self):
        cfg = MeanFieldConfig(max_iterations=7.0)
        assert cfg == MeanFieldConfig(max_iterations=np.int64(7)) == MeanFieldConfig(max_iterations=7)
        assert type(cfg.max_iterations) is int


class TestEffectiveField:
    """The field ``h_i + sum_j J_ij m_j`` that one undamped ``gamma=1`` step
    from zeros passes through tanh."""

    def test_zero_couplings_passthrough(self):
        fields = np.array([0.3, -0.7])
        got = _iterate(fields, np.zeros((2, 2)), 1)
        assert got[1] == np.tanh(-0.7)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_fixed_point(np.zeros(3), np.zeros((2, 2)), _undamped())


class TestMeanFieldStep:
    """The first iterates of the solver, bounded by its iteration budget."""

    def test_first_iteration_from_zero(self):
        spins = _iterate(WORKED_FIELDS, WORKED_COUPLINGS, 1)
        np.testing.assert_allclose(spins, [0.400, 0.611, 0.471], atol=1e-3)

    def test_second_iteration(self):
        second = _iterate(WORKED_FIELDS, WORKED_COUPLINGS, 2)
        np.testing.assert_allclose(second, [0.693, 0.773, 0.668], atol=2e-3)

    def test_zero_system_stays_zero(self):
        spins = _iterate(np.zeros(4), np.zeros((4, 4)), 1)
        np.testing.assert_array_equal(spins, np.zeros(4))

    def test_damping_blends(self):
        # half of the update tanh(atanh(0.2)) blended with the zero start
        stepped = _iterate(np.array([math.atanh(0.2)]), np.zeros((1, 1)), 1, damping=0.5)
        assert stepped[0] == pytest.approx(0.1, abs=1e-15)


class TestSolveFixedPoint:
    def test_zero_coupling_closed_form(self):
        result = solve_fixed_point(np.array([0.5]), np.zeros((1, 1)), _undamped())
        assert result.expected_spins[0] == math.tanh(0.5)
        assert result.alphas[0] == pytest.approx(0.7311, abs=5e-5)
        assert result.converged and result.iterations_used <= 2

    def test_worked_instance_satisfies_self_consistency(self):
        cfg = _undamped(tol=1e-6)
        result = solve_fixed_point(WORKED_FIELDS, WORKED_COUPLINGS, cfg)
        assert result.converged
        s = result.expected_spins
        target = np.tanh(WORKED_FIELDS + WORKED_COUPLINGS @ s)
        assert np.max(np.abs(s - target)) < 1e-6

    def test_uniform_attention_for_empty_system(self):
        result = solve_fixed_point(np.zeros(5), np.zeros((5, 5)), _undamped())
        np.testing.assert_array_equal(result.alphas, np.full(5, 0.5))

    def test_converged_flag_matches_residual(self):
        rng = np.random.default_rng(41)
        fields, couplings = _random_system(rng, 6)
        cfg = MeanFieldConfig(gamma=0.5, max_iterations=3, tolerance=1e-12, damping=0.0)
        result = solve_fixed_point(fields, couplings, cfg)
        assert result.converged == (result.final_residual < cfg.tolerance)

    def test_non_convergence_returns_last_iterate(self):
        # antiferromagnetic pair at low temperature oscillates forever under
        # undamped synchronous updates: must return, flagged false
        fields = np.array([0.1, 0.1])
        couplings = np.array([[0.0, -2.0], [-2.0, 0.0]])
        cfg = MeanFieldConfig(gamma=0.2, max_iterations=2, tolerance=1e-14, damping=0.0)
        result = solve_fixed_point(fields, couplings, cfg)
        assert not result.converged
        assert result.iterations_used == 2
        assert result.final_residual >= cfg.tolerance
        assert np.all(np.isfinite(result.expected_spins))

    def test_damping_does_not_move_the_fixed_point(self):
        rng = np.random.default_rng(42)
        fields, couplings = _random_system(rng, 8, coupling_scale=0.2)
        tol = 1e-10
        for damping in (0.0, 0.3, 0.7):
            cfg = MeanFieldConfig(gamma=1.0, max_iterations=3000, tolerance=tol, damping=damping)
            result = solve_fixed_point(fields, couplings, cfg)
            assert result.converged
            s = result.expected_spins
            defect = np.max(np.abs(s - np.tanh(fields + couplings @ s)))
            assert defect < tol

    def test_matches_exact_marginals_at_zero_coupling(self):
        rng = np.random.default_rng(43)
        fields = rng.uniform(-1.5, 1.5, size=7)
        gamma = 0.9
        cfg = MeanFieldConfig(gamma=gamma, max_iterations=50, tolerance=1e-13, damping=0.0)
        result = solve_fixed_point(fields, np.zeros((7, 7)), cfg)
        exact = exact_spin_marginals(fields, np.zeros((7, 7)), gamma)
        np.testing.assert_allclose(result.alphas, exact.alphas, atol=1e-12)

    def test_damped_solve_reaches_zero_coupling_solution(self):
        rng = np.random.default_rng(44)
        fields = rng.uniform(-1.0, 1.0, size=5)
        cfg = MeanFieldConfig(gamma=1.0, max_iterations=500, tolerance=1e-13, damping=0.7)
        result = solve_fixed_point(fields, np.zeros((5, 5)), cfg)
        np.testing.assert_allclose(result.expected_spins, np.tanh(fields), atol=1e-12)

    def test_high_temperature_limit_is_uniform(self):
        rng = np.random.default_rng(45)
        fields, couplings = _random_system(rng, 6)
        cfg = MeanFieldConfig(gamma=1e6, max_iterations=200, tolerance=1e-10, damping=0.0)
        result = solve_fixed_point(fields, couplings, cfg)
        np.testing.assert_allclose(result.alphas, 0.5, atol=1e-5)

    def test_low_temperature_zero_coupling_snaps_to_field_sign(self):
        fields = np.array([0.8, -0.3, 1.2, -2.0])
        cfg = MeanFieldConfig(gamma=1e-6, max_iterations=50, tolerance=1e-8, damping=0.0)
        result = solve_fixed_point(fields, np.zeros((4, 4)), cfg)
        indicator = (fields > 0).astype(float)
        np.testing.assert_allclose(result.alphas, indicator, atol=1e-6)

    def test_spins_strictly_inside_unit_interval(self):
        fields = np.array([50.0, -50.0])
        cfg = MeanFieldConfig(gamma=1e-3, max_iterations=10, tolerance=1e-8, damping=0.0)
        result = solve_fixed_point(fields, np.zeros((2, 2)), cfg)
        assert np.all(np.abs(result.expected_spins) < 1.0)

    def test_alpha_relation_exact(self):
        rng = np.random.default_rng(46)
        fields, couplings = _random_system(rng, 6, coupling_scale=0.3)
        result = solve_fixed_point(fields, couplings, _undamped(tol=1e-8))
        np.testing.assert_allclose(
            result.alphas, (1.0 + result.expected_spins) / 2.0, atol=1e-15
        )

    def test_trace_records_residual_per_step(self):
        result = solve_fixed_point(WORKED_FIELDS, WORKED_COUPLINGS, _undamped(tol=1e-6))
        assert len(result.trace) == result.iterations_used + 1
        iterations = [row[0] for row in result.trace]
        assert iterations == list(range(len(iterations)))
        residuals = [row[1] for row in result.trace]
        assert residuals[-1] < 1e-6

    def test_asymmetric_couplings_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_fixed_point(np.zeros(2), [[0.0, 0.5], [0.2, 0.0]], _undamped())


class TestSpinsToAttention:
    def test_reference_snapshot_mapping(self):
        alphas = spins_to_attention(np.array([0.721, 0.798, 0.703]))
        np.testing.assert_allclose(alphas, [0.861, 0.899, 0.852], atol=5.0e-4)

    def test_zero_maps_to_half(self):
        np.testing.assert_array_equal(spins_to_attention(np.zeros(4)), np.full(4, 0.5))

    def test_endpoints(self):
        np.testing.assert_array_equal(spins_to_attention(np.array([-1.0, 1.0])), [0.0, 1.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            spins_to_attention(np.array([1.5]))
