"""Bundled three-token walkthrough with reference values for every stage.

The fixture is a tiny tabular game plus three pre-drawn coalitions, a fixed
gate for token 1, and externally supplied field/coupling values for the
remaining tokens, so the whole chain — Gibbs weights, Shapley/Banzhaf and
interaction estimates, field blending, and the first mean-field iterations —
can be recomputed deterministically and compared against quoted reference
numbers without touching the samplers.

Two conventions of the fixture are worth spelling out:

* the three coalitions are reused for every estimate; when a coalition
  already contains the target token, its marginal is taken against the
  coalition minus that token, and the interaction contexts are the
  coalitions stripped of both pair members;
* the single-token estimates are fed to the gate blend as-is (the fixture
  treats them as already normalized, there being no full score vector to
  normalize against).

The reference trajectory lists a snapshot after five undamped iterations and
its mapped weights; the engine's own converged fixed point continues past
that snapshot, so the report carries both with explicit deltas instead of
asserting agreement.
"""

from __future__ import annotations

import numpy as np

from .estimators import gibbs_weights
from .games import TabularGame
from .meanfield import MeanFieldConfig, mean_field_step, solve_fixed_point, spins_to_attention

__all__ = ["FIXTURE", "run_demo", "render_demo"]


class _Fixture:
    """Constants of the bundled walkthrough."""

    # characteristic table indexed by coalition bitmask (bit i = token i)
    table = (0.0, 0.2, 0.5, 1.2, 0.4, 0.8, 1.0, 1.8)
    n = 3
    gamma = 1.0

    # the three pre-drawn coalitions, as bitmasks, with equal proposal mass
    sampled_masks = (0b010, 0b101, 0b110)

    # token whose importance the walkthrough estimates, and its gate value
    target_token = 1
    gate = 0.6

    # pair whose interaction is estimated, with the contexts implied by the
    # fixture's reuse convention (coalitions stripped of both pair members)
    pair = (0, 1)
    pair_contexts = (0b000, 0b100, 0b000)

    # externally supplied fields for the non-target tokens
    field_token_0 = 0.423
    field_token_2 = 0.512
    couplings = (
        (0.0, 0.466, 0.312),
        (0.466, 0.0, 0.278),
        (0.312, 0.278, 0.0),
    )

    # quoted reference values the engine output is compared against
    reference_weights = (0.25, 0.34, 0.41)
    reference_shapley = 0.711
    reference_banzhaf = 0.711
    reference_interaction = 0.466
    reference_field = 0.711
    reference_iteration_1 = (0.400, 0.611, 0.471)
    reference_iteration_2 = (0.693, 0.773, 0.668)
    reference_snapshot_spins = (0.721, 0.798, 0.703)
    reference_snapshot_alphas = (0.861, 0.899, 0.852)


FIXTURE = _Fixture


def _fixture_marginals(game: TabularGame, token: int, masks) -> np.ndarray:
    """Marginal of *token* against each coalition, per the reuse convention."""
    bit = 1 << token
    contexts = np.array(masks) & ~bit  # drop the token when the coalition contains it
    return game.table[contexts | bit] - game.table[contexts]


def _fixture_pair_deltas(game: TabularGame, pair, contexts) -> np.ndarray:
    bi, bj = 1 << pair[0], 1 << pair[1]
    contexts = np.array(contexts)
    table = game.table
    return table[contexts | bi | bj] - table[contexts | bi] - table[contexts | bj] + table[contexts]


def _compare(engine, reference) -> dict:
    engine = np.atleast_1d(np.asarray(engine, dtype=np.float64))
    reference = np.atleast_1d(np.asarray(reference, dtype=np.float64))
    delta = engine - reference
    if engine.size == 1:
        return {
            "engine": float(engine[0]),
            "reference": float(reference[0]),
            "delta": float(delta[0]),
        }
    return {
        "engine": engine.tolist(),
        "reference": reference.tolist(),
        "delta": delta.tolist(),
    }


def run_demo() -> dict:
    """Recompute the bundled walkthrough; returns the structured report."""
    fx = FIXTURE
    game = TabularGame(fx.table)

    coalition_values = game.table[list(fx.sampled_masks)]
    proposals = np.ones(len(fx.sampled_masks))  # equal mass; cancels in normalization

    marginals = _fixture_marginals(game, fx.target_token, fx.sampled_masks)
    _, weights = gibbs_weights(coalition_values, proposals, fx.gamma)
    shapley_hat = float(np.dot(weights, marginals))
    banzhaf_hat = shapley_hat  # same coalitions and weights in the fixture

    pair_deltas = _fixture_pair_deltas(game, fx.pair, fx.pair_contexts)
    interaction_hat = float(np.dot(weights, pair_deltas))

    # gate blend; the fixture feeds the raw estimates straight in
    field_target = fx.gate * shapley_hat + (1.0 - fx.gate) * banzhaf_hat

    fields = np.array([fx.field_token_0, field_target, fx.field_token_2])
    couplings = np.array(fx.couplings)

    step_cfg = MeanFieldConfig(gamma=fx.gamma, max_iterations=1, tolerance=1e-12, damping=0.0)
    spins_1 = mean_field_step(fields, couplings, np.zeros(fx.n), step_cfg)
    spins_2 = mean_field_step(fields, couplings, spins_1, step_cfg)

    solve_cfg = MeanFieldConfig(gamma=fx.gamma, max_iterations=500, tolerance=1e-9, damping=0.0)
    solved = solve_fixed_point(fields, couplings, solve_cfg)

    snapshot_alphas = spins_to_attention(np.array(fx.reference_snapshot_spins))

    return {
        "schema_version": 1,
        "table": list(fx.table),
        "sampled_coalitions": [
            [t for t in range(fx.n) if (m >> t) & 1] for m in fx.sampled_masks
        ],
        "weights": _compare(weights, fx.reference_weights),
        "shapley_estimate": _compare(shapley_hat, fx.reference_shapley),
        "banzhaf_estimate": _compare(banzhaf_hat, fx.reference_banzhaf),
        "interaction_estimate": _compare(interaction_hat, fx.reference_interaction),
        "field_target_token": _compare(field_target, fx.reference_field),
        "fields": fields.tolist(),
        "iteration_1": _compare(spins_1, fx.reference_iteration_1),
        "iteration_2": _compare(spins_2, fx.reference_iteration_2),
        "fixed_point": {
            "engine_spins": solved.expected_spins.tolist(),
            "engine_alphas": solved.alphas.tolist(),
            "iterations_used": solved.iterations_used,
            "converged": solved.converged,
            "snapshot_spins": list(fx.reference_snapshot_spins),
            "snapshot_alphas_quoted": list(fx.reference_snapshot_alphas),
            "snapshot_alphas_mapped": snapshot_alphas.tolist(),
            "delta_alphas_vs_snapshot": (solved.alphas - snapshot_alphas).tolist(),
        },
    }


def render_demo(report: dict) -> str:
    """Human-readable rendering of the demo report."""

    def line(label, block, fmt="{:.3f}"):
        eng = block["engine"]
        ref = block["reference"]
        if isinstance(eng, list):
            engine_s = " ".join(fmt.format(v) for v in eng)
            ref_s = " ".join(fmt.format(v) for v in ref)
            delta = max(abs(d) for d in block["delta"])
        else:
            engine_s = fmt.format(eng)
            ref_s = fmt.format(ref)
            delta = abs(block["delta"])
        return f"{label:<28} engine: {engine_s:<24} reference: {ref_s:<24} |delta| <= {delta:.2e}"

    fp = report["fixed_point"]
    rows = [
        "three-token walkthrough (tabular fixture, gamma = 1)",
        f"coalitions: {report['sampled_coalitions']}",
        line("normalized weights", report["weights"], "{:.2f}"),
        line("shapley estimate", report["shapley_estimate"]),
        line("banzhaf estimate", report["banzhaf_estimate"]),
        line("interaction estimate", report["interaction_estimate"]),
        line("blended field (token 1)", report["field_target_token"]),
        line("iteration-1 spins", report["iteration_1"]),
        line("iteration-2 spins", report["iteration_2"]),
        (
            f"{'converged spins':<28} engine: "
            + " ".join(f"{v:.3f}" for v in fp["engine_spins"])
            + f"  ({fp['iterations_used']} iterations)"
        ),
        (
            f"{'converged weights':<28} engine: "
            + " ".join(f"{v:.3f}" for v in fp["engine_alphas"])
        ),
        (
            f"{'snapshot weights (quoted)':<28} reference: "
            + " ".join(f"{v:.3f}" for v in fp["snapshot_alphas_quoted"])
            + "   (5-iteration snapshot; engine continues to the fixed point, "
            + "max |delta| = "
            + f"{max(abs(d) for d in fp['delta_alphas_vs_snapshot']):.3f})"
        ),
    ]
    return "\n".join(rows)
