"""Bundled three-token walkthrough with reference values for every stage.

The fixture is a tiny tabular game plus three pre-drawn coalitions, a fixed
gate for token 1, and externally supplied field/coupling values for the
remaining tokens, so the whole chain can be recomputed deterministically and
compared against quoted reference numbers without touching the samplers.
Every stage runs through the function the engine uses for it:

* coalition values: the fixture's ``TabularGame`` evaluates the sampled
  masks as plain masks;
* the target token's marginals: the same game evaluates
  ``games.Extensions(sampled_masks, [[target_token]])``, whose differences
  (the table's lookups of the words and their toggles) are the marginals;
* Gibbs weights: ``estimators.gibbs_weights`` of the words' values, with
  equal proposal mass;
* pair deltas: the differences of ``Extensions(pair_contexts, [pair])``;
* gate blend: ``pipeline.combine_fields``;
* the first two iterations and the fixed point: ``meanfield.solve_fixed_point``
  from zeros, undamped, with ``max_iterations`` 1 and 2 for the iterations.

Two conventions of the fixture are worth spelling out:

* the three coalitions are reused for every estimate, and the target's
  marginals follow the estimator's Bernoulli-pool convention: its context on
  a word is the word without the target, so a coalition that already
  contains the target gives its marginal against the coalition minus that
  token.  The interaction contexts are pinned by the fixture to ``0b000,
  0b100, 0b000``: the first two are the coalitions stripped of both pair
  members, but the third coalition ``0b110`` strips to ``0b100``, and with
  that context the interaction would be 0.425, not the quoted 0.466;
* the single-token estimates are fed to the gate blend as-is (the fixture
  treats them as already normalized, there being no full score vector to
  normalize against).

The reference trajectory lists a snapshot after five undamped iterations and
its mapped weights; the engine's own converged fixed point continues past
that snapshot, so the report carries both with explicit deltas instead of
asserting agreement.

Each stage is one block of the report, holding ``engine``, ``reference`` and
``delta``.  ``render_demo`` prints a row for every such block, in the
report's order and labelled by its key, so a stage added to ``run_demo``
shows in the walkthrough with no second edit.  The report's
``schema_version`` is ``inputs.SCHEMA_VERSION``, the one the other reports
carry.
"""

from __future__ import annotations

import numpy as np

from .estimators import gibbs_weights
from .games import Extensions, TabularGame
from .inputs import SCHEMA_VERSION
from .meanfield import MeanFieldConfig, solve_fixed_point, spins_to_attention
from .pipeline import combine_fields

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

    # pair whose interaction is estimated, with the fixture's pinned contexts:
    # 0b010 and 0b101 stripped of both pair members, then the empty set where
    # 0b110 would strip to 0b100 (the module docstring gives the numbers)
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


def _compare(engine, reference) -> dict:
    """The engine's value beside the quoted one, and their difference: floats
    for a scalar stage, lists for a stage of one value per token."""
    engine, reference = np.asarray(engine, dtype=np.float64), np.asarray(reference, dtype=np.float64)
    return {"engine": engine.tolist(), "reference": reference.tolist(), "delta": (engine - reference).tolist()}


def run_demo() -> dict:
    """Recompute the bundled walkthrough; returns the structured report."""
    fx = FIXTURE
    game = TabularGame(fx.table)

    coalition_values = game.values_by_mask(np.array(fx.sampled_masks, dtype=np.uint64))
    marginals = game.values_by_mask(Extensions(fx.sampled_masks, [[fx.target_token]]))[1][0]
    proposals = np.ones(len(fx.sampled_masks))  # equal mass; cancels in normalization

    _, weights = gibbs_weights(coalition_values, proposals, fx.gamma)
    shapley_hat = float(np.dot(weights, marginals))
    banzhaf_hat = shapley_hat  # same coalitions and weights in the fixture

    pair_deltas = game.values_by_mask(Extensions(fx.pair_contexts, [fx.pair]))[1][0]
    interaction_hat = float(np.dot(weights, pair_deltas))

    # gate blend; the fixture feeds the raw estimates straight in
    field_target = float(combine_fields([shapley_hat], [banzhaf_hat], [fx.gate])[0])

    fields = np.array([fx.field_token_0, field_target, fx.field_token_2])
    couplings = np.array(fx.couplings)

    # the first two synchronous iterates from zeros
    spins_1, spins_2 = (
        solve_fixed_point(
            fields, couplings, MeanFieldConfig(gamma=fx.gamma, max_iterations=count, tolerance=1e-12, damping=0.0)
        ).expected_spins
        for count in (1, 2)
    )

    solve_cfg = MeanFieldConfig(gamma=fx.gamma, max_iterations=500, tolerance=1e-9, damping=0.0)
    solved = solve_fixed_point(fields, couplings, solve_cfg)

    snapshot_alphas = spins_to_attention(np.array(fx.reference_snapshot_spins))

    return {
        "schema_version": SCHEMA_VERSION,
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
    """Human-readable rendering of the demo report: one row per block that
    holds ``engine``, ``reference`` and ``delta``, in the report's order and
    labelled by its key, then the fixed point against the quoted snapshot.
    Engine values print to three decimals, references as quoted."""

    def numbers(values, fmt="{:.3f}"):
        return " ".join(fmt.format(v) for v in np.atleast_1d(values))

    rows = [
        f"three-token walkthrough (tabular fixture, gamma = {FIXTURE.gamma:g})",
        f"coalitions: {report['sampled_coalitions']}",
    ]
    for key, block in report.items():
        if isinstance(block, dict) and block.keys() >= {"engine", "reference", "delta"}:
            rows.append(
                f"{key:<28} engine: {numbers(block['engine']):<24} "
                f"reference: {numbers(block['reference'], '{:g}'):<24} "
                f"|delta| <= {np.max(np.abs(block['delta'])):.2e}"
            )
    fp = report["fixed_point"]
    rows += [
        f"{'converged spins':<28} engine: {numbers(fp['engine_spins'])}  ({fp['iterations_used']} iterations)",
        f"{'converged weights':<28} engine: {numbers(fp['engine_alphas'])}",
        (
            f"{'snapshot weights (quoted)':<28} reference: {numbers(fp['snapshot_alphas_quoted'])}"
            "   (5-iteration snapshot; engine continues to the fixed point, "
            f"max |delta| = {np.max(np.abs(fp['delta_alphas_vs_snapshot'])):.3f})"
        ),
    ]
    return "\n".join(rows)
