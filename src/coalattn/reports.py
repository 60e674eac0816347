"""Report assembly for the oracle / estimate / attend commands.

Reports are plain dicts serialized canonically (sorted keys, two-space
indent, shortest round-trip float repr, trailing newline) so identical
inputs and seeds always produce byte-identical files.  Wall-clock timings
are deliberately kept out of these reports; only the benchmark CSV carries
timings, and those are documented as environment-dependent.

Each command runs the engine's one path for its stage: ``run_oracle``
tabulates the game once (``2**n`` evaluations) for the exact and tilted
values and feeds the exact values through ``single_head_attend``;
``run_attend``'s ``--trace`` CSV is the trace the first head's solve
recorded.  A head fed exact values has no sample size, so its report
carries ``"effective_sample_size": null``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .estimators import estimate_all
from .inputs import SCHEMA_VERSION, InputDocument, InputError, RunConfig
from .linalg import TemperatureError
from .meanfield import MeanFieldResult, solve_fixed_point
from .oracles import (
    exact_game_values,
    exact_gibbs_tilted_values,
    exact_spin_marginals,
    exact_table,
)
from .pipeline import (
    AttentionOutput,
    HeadParams,
    MultiHeadParams,
    derive_head_seed,
    multi_head_attend,
    single_head_attend,
)

__all__ = [
    "dump_json",
    "write_trace_csv",
    "run_oracle",
    "run_estimate",
    "run_attend",
]


def dump_json(report: dict, path=None) -> str:
    """Canonical JSON encoding; writes to *path* when given.

    NaN and infinities are not JSON, so a report holding one raises
    ``ValueError`` instead of producing an invalid file.
    """
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def write_trace_csv(trace, path) -> None:
    """Convergence trace as CSV rows of (iteration, residual)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "residual"])
        for iteration, residual in trace:
            writer.writerow([iteration, repr(float(residual))])


def _head_params_from_doc(doc: InputDocument, cfg: RunConfig) -> list[HeadParams]:
    if doc.heads is None:
        raise InputError(
            "document: attend needs head parameters "
            "(value_projection/gate_weights/gate_bias or a multi_head block)"
        )
    return [
        replace(
            head,
            estimator=cfg.estimator_config(
                cfg.seed if len(doc.heads) == 1 else derive_head_seed(cfg.seed, index)
            ),
            meanfield=cfg.meanfield_config(),
            nonlinearity=doc.nonlinearity,
            normalization=cfg.normalization,
        )
        for index, head in enumerate(doc.heads)
    ]


def _solver_report(solved: MeanFieldResult, n: int, fields, couplings) -> dict:
    """The solver's keys of an ``attend`` report: in each head and in the solver-only block."""
    return {
        "alphas": solved.alphas.tolist(),
        "alpha_sum": float(np.sum(solved.alphas)),
        "expected_spins": solved.expected_spins.tolist(),
        "converged": solved.converged,
        "iterations_used": solved.iterations_used,
        "final_residual": solved.final_residual,
        # a self-contained document: feed it back through `attend`/`oracle`
        "solver_input": {
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "fields": np.asarray(fields).tolist(),
            "couplings": np.asarray(couplings).tolist(),
        },
    }


def run_oracle(doc: InputDocument, cfg: RunConfig) -> dict:
    """Exact values for everything the document pins down.

    Game documents get exact Shapley/Banzhaf/interaction values, their
    Gibbs-tilted counterparts, and the efficiency-axiom check.  Spin
    marginals are included when the document carries explicit fields and
    couplings, or when they are exactly derivable (embedding game plus gate
    parameters); the mean-field solution of the same system rides along with
    its gap to the exact marginals.
    """
    report: dict = {"schema_version": SCHEMA_VERSION, "config": cfg.echo()}

    fields = couplings = solved = None
    if doc.has_game:
        projection = doc.heads[0].value_projection if doc.heads else None
        # one table serves every exact value below
        game = exact_table(doc.build_game(projection))
        exact = exact_game_values(game)
        tilted = exact_gibbs_tilted_values(game, cfg.coalition_gamma)
        grand, empty = game.table[-1], game.table[0]  # masks 2**n - 1 and 0
        report["game"] = {
            "n": game.n,
            "shapley": exact.shapley.tolist(),
            "banzhaf": exact.banzhaf.tolist(),
            "interactions": exact.interactions.tolist(),
            "tilted_shapley_prefix": tilted.shapley.tolist(),
            "tilted_banzhaf": tilted.banzhaf.tolist(),
            "tilted_interactions": tilted.interactions.tolist(),
            "efficiency_sum": float(np.sum(exact.shapley)),
            "efficiency_target": float(grand - empty),
            "efficiency_gap": float(np.sum(exact.shapley) - (grand - empty)),
        }
        if doc.heads is not None and doc.embeddings is not None and len(doc.heads) == 1:
            head = _head_params_from_doc(doc, cfg)[0]
            result = single_head_attend(doc.embeddings, head, game_values=exact).heads[0]
            fields, couplings = result.field_vector, result.interaction_matrix
            solved = result.meanfield

    if doc.has_spin_system:
        fields, couplings = doc.spin_system()
        solved = solve_fixed_point(fields, couplings, cfg.meanfield_config())

    if fields is not None:
        try:
            marginals = exact_spin_marginals(fields, couplings, cfg.spin_gamma)
        except TemperatureError:
            raise
        except ValueError as exc:  # energies that overflow at any temperature
            raise InputError(str(exc)) from None
        report["spins"] = {
            "fields": np.asarray(fields).tolist(),
            "couplings": np.asarray(couplings).tolist(),
            "alphas": marginals.alphas.tolist(),
            "expected_spins": marginals.expected_spins.tolist(),
            "log_partition": marginals.log_partition,
            "alpha_sum": float(np.sum(marginals.alphas)),
            "meanfield_alphas": solved.alphas.tolist(),
            "meanfield_converged": solved.converged,
            "meanfield_max_gap": float(np.max(np.abs(solved.alphas - marginals.alphas))),
        }

    return report


def run_estimate(doc: InputDocument, cfg: RunConfig) -> dict:
    """Monte Carlo estimates for the document's game."""
    if not doc.has_game:
        raise InputError("document: estimate needs embeddings or a characteristic_table")
    projection = doc.heads[0].value_projection if doc.heads else None
    game = doc.build_game(projection)
    values = estimate_all(game, cfg.estimator_config())
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.echo(),
        "n": game.n,
        "shapley_hat": values.shapley_hat.tolist(),
        "banzhaf_hat": values.banzhaf_hat.tolist(),
        "interactions_hat": values.interactions_hat.tolist(),
        "effective_sample_size": values.effective_sample_size.tolist(),
    }


def _head_report(result, n: int) -> dict:
    ess = result.effective_sample_size
    return {
        **_solver_report(result.meanfield, n, result.field_vector, result.interaction_matrix),
        "lambdas": result.lambdas.tolist(),
        "field_vector": result.field_vector.tolist(),
        "interaction_matrix": result.interaction_matrix.tolist(),
        "shapley_hat": result.shapley_hat.tolist(),
        "banzhaf_hat": result.banzhaf_hat.tolist(),
        "effective_sample_size": None if ess is None else ess.tolist(),
        "output": result.output.tolist(),
    }


def run_attend(doc: InputDocument, cfg: RunConfig, trace_path=None) -> dict:
    """Full pipeline for embedding documents; solver stage alone for
    explicit fields/couplings documents."""
    report: dict = {"schema_version": SCHEMA_VERSION, "config": cfg.echo()}

    if doc.embeddings is not None:
        if doc.has_spin_system:
            raise InputError(
                "document: attend with embeddings must not also carry fields/couplings"
            )
        heads = _head_params_from_doc(doc, cfg)
        if doc.output_projection is not None:
            result: AttentionOutput = multi_head_attend(
                doc.embeddings, MultiHeadParams(tuple(heads), doc.output_projection)
            )
        else:
            result = single_head_attend(doc.embeddings, heads[0])
        report["output"] = result.output.tolist()
        report["heads"] = [_head_report(h, doc.n) for h in result.heads]
        if trace_path is not None:
            write_trace_csv(result.heads[0].meanfield.trace, trace_path)
        return report

    if doc.has_spin_system:
        fields, couplings = doc.spin_system()
        solved = solve_fixed_point(fields, couplings, cfg.meanfield_config())
        report["solver"] = _solver_report(solved, doc.n, fields, couplings)
        if trace_path is not None:
            write_trace_csv(solved.trace, trace_path)
        return report

    raise InputError("document: attend needs embeddings or an explicit fields/couplings block")
