"""End-to-end attention from coalition-game valuation.

Per head: project values, estimate Shapley / Banzhaf / interaction values
on the induced embedding game, gate each token and blend the two normalized
importance vectors into an external field (``head_field``, which the oracle
also takes with exact values), solve the spin fixed point, map spins to
weights, and aggregate ``z = sum_i alpha_i v_i``.  Multi-head
runs heads independently, concatenates their outputs in head order, and
applies the output projection.

The weights are probabilities per token, not a distribution over tokens:
their sum is reported untouched and is never renormalized to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import EstimatorConfig, estimate_all
from .games import NONLINEARITIES, EmbeddingGame, GameValues
from .linalg import as_matrix, as_scalar, as_vector, logistic
from .meanfield import MeanFieldConfig, MeanFieldResult, solve_fixed_point

__all__ = [
    "NORMALIZATIONS",
    "DegenerateScoresError",
    "HeadParams",
    "MultiHeadParams",
    "HeadResult",
    "AttentionOutput",
    "gate_lambda",
    "normalize_scores",
    "combine_fields",
    "head_field",
    "single_head_attend",
    "multi_head_attend",
    "derive_head_seed",
]

NORMALIZATIONS = ("l1", "sum")

_HEAD_STREAM = 4


class DegenerateScoresError(ValueError):
    """Score normalization impossible: the chosen denominator is zero."""


@dataclass(frozen=True)
class HeadParams:
    """Per-head parameters; supplied by input files, never learned here.

    ``value_projection`` is ``d x d_v`` (row-vector convention), the gate is
    ``logistic(x_i . gate_weights + gate_bias)``, and the two temperatures
    live in the nested estimator (coalition) and mean-field (spin) configs.
    """

    value_projection: np.ndarray
    gate_weights: np.ndarray
    gate_bias: float
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    meanfield: MeanFieldConfig = field(default_factory=MeanFieldConfig)
    nonlinearity: str = "relu"
    normalization: str = "l1"

    def __post_init__(self) -> None:
        object.__setattr__(self, "value_projection", as_matrix(self.value_projection, "value_projection"))
        object.__setattr__(self, "gate_weights", as_vector(self.gate_weights, "gate_weights"))
        object.__setattr__(self, "gate_bias", as_scalar(self.gate_bias, "gate_bias"))
        if self.value_projection.shape[0] != self.gate_weights.size:
            raise ValueError("value_projection rows must equal gate_weights length")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"head params: unknown nonlinearity {self.nonlinearity!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"head params: unknown normalization {self.normalization!r}")


@dataclass(frozen=True)
class MultiHeadParams:
    heads: tuple[HeadParams, ...]
    output_projection: np.ndarray

    def __post_init__(self) -> None:
        if len(self.heads) < 1:
            raise ValueError("multi-head params: need at least one head")
        object.__setattr__(self, "heads", tuple(self.heads))
        object.__setattr__(
            self, "output_projection", as_matrix(self.output_projection, "output_projection")
        )
        total_dv = sum(h.value_projection.shape[1] for h in self.heads)
        if self.output_projection.shape[0] != total_dv:
            raise ValueError(
                f"output projection has {self.output_projection.shape[0]} rows, "
                f"heads produce a concatenated length of {total_dv}"
            )


@dataclass(frozen=True)
class HeadResult:
    """One head's output, gates and field, with the estimated game values it
    ran on and the solve whose ``alphas`` are the head's weights."""

    output: np.ndarray
    lambdas: np.ndarray
    field_vector: np.ndarray
    values: GameValues
    meanfield: MeanFieldResult


@dataclass(frozen=True)
class AttentionOutput:
    output: np.ndarray
    heads: tuple[HeadResult, ...]


def gate_lambda(embeddings, gate_weights, gate_bias: float) -> np.ndarray:
    """Gate value in (0, 1) of each token, one per row of the ``n x d``
    *embeddings*: logistic of the affine token score ``x_i . w + b``.

    ``np.vecdot`` forms each row's score as ``x_i @ w`` would, and the
    scalar ``logistic`` keeps every gate's bits, where a matrix-vector
    product or an array ``exp`` rounds otherwise on some inputs.
    """
    x = as_matrix(embeddings, "embeddings")
    w = as_vector(gate_weights, "gate_weights")
    if x.shape[1] != w.size:
        raise ValueError(f"gate: embeddings have width {x.shape[1]}, weights {w.size}")
    b = float(gate_bias)
    return np.array([logistic(t + b) for t in np.vecdot(x, w).tolist()])


def normalize_scores(raw, convention: str = "l1", name: str = "scores") -> np.ndarray:
    """Scale a score vector by its L1 norm ("l1") or its signed sum ("sum").

    The two agree for one-signed scores and differ for mixed signs.  A zero
    denominator cannot be normalized and is rejected; *name* labels the
    vector in that error.
    """
    if convention not in NORMALIZATIONS:
        raise ValueError(f"normalize_scores: unknown convention {convention!r}")
    v = as_vector(raw, name)
    l1 = float(np.sum(np.abs(v)))
    denom = l1 if convention == "l1" else float(np.sum(v))
    if denom == 0.0:
        raise DegenerateScoresError(
            f"cannot normalize {name}: {'all are zero' if l1 == 0.0 else 'they sum to zero'}"
        )
    return v / denom


def combine_fields(shapley_norm, banzhaf_norm, lambdas) -> np.ndarray:
    """Per-token convex blend ``J_i = lam_i * phi_i + (1 - lam_i) * beta_i``."""
    phi = as_vector(shapley_norm, "shapley_norm")
    beta = as_vector(banzhaf_norm, "banzhaf_norm")
    lam = as_vector(lambdas, "lambdas")
    if not phi.size == beta.size == lam.size:
        raise ValueError("combine_fields: score and gate vectors must share a length")
    if np.any((lam < 0.0) | (lam > 1.0)):
        raise ValueError("combine_fields: gates must lie in [0, 1]")
    return lam * phi + (1.0 - lam) * beta


def head_field(embeddings, params: HeadParams, values: GameValues) -> tuple[np.ndarray, np.ndarray]:
    """A head's gates and external field: the gate of each token of
    *embeddings*, and the gated blend of the normalized Shapley and Banzhaf
    vectors of *values*.  The one route from a head's game values to its
    field, for the estimates ``single_head_attend`` makes and the exact
    values the oracle computes."""
    lambdas = gate_lambda(embeddings, params.gate_weights, params.gate_bias)
    shapley_norm = normalize_scores(values.shapley, params.normalization, "shapley scores")
    banzhaf_norm = normalize_scores(values.banzhaf, params.normalization, "banzhaf scores")
    return lambdas, combine_fields(shapley_norm, banzhaf_norm, lambdas)


def single_head_attend(embeddings, params: HeadParams) -> AttentionOutput:
    """Run the full single-head pipeline.

    The game values are estimated on the embedding game induced by this
    head's value projection, so every characteristic evaluation sees the
    same projected vectors that the final aggregation uses; :func:`head_field`
    turns them into the field the spin system is solved with.
    """
    game = EmbeddingGame(embeddings, params.value_projection, params.nonlinearity)
    values = estimate_all(game, params.estimator)
    lambdas, fields = head_field(embeddings, params, values)
    mf = solve_fixed_point(fields, values.interactions, params.meanfield)
    z = mf.alphas @ game.projected
    head = HeadResult(output=z, lambdas=lambdas, field_vector=fields, values=values, meanfield=mf)
    return AttentionOutput(output=z, heads=(head,))


def multi_head_attend(embeddings, params: MultiHeadParams) -> AttentionOutput:
    """Run every head independently, concatenate, and project.

    Seeds are taken from each head's own estimator config, so callers decide
    whether heads share or split randomness (the harness derives per-head
    seeds from the global seed via :func:`derive_head_seed`).
    """
    results = [single_head_attend(embeddings, head) for head in params.heads]
    concatenated = np.concatenate([r.output for r in results])
    out = concatenated @ params.output_projection
    return AttentionOutput(output=out, heads=tuple(r.heads[0] for r in results))


def derive_head_seed(seed: int, head_index: int) -> int:
    """Deterministic 64-bit seed for one head, split from the global seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_HEAD_STREAM, int(head_index)))
    return int(ss.generate_state(1, np.uint64)[0])
