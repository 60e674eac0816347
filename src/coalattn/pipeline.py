"""End-to-end attention from coalition-game valuation.

Per head: project values, gate each token, estimate Shapley / Banzhaf /
interaction values on the induced embedding game, normalize and blend the
two importance vectors into an external field, solve the spin fixed point,
map spins to weights, and aggregate ``z = sum_i alpha_i v_i``.  Multi-head
runs heads independently, concatenates their outputs in head order, and
applies the output projection.

The weights are probabilities per token, not a distribution over tokens:
their sum is reported untouched and is never renormalized to 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .estimators import EstimatedGameValues, EstimatorConfig, estimate_all
from .games import NONLINEARITIES, EmbeddingGame
from .linalg import as_matrix, as_scalar, as_vector, logistic
from .meanfield import MeanFieldConfig, MeanFieldResult, solve_fixed_point
from .oracles import ExactGameValues

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
    "single_head_attend",
    "multi_head_attend",
    "derive_head_seed",
]

logger = logging.getLogger(__name__)

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
    """Every intermediate of one head, kept for interpretability.

    ``effective_sample_size`` is None when the head was fed exact values.
    """

    output: np.ndarray
    alphas: np.ndarray
    lambdas: np.ndarray
    field_vector: np.ndarray
    interaction_matrix: np.ndarray
    shapley_hat: np.ndarray
    banzhaf_hat: np.ndarray
    shapley_norm: np.ndarray
    banzhaf_norm: np.ndarray
    effective_sample_size: np.ndarray | None
    projected_values: np.ndarray
    meanfield: MeanFieldResult

    @property
    def alpha_sum(self) -> float:
        return float(np.sum(self.alphas))


@dataclass(frozen=True)
class AttentionOutput:
    output: np.ndarray
    heads: tuple[HeadResult, ...]


def gate_lambda(embedding, gate_weights, gate_bias: float) -> float:
    """Gate value in (0, 1): logistic of the affine token score."""
    x = as_vector(embedding, "embedding")
    w = as_vector(gate_weights, "gate_weights")
    if x.size != w.size:
        raise ValueError(f"gate: embedding has length {x.size}, weights {w.size}")
    return logistic(float(x @ w) + float(gate_bias))


def normalize_scores(raw, convention: str = "l1", name: str = "scores") -> np.ndarray:
    """Scale a score vector by its L1 norm ("l1") or its signed sum ("sum").

    The two agree for one-signed scores; for mixed signs they diverge, which
    is logged once per call.  A zero denominator cannot be normalized and is
    rejected; *name* labels the vector in that error.
    """
    if convention not in NORMALIZATIONS:
        raise ValueError(f"normalize_scores: unknown convention {convention!r}")
    v = as_vector(raw, name)
    l1 = float(np.sum(np.abs(v)))
    total = float(np.sum(v))
    if abs(total - l1) > 1e-12:
        logger.warning(
            "score normalization conventions diverge: sum=%.17g, L1=%.17g", total, l1
        )
    denom = l1 if convention == "l1" else total
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


def _extract_values(values) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    if isinstance(values, EstimatedGameValues):
        return (
            values.shapley_hat,
            values.banzhaf_hat,
            values.interactions_hat,
            values.effective_sample_size,
        )
    if isinstance(values, ExactGameValues):
        return values.shapley, values.banzhaf, values.interactions, None
    raise TypeError(f"unsupported game-values object: {type(values).__name__}")


def single_head_attend(embeddings, params: HeadParams, game_values=None) -> AttentionOutput:
    """Run the full single-head pipeline.

    ``game_values`` may inject precomputed values (estimated or exact); by
    default they are estimated on the embedding game induced by this head's
    value projection, so every characteristic evaluation sees the same
    projected vectors that the final aggregation uses.  With injected values
    no game is built: the aggregation projects the embeddings directly.
    """
    x = as_matrix(embeddings, "embeddings")
    n, d = x.shape
    if params.value_projection.shape[0] != d:
        raise ValueError(
            f"embeddings have width {d} but the value projection expects "
            f"{params.value_projection.shape[0]}"
        )
    lambdas = np.array(
        [gate_lambda(x[i], params.gate_weights, params.gate_bias) for i in range(n)]
    )

    if game_values is None:
        game = EmbeddingGame(x, params.value_projection, params.nonlinearity)
        values = game.projected
        game_values = estimate_all(game, params.estimator)
    else:
        values = x @ params.value_projection
    shapley, banzhaf, interactions, ess = _extract_values(game_values)

    shapley_norm = normalize_scores(shapley, params.normalization, "shapley scores")
    banzhaf_norm = normalize_scores(banzhaf, params.normalization, "banzhaf scores")
    fields = combine_fields(shapley_norm, banzhaf_norm, lambdas)

    mf = solve_fixed_point(fields, interactions, params.meanfield)
    z = mf.alphas @ values

    head = HeadResult(
        output=z,
        alphas=mf.alphas,
        lambdas=lambdas,
        field_vector=fields,
        interaction_matrix=np.asarray(interactions),
        shapley_hat=np.asarray(shapley),
        banzhaf_hat=np.asarray(banzhaf),
        shapley_norm=shapley_norm,
        banzhaf_norm=banzhaf_norm,
        effective_sample_size=None if ess is None else np.asarray(ess),
        projected_values=values,
        meanfield=mf,
    )
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
    lo, hi = ss.generate_state(2, np.uint32)
    return int(lo) | (int(hi) << 32)
