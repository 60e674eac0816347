"""Coalition-game attention engine.

Tokens are valued as players in a cooperative game over subsets; exact and
Monte Carlo Shapley/Banzhaf/interaction values parameterize a pairwise spin
system whose mean-field equilibrium yields the attention weights.  Every
approximation ships with an exhaustive exact oracle for small instances.
"""

from .estimators import (
    EstimatorConfig,
    estimate_all,
    gibbs_weights,
)
from .games import (
    CountingGame,
    EmbeddingGame,
    Extensions,
    GameValues,
    TabularGame,
)
from .linalg import logistic
from .meanfield import (
    MeanFieldConfig,
    MeanFieldResult,
    solve_fixed_point,
    spins_to_attention,
)
from .oracles import (
    EnumerationLimitError,
    ExactSpinMarginals,
    exact_banzhaf,
    exact_game_values,
    exact_gibbs_tilted_values,
    exact_spin_marginals,
)
from .pipeline import (
    AttentionOutput,
    HeadParams,
    MultiHeadParams,
    combine_fields,
    gate_lambda,
    head_field,
    multi_head_attend,
    normalize_scores,
    single_head_attend,
)

__version__ = "0.1.0"

__all__ = [
    "CountingGame",
    "EmbeddingGame",
    "Extensions",
    "GameValues",
    "TabularGame",
    "logistic",
    "EstimatorConfig",
    "estimate_all",
    "gibbs_weights",
    "MeanFieldConfig",
    "MeanFieldResult",
    "solve_fixed_point",
    "spins_to_attention",
    "EnumerationLimitError",
    "ExactSpinMarginals",
    "exact_banzhaf",
    "exact_game_values",
    "exact_gibbs_tilted_values",
    "exact_spin_marginals",
    "AttentionOutput",
    "HeadParams",
    "MultiHeadParams",
    "combine_fields",
    "gate_lambda",
    "head_field",
    "multi_head_attend",
    "normalize_scores",
    "single_head_attend",
    "__version__",
]
