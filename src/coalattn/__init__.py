"""Coalition-game attention engine.

Tokens are valued as players in a cooperative game over subsets; exact and
Monte Carlo Shapley/Banzhaf/interaction values parameterize a pairwise spin
system whose mean-field equilibrium yields the attention weights.  Every
approximation ships with an exhaustive exact oracle for small instances.
"""

from .estimators import (
    EstimatedGameValues,
    EstimatorConfig,
    estimate_all,
    gibbs_weights,
)
from .games import (
    CountingGame,
    EmbeddingGame,
    Extensions,
    TabularGame,
)
from .linalg import logistic
from .meanfield import (
    MeanFieldConfig,
    MeanFieldResult,
    mean_field_step,
    solve_fixed_point,
    spins_to_attention,
)
from .oracles import (
    EnumerationLimitError,
    ExactGameValues,
    ExactSpinMarginals,
    exact_banzhaf,
    exact_game_values,
    exact_gibbs_tilted_values,
    exact_interaction,
    exact_spin_marginals,
    hamiltonian,
)
from .pipeline import (
    AttentionOutput,
    HeadParams,
    MultiHeadParams,
    combine_fields,
    gate_lambda,
    multi_head_attend,
    normalize_scores,
    single_head_attend,
)

__version__ = "0.1.0"

__all__ = [
    "CountingGame",
    "EmbeddingGame",
    "Extensions",
    "TabularGame",
    "logistic",
    "EstimatedGameValues",
    "EstimatorConfig",
    "estimate_all",
    "gibbs_weights",
    "MeanFieldConfig",
    "MeanFieldResult",
    "mean_field_step",
    "solve_fixed_point",
    "spins_to_attention",
    "EnumerationLimitError",
    "ExactGameValues",
    "ExactSpinMarginals",
    "exact_banzhaf",
    "exact_game_values",
    "exact_gibbs_tilted_values",
    "exact_interaction",
    "exact_spin_marginals",
    "hamiltonian",
    "AttentionOutput",
    "HeadParams",
    "MultiHeadParams",
    "combine_fields",
    "gate_lambda",
    "multi_head_attend",
    "normalize_scores",
    "single_head_attend",
    "__version__",
]
