"""Damped fixed-point solver for the spin self-consistency equations.

The equilibrium condition is ``s_i = tanh((J_i + sum_{j!=i} C_ij s_j) / gamma)``
for external fields J and symmetric zero-diagonal couplings C.  Updates are
synchronous (every spin reads the previous iterate), optionally blended with
the previous iterate by a damping factor.

Stopping rule: the solver measures the self-consistency defect
``max_i |tanh(h_i(s)/gamma) - s_i|`` of the *current* iterate before each
update and stops once it drops below the tolerance.  The returned vector
therefore satisfies the undamped residual bound directly, whatever the
damping, and damping never moves the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_integer, as_matrix, as_scalar, as_vector

__all__ = [
    "MeanFieldConfig",
    "MeanFieldResult",
    "check_spin_system",
    "solve_fixed_point",
    "spins_to_attention",
]

# largest double strictly below 1; tanh output is clamped here so stored
# spins keep |s| < 1 even when the argument saturates
_SPIN_CAP = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class MeanFieldConfig:
    """Solver settings and their one check: a refusal's message starts
    with the run setting's name (``spin_gamma`` for the spin temperature
    ``gamma``), and a bool is refused for every setting."""

    gamma: float = 0.25
    max_iterations: int = 25
    tolerance: float = 1e-4
    damping: float = 0.7

    def __post_init__(self) -> None:
        if not as_scalar(self.gamma, "spin_gamma") > 0.0:
            raise ValueError(f"spin_gamma: must be positive and finite, got {self.gamma!r}")
        if not as_scalar(self.tolerance, "tolerance") > 0.0:
            raise ValueError(f"tolerance: must be positive and finite, got {self.tolerance!r}")
        object.__setattr__(self, "max_iterations", as_integer(self.max_iterations, "max_iterations"))
        if self.max_iterations < 1:
            raise ValueError("max_iterations: must be >= 1")
        if not 0.0 <= as_scalar(self.damping, "damping") < 1.0:
            raise ValueError("damping: must lie in [0, 1)")


@dataclass(frozen=True)
class MeanFieldResult:
    """Solver outcome.

    ``final_residual`` is the self-consistency defect of the returned
    iterate; ``converged`` is exactly ``final_residual < tolerance``.
    ``trace`` lists ``(iteration, residual)`` for every iterate the solver
    measured, from 0 to ``iterations_used``, so it has
    ``iterations_used + 1`` rows and its last residual is
    ``final_residual``.
    """

    expected_spins: np.ndarray
    alphas: np.ndarray
    iterations_used: int
    final_residual: float
    converged: bool
    trace: tuple[tuple[int, float], ...]


def check_spin_system(fields, couplings) -> tuple[np.ndarray, np.ndarray]:
    """Validate fields and couplings: equal sizes, symmetric couplings with a
    zero diagonal.  Every message starts with the offending field's name."""
    fields = as_vector(fields, "fields")
    couplings = as_matrix(couplings, "couplings")
    n = fields.size
    if couplings.shape != (n, n):
        raise ValueError(f"couplings: expected {n}x{n}, got {couplings.shape}")
    if not np.array_equal(couplings, couplings.T):
        raise ValueError("couplings: matrix must be symmetric")
    if np.any(np.diag(couplings) != 0.0):
        raise ValueError("couplings: diagonal must be zero")
    return fields, couplings


def solve_fixed_point(fields, couplings, cfg: MeanFieldConfig) -> MeanFieldResult:
    """Iterate the damped synchronous update until self-consistent.

    Starts from zeros.  Non-convergence within ``max_iterations`` is not an
    error: the last iterate is returned with ``converged=False`` and its
    defect in ``final_residual``.  With all couplings zero and no damping
    the exact solution ``tanh(J_i/gamma)`` is reached in a single update.
    The result's ``trace`` holds the residual of every measured iterate, at
    most ``max_iterations + 1`` rows.  With damping 0 and a tolerance that
    no earlier iterate meets, ``max_iterations = k`` returns the k-th
    synchronous iterate from zeros.
    """
    fields, couplings = check_spin_system(fields, couplings)
    spins, target, gap = np.zeros(fields.size), np.empty(fields.size), np.empty(fields.size)
    gamma, keep, take = cfg.gamma, cfg.damping, 1.0 - cfg.damping
    low, high = -_SPIN_CAP, _SPIN_CAP
    # the ufuncs, bound once per solve
    matmul, divide, tanh, maximum, minimum = np.matmul, np.divide, np.tanh, np.maximum, np.minimum
    add, subtract, absolute, multiply = np.add, np.subtract, np.abs, np.multiply

    trace: list[tuple[int, float]] = []
    used = 0
    # at a tiny gamma the quotient may overflow, and tanh(+-inf) is its limit +-1
    with np.errstate(over="ignore"):
        while True:
            # target = clip(tanh((fields + couplings @ spins) / gamma)), in place;
            # the clip is np.clip's result, NaN included, without its dispatch
            matmul(couplings, spins, out=target)
            add(fields, target, out=target)
            divide(target, gamma, out=target)
            tanh(target, out=target)
            maximum(target, low, out=target)
            minimum(target, high, out=target)
            defect = float(absolute(subtract(target, spins, out=gap), out=gap).max())
            trace.append((used, defect))
            if defect < cfg.tolerance or used >= cfg.max_iterations:
                break
            # spins = keep * spins + take * target, in place
            multiply(spins, keep, out=spins)
            add(spins, multiply(target, take, out=target), out=spins)
            used += 1

    return MeanFieldResult(
        expected_spins=spins,
        alphas=spins_to_attention(spins),
        iterations_used=used,
        final_residual=defect,
        converged=defect < cfg.tolerance,
        trace=tuple(trace),
    )


def spins_to_attention(spins) -> np.ndarray:
    """Affine map of spin expectations in [-1, 1] onto weights in [0, 1]."""
    spins = as_vector(spins, "spins")
    if np.any(np.abs(spins) > 1.0):
        raise ValueError("spins: entries must lie in [-1, 1]")
    return (1.0 + spins) / 2.0
