"""Per-operation output checks.

Every check holds for every correct run and every seed, so a failure means
the program, not the draw, is wrong.  ``check_report`` raises
``CheckError`` naming the first property that does not hold.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The radius for an estimate is set so that a correct random stream exceeds
# it with probability at most this, per token and (document, seed) pair.
BOUND_DELTA = 1e-12

_EPS = float(np.finfo(np.float64).eps)


class CheckError(Exception):
    """An operation's output violates a property every correct output has."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _reject_constant(name: str):
    raise CheckError(f"report is not strict JSON: contains {name}")


def _finite(node, where: str = "report") -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _finite(value, f"{where}.{key}")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            _finite(value, f"{where}[{index}]")
    elif isinstance(node, float):
        _require(math.isfinite(node), f"{where} is not finite")


def _unit_interval(values, where: str) -> None:
    arr = np.asarray(values, dtype=np.float64)
    _require(bool(np.all((arr >= 0.0) & (arr <= 1.0))), f"{where}: entry outside [0, 1]")


def _symmetric(matrix, where: str) -> None:
    arr = np.asarray(matrix, dtype=np.float64)
    _require(arr.ndim == 2 and np.array_equal(arr, arr.T), f"{where}: not symmetric")


def _check_attend(report: dict, expected) -> None:
    tolerance = report["config"]["tolerance"]
    for h, head in enumerate(report["heads"]):
        _unit_interval(head["alphas"], f"heads[{h}].alphas")
        _symmetric(head["interaction_matrix"], f"heads[{h}].interaction_matrix")
        _require(
            head["converged"] == (head["final_residual"] < tolerance),
            f"heads[{h}]: converged={head['converged']} but final_residual="
            f"{head['final_residual']!r} and tolerance={tolerance!r}",
        )


def _check_oracle(report: dict, expected) -> None:
    game = report["game"]
    _symmetric(game["interactions"], "game.interactions")
    _symmetric(game["tilted_interactions"], "game.tilted_interactions")
    # roundoff bound for sums over at most 2**n terms of this magnitude
    scale = max(1.0, sum(abs(x) for x in game["shapley"]), abs(game["efficiency_target"]))
    limit = (1 << game["n"]) * _EPS * scale
    _require(
        abs(game["efficiency_gap"]) <= limit,
        f"game.efficiency_gap {game['efficiency_gap']!r} exceeds roundoff bound {limit!r}",
    )
    spins = report["spins"]
    _unit_interval(spins["alphas"], "spins.alphas")
    _unit_interval(spins["meanfield_alphas"], "spins.meanfield_alphas")
    _symmetric(spins["couplings"], "spins.couplings")


def _check_estimate(report: dict, expected) -> None:
    _symmetric(report["interactions_hat"], "interactions_hat")
    exact, radius = expected
    error = np.abs(np.asarray(report["banzhaf_hat"]) - exact)
    worst = int(np.argmax(error - radius))
    _require(
        bool(np.all(error <= radius)),
        f"banzhaf_hat[{worst}] is {float(error[worst])!r} from the exact value, "
        f"beyond the Bernstein radius {float(radius[worst])!r}",
    )


_CHECKS = {"attend": _check_attend, "oracle": _check_oracle, "estimate": _check_estimate}


def check_report(command: str, text: str, reference: str | None, expected) -> None:
    """Check one report.

    ``reference`` is an earlier report for the same document and seed, which
    this one must equal byte for byte; ``expected`` is what
    ``expectation`` computed for the document.
    """
    report = json.loads(text, parse_constant=_reject_constant)
    _finite(report)
    _CHECKS[command](report, expected)
    if reference is not None:
        _require(text == reference, "report differs from the earlier report for the same document and seed")


def expectation(command: str, doc, settings: dict):
    """Reference values a report is checked against, computed once per document.

    For ``estimate`` on a table game: the exact Banzhaf vector from
    ``oracles.exact_banzhaf`` and, per token, a radius from Bernstein's
    inequality, the Hoeffding-style bound that also uses the variance.  A
    classic-mode Banzhaf estimate averages K independent draws of token i's
    marginal contribution, whose variance ``s2`` and largest deviation ``b``
    from the mean the table gives exactly, so with ``L = ln(2/delta)`` it
    lies within ``(b*L/3 + sqrt((b*L/3)**2 + 2*K*s2*L)) / K`` of the exact
    value except with probability ``BOUND_DELTA``.  (Hoeffding's radius,
    which uses the range alone, is four times wider on the workload's
    tables and lets a 50% error through.)
    """
    if command != "estimate":
        return None
    from coalattn.games import TabularGame
    from coalattn.oracles import exact_banzhaf

    if settings.get("mode") != "classic" or doc.characteristic_table is None:
        raise ValueError("the Banzhaf check needs a table game in classic mode")
    game = TabularGame(doc.characteristic_table)
    table = game.table
    masks = np.arange(table.size, dtype=np.int64)
    exact = np.array([exact_banzhaf(game, i) for i in range(game.n)])
    k = settings["sample_count"]
    log_term = math.log(2.0 / BOUND_DELTA)
    radius = np.empty(game.n)
    for i in range(game.n):
        without = masks[(masks & (1 << i)) == 0]
        deltas = table[without | (1 << i)] - table[without]
        reach = float(np.max(np.abs(deltas - deltas.mean()))) * log_term / 3.0
        radius[i] = (reach + math.sqrt(reach**2 + 2.0 * k * float(deltas.var()) * log_term)) / k
    # plus room for the roundoff of averaging K values of order one
    return exact, radius + 1e-12
