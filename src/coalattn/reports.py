"""Report assembly for the oracle / estimate / attend commands.

Reports are plain dicts serialized canonically so identical inputs and
seeds always produce byte-identical files: the bytes of
``json.dumps(report, sort_keys=True, indent=2, allow_nan=False)`` plus a
trailing newline (sorted keys, two-space indent, shortest round-trip float
repr).  ``dump_json`` writes them without the standard library's
pure-Python indent encoder, formatting each list of plain floats with one
``repr`` and a list the report holds twice once; so each head hands one
list to ``interaction_matrix`` and to ``solver_input.couplings``.  No other
number is reported twice: a head's field is ``solver_input.fields`` alone,
and the tilted Shapley limit, which equals the tilted Banzhaf value, is
``game.tilted_banzhaf``.  Wall-clock timings are deliberately kept out of
these reports; only the benchmark CSV carries timings, and those are
documented as environment-dependent.

Each command runs the engine's one path for its stage: ``run_oracle``
tabulates the game once (``2**n`` evaluations) for the exact and tilted
values and feeds the exact ``GameValues`` through ``single_head_attend``;
``run_attend``'s ``--trace`` CSV is the trace the first head's solve
recorded.  Head reports read the head's ``GameValues``; an exact record
has no sample size, so its report carries ``"effective_sample_size": null``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace
from json.encoder import encode_basestring_ascii

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
    require_limit,
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


def dump_json(report: dict) -> str:
    """Canonical JSON encoding of *report*: exactly
    ``json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\\n"``.

    Dicts with only ``str`` keys, lists, and leaves of the exact types
    ``str``, ``int``, ``float``, ``bool`` and ``None`` are written here.  A
    list whose entries are all plain floats is formatted by one ``repr`` of
    the list, its items put on their own lines; that text is kept for the
    call by the list's identity, so a list object the report holds twice is
    formatted once.  Any other node (a tuple, a float or int subclass such
    as ``np.float64``, a dict with a key that is not a ``str``) is handed to
    ``json.dumps`` with the same settings and indented to its place.

    NaN and infinities are not JSON, so a report holding one raises
    ``ValueError`` instead of producing an invalid file.
    """
    out: list[str] = []
    _encode(report, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _encode(node, newline: str, out: list[str], float_lists: dict[int, str]) -> None:
    """Append the JSON text of *node* to *out*, its lines after the first
    indented as *newline* (a newline and the current indent) says.

    *float_lists* maps the ``id`` of each float-only list met so far to its
    items' text, ``", "``-separated; every list it names is held by the
    report, so no id is reused during the call."""
    kind = type(node)
    if kind is str:
        out.append(encode_basestring_ascii(node))
    elif kind is float:
        text = repr(node)
        if "n" in text:  # nan, inf and -inf; a finite float's repr has no n
            raise ValueError(f"Out of range float values are not JSON compliant: {text}")
        out.append(text)
    elif kind is int:
        out.append(repr(node))
    elif node is None or kind is bool:
        out.append("null" if node is None else "true" if node else "false")
    elif (kind is list or kind is dict) and not node:
        out.append("[]" if kind is list else "{}")
    elif kind is list:
        inner = newline + "  "
        items = float_lists.get(id(node))
        if items is None and set(map(type, node)) == {float}:
            items = repr(node)[1:-1]
            if "n" in items:
                raise ValueError("Out of range float values are not JSON compliant")
            float_lists[id(node)] = items
        if items is not None:
            out += ("[", inner, items.replace(", ", "," + inner), newline, "]")
            return
        separator = "[" + inner
        for item in node:
            out.append(separator)
            _encode(item, inner, out, float_lists)
            separator = "," + inner
        out += (newline, "]")
    elif kind is dict and all(type(key) is str for key in node):
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(node):
            out += (separator, encode_basestring_ascii(key), ": ")
            _encode(node[key], inner, out, float_lists)
            separator = "," + inner
        out += (newline, "}")
    else:
        # JSON text holds no raw newline, so each one is a line break to indent
        text = json.dumps(node, sort_keys=True, indent=2, allow_nan=False)
        out.append(text.replace("\n", newline))


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
            normalization=cfg.normalization,
        )
        for index, head in enumerate(doc.heads)
    ]


def _solver_report(solved: MeanFieldResult, n: int, fields: list, couplings: list) -> dict:
    """The solver's keys of an ``attend`` report: in each head and in the
    solver-only block.  *fields* and *couplings* are the lists the report
    carries, so a caller that reports them elsewhere too can pass the same
    objects, and ``dump_json`` formats them once."""
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
            "fields": fields,
            "couplings": couplings,
        },
    }


def run_oracle(doc: InputDocument, cfg: RunConfig) -> dict:
    """Exact values for everything the document pins down.

    Game documents get exact Shapley/Banzhaf/interaction values, their
    Gibbs-tilted counterparts, and the efficiency-axiom check.  Spin
    marginals are included when the document carries explicit fields and
    couplings, or else when they are exactly derivable (embedding game plus
    one head's gate parameters); the mean-field solution of the same system
    rides along with its gap to the exact marginals.
    """
    report: dict = {"schema_version": SCHEMA_VERSION, "config": cfg.echo()}
    # refuse past either oracle's limit before evaluating anything, the game's first
    derives_spins = (
        doc.heads is not None and doc.embeddings is not None and len(doc.heads) == 1 and not doc.has_spin_system
    )
    if doc.has_game:
        require_limit(doc.n)
    if derives_spins or doc.has_spin_system:
        require_limit(doc.n, spins=True)

    fields = couplings = solved = None
    if doc.has_game:
        # one table serves every exact value below
        game = exact_table(doc.build_game())
        exact = exact_game_values(game)
        tilted = exact_gibbs_tilted_values(game, cfg.coalition_gamma)
        grand, empty = game.table[-1], game.table[0]  # masks 2**n - 1 and 0
        interactions = exact.interactions.tolist()
        report["game"] = {
            "n": game.n,
            "shapley": exact.shapley.tolist(),
            "banzhaf": exact.banzhaf.tolist(),
            "interactions": interactions,
            "tilted_banzhaf": tilted.banzhaf.tolist(),
            "tilted_interactions": tilted.interactions.tolist(),
            "efficiency_sum": float(np.sum(exact.shapley)),
            "efficiency_target": float(grand - empty),
            "efficiency_gap": float(np.sum(exact.shapley) - (grand - empty)),
        }
        if derives_spins:
            head = _head_params_from_doc(doc, cfg)[0]
            result = single_head_attend(doc.embeddings, head, game_values=exact).heads[0]
            fields, couplings = result.field_vector, result.values.interactions
            solved = result.meanfield

    if doc.has_spin_system:
        fields, couplings = doc.fields, doc.couplings
        solved = solve_fixed_point(fields, couplings, cfg.meanfield_config())

    if fields is not None:
        try:
            marginals = exact_spin_marginals(fields, couplings, cfg.spin_gamma)
        except TemperatureError:
            raise
        except ValueError as exc:  # energies that overflow at any temperature
            raise InputError(str(exc)) from None
        report["spins"] = {
            "fields": fields.tolist(),
            # derived couplings are the game's exact interactions: one list serves both
            "couplings": interactions if derives_spins else couplings.tolist(),
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
    game = doc.build_game()
    values = estimate_all(game, cfg.estimator_config())
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.echo(),
        "n": game.n,
        "shapley_hat": values.shapley.tolist(),
        "banzhaf_hat": values.banzhaf.tolist(),
        "interactions_hat": values.interactions.tolist(),
        "effective_sample_size": values.effective_sample_size.tolist(),
    }


def _head_report(result, n: int) -> dict:
    values = result.values
    ess = values.effective_sample_size
    # the head reports its couplings twice, as one list that is formatted once
    couplings = values.interactions.tolist()
    return {
        **_solver_report(result.meanfield, n, result.field_vector.tolist(), couplings),
        "lambdas": result.lambdas.tolist(),
        "interaction_matrix": couplings,
        "shapley_hat": values.shapley.tolist(),
        "banzhaf_hat": values.banzhaf.tolist(),
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
        solved = solve_fixed_point(doc.fields, doc.couplings, cfg.meanfield_config())
        report["solver"] = _solver_report(solved, doc.n, doc.fields.tolist(), doc.couplings.tolist())
        if trace_path is not None:
            write_trace_csv(solved.trace, trace_path)
        return report

    raise InputError("document: attend needs embeddings or an explicit fields/couplings block")
