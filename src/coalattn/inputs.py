"""Input document and run configuration loading.

The input format is JSON with a versioned ``schema_version`` (currently 1).
A document describes either a game (exactly one of ``embeddings`` or
``characteristic_table``), an explicit spin system (``fields`` and/or
``couplings``, for solver-only runs), or both (the oracle command can then
report game values and spin marginals side by side).  An embedding
document carries head parameters, since its game is induced by the first
head's value projection: top-level ``value_projection`` / ``gate_weights`` /
``gate_bias`` for a single head, or a ``multi_head`` block with per-head
parameter objects and an ``output_projection``.

Every violation is reported with the offending field name and a nonzero
exit status distinct from enumeration-limit refusals (see ``cli``).  Each
JSON object the engine reads (the document, each head, the ``multi_head``
block, the config file and the config overrides) is checked by one rule,
in this order, with one of three refusals: ``field: expected a JSON
object, got <type>``, ``field: unknown keys [...]`` and ``field: missing
keys [...]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .estimators import EstimatorConfig
from .games import (
    MAX_TOKENS,
    NONLINEARITIES,
    TABULAR_MAX_TOKENS,
    EmbeddingGame,
    TabularGame,
    check_table,
    project_values,
)
from .linalg import as_matrix, as_vector, require_finite
from .meanfield import MeanFieldConfig, check_spin_system
from .pipeline import NORMALIZATIONS, HeadParams, MultiHeadParams

__all__ = [
    "SCHEMA_VERSION",
    "InputError",
    "InputDocument",
    "RunConfig",
    "load_input",
    "parse_document",
    "load_config",
]

SCHEMA_VERSION = 1

# the keys of one head's parameters, which a document may give at its top level
_HEAD_KEYS = frozenset({"value_projection", "gate_weights", "gate_bias"})
_DOCUMENT_KEYS = _HEAD_KEYS | {
    "schema_version", "n", "d", "embeddings", "characteristic_table",
    "fields", "couplings", "nonlinearity", "multi_head",
}
_MULTI_HEAD_KEYS = frozenset({"heads", "output_projection"})


class InputError(ValueError):
    """Input document or configuration rejected; message names the field."""


@dataclass(frozen=True)
class InputDocument:
    """A validated input document.  An explicit spin system is stored whole,
    with zeros for a half the document leaves out, so ``fields`` and
    ``couplings`` are both arrays or both ``None``; a document with
    ``embeddings`` carries at least one head, so ``heads`` is not ``None``."""

    n: int
    embeddings: np.ndarray | None
    characteristic_table: np.ndarray | None
    fields: np.ndarray | None
    couplings: np.ndarray | None
    heads: tuple[HeadParams, ...] | None
    output_projection: np.ndarray | None

    @property
    def has_game(self) -> bool:
        return self.embeddings is not None or self.characteristic_table is not None

    @property
    def has_spin_system(self) -> bool:
        return self.fields is not None

    def build_game(self):
        """Materialize the document's game: the table's, or the embedding
        game under the first head's value projection and nonlinearity."""
        if self.characteristic_table is not None:
            return TabularGame(self.characteristic_table)
        if self.embeddings is not None:
            head = self.heads[0]
            return EmbeddingGame(self.embeddings, head.value_projection, head.nonlinearity)
        raise InputError("document has no game: neither embeddings nor characteristic_table")


def _fail(field: str, message: str) -> "InputError":
    return InputError(f"{field}: {message}")


def _checked(check, *args, field: str | None = None):
    # the shared validators name the field first, so their message is ours;
    # a check that does not is named by *field*
    try:
        return check(*args)
    except ValueError as exc:
        raise InputError(str(exc) if field is None else f"{field}: {exc}") from None


def _object(obj, field: str, keys, required=frozenset()) -> dict:
    """*obj*, checked to be a JSON object whose keys all lie in *keys* and
    include every key of *required*: a value of another type is refused
    first, then unknown keys, then missing keys."""
    if not isinstance(obj, dict):
        raise _fail(field, f"expected a JSON object, got {type(obj).__name__}")
    unknown = obj.keys() - keys
    if unknown:
        raise _fail(field, f"unknown keys {sorted(unknown)}")
    missing = required - obj.keys()
    if missing:
        raise _fail(field, f"missing keys {sorted(missing)}")
    return obj


def _as_int(obj, field: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _fail(field, f"expected an integer, got {type(obj).__name__}")
    return obj


def _parse_head(
    obj, field: str, d: int | None, embeddings: np.ndarray | None, nonlinearity: str
) -> HeadParams:
    """Head parameters with the document's *nonlinearity* and the run's
    defaults; ``HeadParams`` checks the arrays and the bias, this checks the
    keys, the width ``d`` and, given the document's embeddings, that the
    head's game and gate logits stay finite.

    Every partial sum of a token's gate logit ``x_i . w + b`` is at most
    ``sum_k |x_ik| |w_k| + |b|`` in absolute value, so a finite bound for
    every token keeps the logits finite."""
    _object(obj, field, _HEAD_KEYS, _HEAD_KEYS)
    head = _checked(lambda: HeadParams(**obj, nonlinearity=nonlinearity), field=field)
    if d is not None and head.value_projection.shape[0] != d:
        raise _fail(f"{field}.value_projection", f"expected {d} rows to match embeddings")
    if embeddings is not None:
        _checked(project_values, embeddings, head.value_projection, f"{field}.value_projection")
        _checked(
            require_finite,
            lambda: np.abs(embeddings) @ np.abs(head.gate_weights) + abs(head.gate_bias),
            "gate logits overflow float64 with these embeddings "
            "(sum of |embedding| * |gate_weights| + |gate_bias| is not finite)",
            field=f"{field}.gate_weights",
        )
    return head


def parse_document(obj) -> InputDocument:
    """Validate a parsed JSON object into an :class:`InputDocument`."""
    _object(obj, "document", _DOCUMENT_KEYS)
    version = _as_int(obj.get("schema_version"), "schema_version") if "schema_version" in obj else None
    if version is None:
        raise InputError("schema_version: required")
    if version != SCHEMA_VERSION:
        raise InputError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")

    if "n" not in obj:
        raise InputError("n: required")
    n = _as_int(obj["n"], "n")
    if not 1 <= n <= MAX_TOKENS:
        raise _fail("n", f"must lie in 1..{MAX_TOKENS}")

    embeddings = None
    table = None
    d = _as_int(obj["d"], "d") if "d" in obj else None
    if d is not None and d < 1:
        raise _fail("d", "must be >= 1")

    if "embeddings" in obj and "characteristic_table" in obj:
        raise InputError(
            "document: embeddings and characteristic_table are mutually exclusive"
        )

    if "embeddings" in obj:
        embeddings = _checked(as_matrix, obj["embeddings"], "embeddings")
        if embeddings.shape[0] != n:
            raise _fail("embeddings", f"expected {n} rows, got {embeddings.shape[0]}")
        if d is not None and embeddings.shape[1] != d:
            raise _fail("embeddings", f"expected width {d}, got {embeddings.shape[1]}")
        d = embeddings.shape[1]

    if "characteristic_table" in obj:
        if n > TABULAR_MAX_TOKENS:
            raise _fail("characteristic_table", f"tables support at most {TABULAR_MAX_TOKENS} tokens")
        table = _checked(as_vector, obj["characteristic_table"], "characteristic_table")
        if table.size != (1 << n):
            raise _fail("characteristic_table", f"expected {1 << n} entries for n={n}, got {table.size}")
        _checked(check_table, table, "characteristic_table")

    fields = couplings = None
    if "fields" in obj or "couplings" in obj:
        fields = _checked(as_vector, obj["fields"], "fields") if "fields" in obj else np.zeros(n)
        if fields.size != n:
            raise _fail("fields", f"expected length {n}, got {fields.size}")
        fields, couplings = _checked(check_spin_system, fields, obj.get("couplings", np.zeros((n, n))))
        # every partial sum of a local field J_i + sum_j C_ij s_j, with every
        # |s_j| <= 1, is at most |J_i| + sum_j |C_ij| in absolute value, so
        # finite row bounds keep the solver's local fields finite
        _checked(
            require_finite,
            lambda: np.abs(couplings).sum(axis=1) + np.abs(fields),
            "fields, couplings: local fields overflow float64 (|fields_i| + sum_j |couplings_ij| is not finite)",
        )

    if embeddings is None and table is None and fields is None:
        raise InputError(
            "document: needs a game (embeddings or characteristic_table) or an "
            "explicit fields/couplings block"
        )

    nonlinearity = obj.get("nonlinearity", HeadParams.nonlinearity)
    if nonlinearity not in NONLINEARITIES:
        raise _fail("nonlinearity", f"must be one of {NONLINEARITIES}")

    single_keys = _HEAD_KEYS & obj.keys()
    heads: tuple[HeadParams, ...] | None = None
    output_projection = None
    if "multi_head" in obj:
        if single_keys:
            raise InputError(
                "document: top-level head parameters and a multi_head block are mutually exclusive"
            )
        block = _object(obj["multi_head"], "multi_head", _MULTI_HEAD_KEYS, _MULTI_HEAD_KEYS)
        raw_heads = block["heads"]
        if not isinstance(raw_heads, list) or not raw_heads:
            raise _fail("multi_head.heads", "expected a non-empty list")
        heads = tuple(
            _parse_head(h, f"multi_head.heads[{idx}]", d, embeddings, nonlinearity)
            for idx, h in enumerate(raw_heads)
        )
        output_projection = _checked(as_matrix, block["output_projection"], "multi_head.output_projection")
        _checked(MultiHeadParams, heads, output_projection, field="multi_head.output_projection")
        if embeddings is not None:
            # a head's output sum_i alpha_i v_i, with every alpha_i in [0, 1],
            # is at most sum_i |v_ik| in component k, so finite bounds keep
            # every partial sum of the output projection finite
            _checked(
                require_finite,
                lambda: np.concatenate([np.abs(embeddings @ h.value_projection).sum(axis=0) for h in heads])
                @ np.abs(output_projection),
                "outputs overflow float64 with these embeddings "
                "(sum_i |v_i| over every head's values v, times |output_projection|, is not finite)",
                field="multi_head.output_projection",
            )
    elif single_keys:
        heads = (_parse_head({k: obj[k] for k in single_keys}, "head", d, embeddings, nonlinearity),)
    elif embeddings is not None:
        raise InputError(
            "document: embeddings need head parameters "
            "(value_projection/gate_weights/gate_bias or a multi_head block)"
        )

    return InputDocument(
        n=n,
        embeddings=embeddings,
        characteristic_table=table,
        fields=fields,
        couplings=couplings,
        heads=heads,
        output_projection=output_projection,
    )


def _read_json(path, what: str):
    """The JSON value in the file at *path*.  A file that cannot be read or
    decoded is an ``InputError`` named *what* (``input file`` or ``config
    file``)."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"{what}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer literal past Python's digit
        # limit, or arrays nested past the recursion limit
        raise InputError(f"{what}: cannot decode: {exc}") from None


def load_input(path) -> InputDocument:
    """Read and validate an input document from a JSON file."""
    return parse_document(_read_json(path, "input file"))


@dataclass(frozen=True)
class RunConfig:
    """Engine-wide run settings.

    Every default is the engine's own: ``EstimatorConfig``'s for the
    coalition temperature (Gibbs weights), sample count, seed and mode,
    ``MeanFieldConfig``'s for the spin temperature and the solver budget,
    and ``HeadParams``'s for the normalization, so a default is changed in
    the engine config alone.  ``RunConfig`` checks that the integer
    settings are JSON integers; the engine configs check the numbers and
    every range, naming the setting, so a bad value is refused as ``field:
    message`` (exit 2).
    """

    coalition_gamma: float = EstimatorConfig.gamma
    spin_gamma: float = MeanFieldConfig.gamma
    sample_count: int = EstimatorConfig.sample_count
    max_iterations: int = MeanFieldConfig.max_iterations
    tolerance: float = MeanFieldConfig.tolerance
    damping: float = MeanFieldConfig.damping
    seed: int = EstimatorConfig.seed
    mode: str = EstimatorConfig.mode
    normalization: str = HeadParams.normalization

    def __post_init__(self) -> None:
        # the integers' JSON types are checked here, never converted, so the
        # echo shows the values as given; the engine configs check the
        # floats' types and every range
        for name in ("sample_count", "max_iterations", "seed"):
            _as_int(getattr(self, name), name)
        _checked(self.estimator_config)
        _checked(self.meanfield_config)
        if self.normalization not in NORMALIZATIONS:
            raise _fail("normalization", f"must be one of {NORMALIZATIONS}")

    def estimator_config(self, seed: int | None = None) -> EstimatorConfig:
        return EstimatorConfig(
            sample_count=self.sample_count,
            seed=self.seed if seed is None else seed,
            gamma=self.coalition_gamma,
            mode=self.mode,
        )

    def meanfield_config(self) -> MeanFieldConfig:
        return MeanFieldConfig(
            gamma=self.spin_gamma,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            damping=self.damping,
        )

    def echo(self) -> dict:
        """Config snapshot embedded in every report: every setting."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


_CONFIG_KEYS = frozenset(field.name for field in dataclass_fields(RunConfig))


def load_config(path=None, **overrides) -> RunConfig:
    """Build a run config from an optional JSON file plus overrides.

    Precedence: built-in defaults < config file < explicit overrides (CLI flags).
    """
    settings: dict = {}
    if path is not None:
        settings.update(_object(_read_json(path, "config file"), "config file", _CONFIG_KEYS))
    overrides = {key: value for key, value in overrides.items() if value is not None}
    settings.update(_object(overrides, "config", _CONFIG_KEYS))
    return RunConfig(**settings)
