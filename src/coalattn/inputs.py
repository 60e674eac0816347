"""Input document and run configuration loading.

The input format is JSON with a versioned ``schema_version`` (currently 1).
A document describes either a game (exactly one of ``embeddings`` or
``characteristic_table``), an explicit spin system (``fields`` and/or
``couplings``, for solver-only runs), or both (the oracle command can then
report game values and spin marginals side by side).  Head parameters ride
along for pipeline runs: top-level ``value_projection`` / ``gate_weights`` /
``gate_bias`` for a single head, or a ``multi_head`` block with per-head
parameter objects and an ``output_projection``.

Every violation is reported with the offending field name and a nonzero
exit status distinct from enumeration-limit refusals (see ``cli``).
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .estimators import MODES, EstimatorConfig
from .games import (
    MAX_TOKENS,
    NONLINEARITIES,
    TABULAR_MAX_TOKENS,
    EmbeddingGame,
    TabularGame,
    monotonicity_violations,
    project_values,
)
from .linalg import as_matrix, as_scalar, as_vector
from .meanfield import MeanFieldConfig, check_spin_system
from .pipeline import NORMALIZATIONS, HeadParams, MultiHeadParams

__all__ = [
    "SCHEMA_VERSION",
    "THREADS_ENV_VAR",
    "InputError",
    "InputDocument",
    "RunConfig",
    "load_input",
    "parse_document",
    "load_config",
]

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# advisory thread-count hint; recorded in reports, never changes results
THREADS_ENV_VAR = "COALATTN_THREADS"

_DOCUMENT_KEYS = {
    "schema_version",
    "n",
    "d",
    "embeddings",
    "characteristic_table",
    "fields",
    "couplings",
    "value_projection",
    "gate_weights",
    "gate_bias",
    "nonlinearity",
    "multi_head",
}


class InputError(ValueError):
    """Input document or configuration rejected; message names the field."""


@dataclass(frozen=True)
class InputDocument:
    n: int
    d: int | None
    embeddings: np.ndarray | None
    characteristic_table: np.ndarray | None
    fields: np.ndarray | None
    couplings: np.ndarray | None
    heads: tuple[HeadParams, ...] | None
    output_projection: np.ndarray | None
    nonlinearity: str

    @property
    def has_game(self) -> bool:
        return self.embeddings is not None or self.characteristic_table is not None

    @property
    def has_spin_system(self) -> bool:
        return self.fields is not None or self.couplings is not None

    def build_game(self, value_projection=None):
        """Materialize the document's game.

        Table documents ignore ``value_projection``; embedding documents
        require one (normally a head's projection).
        """
        if self.characteristic_table is not None:
            game = TabularGame(self.characteristic_table)
            violations = monotonicity_violations(game)
            if violations:
                logger.warning(
                    "characteristic_table: %d subset pairs violate monotonicity "
                    "(allowed; reported for awareness)",
                    violations,
                )
            return game
        if self.embeddings is not None:
            if value_projection is None:
                raise InputError("embeddings input needs a value_projection to induce a game")
            return EmbeddingGame(self.embeddings, value_projection, self.nonlinearity)
        raise InputError("document has no game: neither embeddings nor characteristic_table")

    def spin_system(self) -> tuple[np.ndarray, np.ndarray]:
        """Fields and couplings with zero defaults for a missing half."""
        if not self.has_spin_system:
            raise InputError("document has no fields/couplings block")
        if self.fields is not None:
            n = self.fields.size
        else:
            n = self.couplings.shape[0]
        fields = self.fields if self.fields is not None else np.zeros(n)
        couplings = self.couplings if self.couplings is not None else np.zeros((n, n))
        return fields, couplings


def _fail(field: str, message: str) -> "InputError":
    return InputError(f"{field}: {message}")


def _checked(check, *args):
    # the shared validators name the field first, so their message is ours
    try:
        return check(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _as_int(obj, field: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _fail(field, f"expected an integer, got {type(obj).__name__}")
    return obj


_HEAD_KEYS = {"value_projection", "gate_weights", "gate_bias"}


def _parse_head(obj, field: str, d: int | None, embeddings: np.ndarray | None) -> HeadParams:
    """Head parameters with the run's defaults; ``HeadParams`` checks the
    arrays and the bias, this checks the keys, the width ``d`` and, given
    the document's embeddings, that the head's game stays finite."""
    if not isinstance(obj, dict):
        raise _fail(field, "expected an object")
    missing = _HEAD_KEYS - obj.keys()
    if missing:
        raise _fail(field, f"missing keys: {sorted(missing)}")
    extra = obj.keys() - _HEAD_KEYS
    if extra:
        raise _fail(field, f"unknown keys: {sorted(extra)}")
    try:
        head = HeadParams(**obj)
    except ValueError as exc:
        raise _fail(field, str(exc)) from None
    if d is not None and head.value_projection.shape[0] != d:
        raise _fail(f"{field}.value_projection", f"expected {d} rows to match embeddings")
    if embeddings is not None:
        _checked(project_values, embeddings, head.value_projection, f"{field}.value_projection")
    return head


def parse_document(obj) -> InputDocument:
    """Validate a parsed JSON object into an :class:`InputDocument`."""
    if not isinstance(obj, dict):
        raise InputError(f"document: expected a JSON object, got {type(obj).__name__}")
    unknown = obj.keys() - _DOCUMENT_KEYS
    if unknown:
        raise InputError(f"document: unknown keys {sorted(unknown)}")
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
        if table[0] != 0.0:
            raise _fail("characteristic_table", f"entry 0 (empty coalition) must be 0, got {table[0]}")

    fields = None
    couplings = None
    if "fields" in obj:
        fields = _checked(as_vector, obj["fields"], "fields")
        if fields.size != n:
            raise _fail("fields", f"expected length {n}, got {fields.size}")
    if "couplings" in obj:
        _, couplings = _checked(check_spin_system, np.zeros(n), obj["couplings"])

    if embeddings is None and table is None and fields is None and couplings is None:
        raise InputError(
            "document: needs a game (embeddings or characteristic_table) or an "
            "explicit fields/couplings block"
        )

    nonlinearity = obj.get("nonlinearity", "relu")
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
        block = obj["multi_head"]
        if not isinstance(block, dict):
            raise _fail("multi_head", "expected an object")
        extra = block.keys() - {"heads", "output_projection"}
        if extra:
            raise _fail("multi_head", f"unknown keys {sorted(extra)}")
        if "heads" not in block or "output_projection" not in block:
            raise _fail("multi_head", "needs both heads and output_projection")
        raw_heads = block["heads"]
        if not isinstance(raw_heads, list) or not raw_heads:
            raise _fail("multi_head.heads", "expected a non-empty list")
        heads = tuple(
            _parse_head(h, f"multi_head.heads[{idx}]", d, embeddings) for idx, h in enumerate(raw_heads)
        )
        output_projection = _checked(as_matrix, block["output_projection"], "multi_head.output_projection")
        try:
            MultiHeadParams(heads, output_projection)
        except ValueError as exc:
            raise _fail("multi_head.output_projection", str(exc)) from None
    elif single_keys:
        if single_keys != _HEAD_KEYS:
            missing = _HEAD_KEYS - single_keys
            raise InputError(f"document: incomplete head parameters, missing {sorted(missing)}")
        heads = (_parse_head({k: obj[k] for k in _HEAD_KEYS}, "head", d, embeddings),)

    return InputDocument(
        n=n,
        d=d,
        embeddings=embeddings,
        characteristic_table=table,
        fields=fields,
        couplings=couplings,
        heads=heads,
        output_projection=output_projection,
        nonlinearity=nonlinearity,
    )


def load_input(path) -> InputDocument:
    """Read and validate an input document from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"input file: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input file: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return parse_document(obj)


@dataclass(frozen=True)
class RunConfig:
    """Engine-wide run settings with the stock defaults.

    The coalition temperature (Gibbs weights) and spin temperature (mean
    field) are distinct settings that default to the same value.  ``threads``
    is an advisory hint recorded in reports; execution is sequential and
    results never depend on it.
    """

    coalition_gamma: float = 0.25
    spin_gamma: float = 0.25
    sample_count: int = 25
    max_iterations: int = 25
    tolerance: float = 1e-4
    damping: float = 0.7
    seed: int = 0
    mode: str = "gibbs"
    normalization: str = "l1"
    threads: str = "auto"

    def __post_init__(self) -> None:
        # values are checked, never converted, so the echo shows them as given
        for name in ("coalition_gamma", "spin_gamma", "tolerance"):
            value = getattr(self, name)
            if not _checked(as_scalar, value, name) > 0:
                raise _fail(name, f"must be positive and finite, got {value!r}")
        for name in ("sample_count", "max_iterations", "seed"):
            _as_int(getattr(self, name), name)
        if self.sample_count < 1:
            raise _fail("sample_count", "must be >= 1")
        if self.max_iterations < 1:
            raise _fail("max_iterations", "must be >= 1")
        if not 0.0 <= _checked(as_scalar, self.damping, "damping") < 1.0:
            raise _fail("damping", "must lie in [0, 1)")
        if not 0 <= self.seed < 2**64:
            raise _fail("seed", "must fit in an unsigned 64-bit integer")
        if self.mode not in MODES:
            raise _fail("mode", f"must be one of {MODES}")
        if self.normalization not in NORMALIZATIONS:
            raise _fail("normalization", f"must be one of {NORMALIZATIONS}")
        object.__setattr__(self, "threads", _check_threads(self.threads))

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
        """Config snapshot embedded in every report.

        The thread hint is deliberately left out: it is advisory, never
        changes results, and reports must stay byte-identical across hints.
        """
        return {
            "coalition_gamma": self.coalition_gamma,
            "spin_gamma": self.spin_gamma,
            "sample_count": self.sample_count,
            "max_iterations": self.max_iterations,
            "tolerance": self.tolerance,
            "damping": self.damping,
            "seed": self.seed,
            "mode": self.mode,
            "normalization": self.normalization,
        }


_CONFIG_KEYS = frozenset(field.name for field in dataclass_fields(RunConfig))


def _check_threads(value) -> str:
    if isinstance(value, bool):
        raise _fail("threads", "expected 'auto' or a positive integer")
    if isinstance(value, int):
        if value < 1:
            raise _fail("threads", "must be >= 1")
        return str(value)
    if isinstance(value, str):
        if value == "auto":
            return value
        if value.isdigit() and int(value) >= 1:
            return value
        raise _fail("threads", f"expected 'auto' or a positive integer, got {value!r}")
    raise _fail("threads", "expected 'auto' or a positive integer")


def load_config(path=None, **overrides) -> RunConfig:
    """Build a run config from an optional JSON file plus overrides.

    Precedence: built-in defaults < config file < explicit overrides (CLI
    flags) — with the thread hint additionally read from the environment
    variable ``COALATTN_THREADS`` when neither file nor flag sets it.
    """
    settings: dict = {}
    if path is not None:
        p = Path(path)
        try:
            obj = json.loads(p.read_text())
        except OSError as exc:
            raise InputError(f"config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"config file: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise InputError("config file: expected a JSON object")
        unknown = obj.keys() - _CONFIG_KEYS
        if unknown:
            raise InputError(f"config file: unknown keys {sorted(unknown)}")
        settings.update(obj)
    for key, value in overrides.items():
        if value is not None:
            settings[key] = value
    if "threads" not in settings and os.environ.get(THREADS_ENV_VAR):
        settings["threads"] = os.environ[THREADS_ENV_VAR]
    try:
        return RunConfig(**settings)
    except TypeError as exc:
        raise InputError(f"config: {exc}") from None
