"""Shared validators and scalar primitives: the number and array checks
(``as_scalar``, ``as_integer``, ``as_vector``, ``as_matrix``), the one
overflow check for an a-priori float64 bound (``require_finite``), the
division by a temperature that refuses an overflow (``over_temperature``),
and a stable ``logistic``.

Everything runs in float64: the Monte Carlo weights go through exponentials
and the bundled reference values are quoted to three decimals, so double
precision is assumed engine-wide.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["TemperatureError", "as_scalar", "as_integer", "as_vector", "as_matrix", "require_finite", "over_temperature", "logistic"]


def as_scalar(data, name: str = "scalar") -> float:
    """Validate *data* as a finite real number (a bool is not one)."""
    if isinstance(data, bool) or not isinstance(data, numbers.Real):
        raise ValueError(f"{name}: expected a number, got {type(data).__name__}")
    try:
        value = float(data)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name}: must be finite")
    return value


def as_integer(data, name: str) -> int:
    """Validate *data* as a whole number, given as an integer, a numpy
    integer or an integral float such as ``7.0`` (a bool is not one), and
    return it as an int."""
    whole = isinstance(data, numbers.Integral) or isinstance(data, float) and data.is_integer()
    if whole and not isinstance(data, bool):
        return int(data)
    raise ValueError(f"{name}: must be an integer")


def _check_numbers(data, name: str, ndim: int) -> bool:
    """Reject any entry of nested lists, down to *ndim* levels, that is not a
    real number; a bool or a numeric string is not one, although ``float()``
    would take it.  An array is judged by its dtype alone.  Lists nested
    deeper than *ndim* levels are not looked into, so the walk never goes
    deeper than *ndim* calls; returns whether there are any."""
    if isinstance(data, np.ndarray):
        if data.dtype.kind not in "iuf":
            raise ValueError(f"{name}: not a numeric array: dtype {data.dtype}")
        return False
    if isinstance(data, (list, tuple)):
        if ndim == 0:
            return True
        deeper = False
        # rows of plain floats and ints, as JSON gives them, need no per-entry check
        if not set(map(type, data)) <= {float, int}:
            for item in data:
                deeper |= _check_numbers(item, name, ndim - 1)
        return deeper
    if isinstance(data, bool) or not isinstance(data, numbers.Real):
        raise ValueError(f"{name}: not a numeric array: found {type(data).__name__}")
    return False


def _as_array(data, name: str, ndim: int) -> np.ndarray:
    # ragged nesting, strings, bools, objects and ints beyond the float range
    # all surface as a ValueError naming the field; nesting too deep for
    # numpy (past 64 levels) as the wrong dimension
    deeper = _check_numbers(data, name, ndim)
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        if deeper:
            raise ValueError(f"{name}: expected a {ndim}-d array") from None
        raise ValueError(f"{name}: not a numeric array: {exc}") from None
    if arr.ndim != ndim:
        raise ValueError(f"{name}: expected a {ndim}-d array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name}: must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: all entries must be finite")
    return arr


def as_vector(data, name: str = "vector") -> np.ndarray:
    """Validate *data* as a finite, non-empty 1-d float64 array."""
    return _as_array(data, name, 1)


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate *data* as a finite, non-empty 2-d float64 array."""
    return _as_array(data, name, 2)


def require_finite(bound, message: str) -> None:
    """Raise ``ValueError(message)`` unless every entry of ``bound()`` is
    finite.  *bound* computes an a-priori bound on what a later computation
    forms, so a finite bound keeps that computation finite; it runs with
    numpy's overflow and invalid-value warnings off, since an infinite or
    NaN bound is the refusal itself, not a fault."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(bound()).all()
    if not finite:
        raise ValueError(message)


class TemperatureError(ValueError):
    """A temperature so small that values divided by it overflow float64."""


def over_temperature(values, gamma: float, name: str) -> np.ndarray:
    """``values / gamma``, bit for bit, or a ``TemperatureError`` naming the
    temperature setting *name* when a quotient is not finite."""
    with np.errstate(over="ignore"):
        scaled = values / gamma
    if not np.isfinite(scaled).all():
        raise TemperatureError(f"{name}: {gamma!r} is too small: values / {name} overflow float64")
    return scaled


def logistic(x: float) -> float:
    """Numerically stable 1/(1 + exp(-x)).

    Saturates smoothly for large |x| instead of overflowing; in float64 the
    result rounds to exactly 0.0 or 1.0 once |x| exceeds roughly 36.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("logistic: argument must be finite")
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)
