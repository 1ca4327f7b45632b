"""Small argument-validation helpers.

The simulator is configuration-heavy (hardware specs, HPL parameters, mapper
settings); validating eagerly at construction time turns silent
mis-calibrations into immediate, named errors.

On per-event / per-message hot paths, spell the check inline instead
(``if not cond: raise ValueError(f"...")``): the same condition and message,
but the message is only formatted when it is raised.
"""

from __future__ import annotations

from typing import Any


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> float:
    """Validate that *value* is strictly positive; returns it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_nonnegative(value: float, name: str) -> float:
    """Validate that *value* is >= 0; returns it for chaining."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_fraction(value: float, name: str) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def require_int(value: Any, name: str) -> int:
    """Validate that *value* is an integral number (bool excluded)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return value
