"""Small argument-validation helpers.

These helpers standardise the error type (:class:`~repro.errors.ConfigurationError`)
and the error messages used when components are constructed with invalid
parameters, keeping constructors short and uniform.
"""

from __future__ import annotations

import numbers
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_non_negative_int",
    "check_positive_int",
    "check_probability",
    "check_type",
]


def check_positive(name: str, value: Any) -> int | float:
    """Validate that ``value`` is a strictly positive number and return it."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {type(value).__name__}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(name: str, value: Any) -> int | float:
    """Validate that ``value`` is a non-negative number and return it."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {type(value).__name__}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def check_non_negative_int(name: str, value: Any) -> int:
    """Validate that ``value`` is a non-negative integer (not a bool) and return it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_positive_int(name: str, value: Any) -> int:
    """Validate that ``value`` is an integer >= 1 (not a bool) and return it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_probability(name: str, value: Any) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` and return it as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= float(value) <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def check_type(name: str, value: Any, expected: type | tuple[type, ...]) -> Any:
    """Validate that ``value`` is an instance of ``expected`` and return it."""
    if not isinstance(value, expected):
        expected_names = (
            expected.__name__
            if isinstance(expected, type)
            else " | ".join(t.__name__ for t in expected)
        )
        raise ConfigurationError(
            f"{name} must be an instance of {expected_names}, got {type(value).__name__}"
        )
    return value
