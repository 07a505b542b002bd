"""Exception types and argument validators shared across the modules.

Each validator returns the checked value as a float (an int for
require_int) or raises ValueError naming the parameter.
"""

from __future__ import annotations

from math import inf, isfinite

__all__ = ["ConditionNotApplicable", "BoundNotValid", "NumericalFailure", "NearSingular"]


class ConditionNotApplicable(Exception):
    """An applicability hypothesis fails (e.g. b >= 1, gap condition violated).

    This is a domain outcome, not a usage error: the requested certificate
    simply does not exist for the given constants.
    """


class BoundNotValid(ConditionNotApplicable):
    """A bound was requested at a point the certificate does not cover."""


class NumericalFailure(Exception):
    """A numerical routine failed to produce a trustworthy result."""


class NearSingular(NumericalFailure):
    """Resolvent norm requested within 1e-12 of an eigenvalue."""


def require_finite(name: str, value: float) -> float:
    value = float(value)
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def require_nonneg(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value < inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def require_positive(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def require_int(name: str, value, least: int) -> int:
    """A whole number >= least; fractional and non-finite values are refused."""
    try:
        whole = int(value)
    except (OverflowError, TypeError, ValueError):
        whole = None
    if whole is None or whole != value or whole < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return whole
