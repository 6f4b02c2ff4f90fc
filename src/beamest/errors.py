"""Exception types shared across the package, and the numeric-field checks."""

from math import isfinite
from numbers import Integral, Real


class ConfigurationError(ValueError):
    """Invalid configuration value or inconsistent configuration combination."""


class NumericalDegeneracyError(ArithmeticError):
    """A computation hit a numerically degenerate case (vanishing denominator)."""


def require_integers(cfg, *names: str) -> None:
    """Refuse a named field of ``cfg`` that holds no integer; a bool is no count."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def is_real(value) -> bool:
    """Whether ``value`` is a finite real number; a bool is no quantity, and
    NaN or an infinity (which JSON configs can spell) is no setting."""
    return isinstance(value, Real) and not isinstance(value, bool) and isfinite(value)


def require_reals(cfg, *names: str) -> None:
    """Refuse a named field of ``cfg`` that holds no finite real number."""
    for name in names:
        value = getattr(cfg, name)
        if not is_real(value):
            raise ConfigurationError(f"{name} must be a finite real number, got {value!r}")
