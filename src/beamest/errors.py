"""Exception types shared across the package, and the integer-field check."""

from numbers import Integral


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
