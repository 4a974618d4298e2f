"""Error types shared across the package, and the value checks of the config types."""

import math
import numbers


class AghashError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(AghashError):
    """A file is structurally malformed (bad header, truncated, unparseable)."""


class DataError(AghashError):
    """File contents violate a value contract (non-finite entry, non-binary label)."""


class ShapeError(AghashError):
    """Matrix dimensions do not conform."""


class ParameterError(AghashError):
    """An argument is outside its valid range."""


class NumericError(AghashError):
    """Training produced a non-finite quantity."""


class ConfigError(AghashError):
    """Inconsistent configuration (e.g. code-length mismatch with a checkpoint)."""


def require_finite(config, *names):
    """Raise ParameterError naming the first field of `names` that is not a finite real (None passes)."""
    for name in names:
        value = getattr(config, name)
        if value is None:
            continue
        if not isinstance(value, numbers.Real):
            raise ParameterError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def require_integer(name, value, minimum=None):
    """Raise ParameterError unless `value` is an integer (bool is not one here), >= `minimum` when given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ParameterError(f"{name} must be an integer{bound}, got {value!r}")
