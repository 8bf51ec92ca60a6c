"""Exception types shared across the package, and the one check of each kind
of scalar argument: a count or a probability."""

import numbers
import operator


class ConfigError(ValueError):
    """A parameter fell outside its documented domain."""


class NumericalIntegrityError(RuntimeError):
    """A computed probability table failed a structural sanity check."""


class NotDecodableError(RuntimeError):
    """Payload recovery was attempted before the decoder reached full rank."""


def count(value: object, name: str, low: int = 0, high: int | None = None) -> int:
    """A count argument as a Python int in ``low .. high``, else ConfigError.

    Anything ``operator.index`` accepts is a count (numpy integers too),
    except bool; a float is refused, not truncated.
    """
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < low or (high is not None and n > high):
        bounds = f"in {low}..{high}" if high is not None else f">= {low}"
        raise ConfigError(f"{name}={value!r} must be an integer {bounds}")
    return int(n)


def probability(value: object, name: str) -> float:
    """A probability argument as a Python float in [0, 1], else ConfigError.

    Any real number is one (numpy scalars too), except bool and NaN.  The
    float matters: NumPy keeps ``1.0 - np.float32(x)`` in float32.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        x = float(value)
        if 0.0 <= x <= 1.0:
            return x
    raise ConfigError(f"{name}={value!r} must be a probability in [0, 1]")
