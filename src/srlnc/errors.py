"""Exception types shared across the package, and the one check of each kind
of scalar argument: a count, a probability or a sparsity."""

import math
import numbers
import operator


class ConfigError(ValueError):
    """A parameter fell outside its documented domain."""


class NumericalIntegrityError(RuntimeError):
    """A computed probability table failed a structural sanity check."""


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


def _real(value: object) -> float:
    """value as a Python float if it is a real number (numpy scalars too)
    other than bool, else NaN, which every range check below refuses.  The
    float matters: NumPy keeps ``1.0 - np.float32(x)`` in float32."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    return math.nan


def probability(value: object, name: str) -> float:
    """A probability argument as a Python float in [0, 1], else ConfigError."""
    x = _real(value)
    if not 0.0 <= x <= 1.0:
        raise ConfigError(f"{name}={value!r} must be a probability in [0, 1]")
    return x


def sparsity(value: object, q: int) -> float:
    """A coefficient zero-probability p as a Python float in [1/q, 1), else
    ConfigError; q is a field order already checked."""
    p = probability(value, "p")
    if not 1.0 / q <= p < 1.0:
        raise ConfigError(
            f"p={p} outside [1/q, 1) = [{1.0 / q}, 1) for q={q}: below 1/q "
            "the coefficients are no longer sparse-biased, and p=1 would send "
            "only zero vectors"
        )
    return p

