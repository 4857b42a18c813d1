"""Exception types shared across the package, and the scalar validation that raises them."""

import math
import numbers
import reprlib

import numpy as np

__all__ = ["QudualError", "ContractViolationError", "ParameterError", "SingularConfigurationError"]


class QudualError(Exception):
    """Base class for every error raised by this library."""


class ContractViolationError(QudualError):
    """A matrix input or an internal identity violates a structural contract.

    Raised when an input fails a hermiticity, unitarity or normalization
    check, and when a computed identity such as the duality relation or the
    uncertainty bound fails beyond its tolerance.
    """


class ParameterError(QudualError, ValueError):
    """A scalar parameter is outside its allowed range.

    The message always names the violated bound.
    """


class SingularConfigurationError(QudualError):
    """The requested quantity diverges or is undefined at this configuration.

    Typical sources are the entanglement overlap endpoints c = 0 and c = 1,
    where one of the rescaled estimators loses meaning.
    """


def _not_real(name: str, value) -> ParameterError:
    return ParameterError(f"{name} = {reprlib.repr(value)} violates the bound: {name} must be a real number")


def as_float(value, name: str) -> float:
    """``float(value)``, with an integer beyond the double range taken as an infinity of its sign.

    A value that is not a real number, such as ``None``, a string or a complex, raises a :class:`ParameterError`
    that names the argument ``name``.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError) as exc:
        raise _not_real(name, value) from exc


def as_float_array(values, name: str) -> np.ndarray:
    """:func:`as_float` elementwise: ``values`` as a float array; a ragged sequence is not real numbers either."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        items = np.asarray(values, dtype=object)
        return np.array([as_float(x, name) for x in items.flat], dtype=float).reshape(items.shape)
    except (TypeError, ValueError) as exc:
        raise _not_real(name, values) from exc


def check_scalar(
    value: float,
    name: str,
    lo: float = -math.inf,
    hi: float = math.inf,
    *,
    slack: float = 0.0,
) -> float:
    """Return ``value`` as a finite float in ``[lo, hi]``, or raise a :class:`ParameterError`.

    NaN and infinities are always rejected. ``slack`` widens both ends, and a
    value accepted inside the slack is clamped onto ``[lo, hi]``. An integer
    beyond the double range counts as an infinity of its sign. The message
    names the bound and shows an integer as an integer.
    """
    v = as_float(value, name)
    if not math.isfinite(v) or v < lo - slack or v > hi + slack:
        left = "-inf <" if lo == -math.inf else f"{lo:g} <="
        right = "< inf" if hi == math.inf else f"<= {hi:g}"
        shown = int(value) if isinstance(value, numbers.Integral) and math.isfinite(v) else v
        raise ParameterError(f"{name} = {shown!r} violates the bound {left} {name} {right}")
    return min(max(v, lo), hi)


def check_count(value, name: str, lo: int, hi: int) -> int:
    """:func:`check_scalar` for a count: ``value`` as an int in ``[lo, hi]``; ``4.0`` is 4, and ``2.9`` raises."""
    v = check_scalar(value, name, lo, hi)
    if not v.is_integer():
        raise ParameterError(f"{name} = {v!r} violates the bound {name} in {{{lo:g}, ..., {hi:g}}}")
    return int(v)


def check_array(
    values,
    name: str,
    lo: float = -math.inf,
    hi: float = math.inf,
    *,
    slack: float = 0.0,
) -> np.ndarray:
    """:func:`check_scalar` applied elementwise: ``values`` as a float array clamped onto ``[lo, hi]``.

    The first value that :func:`check_scalar` rejects raises its
    :class:`ParameterError`.
    """
    v = as_float_array(values, name)
    bad = ~np.isfinite(v) | (v < lo - slack) | (v > hi + slack)
    if bad.any():
        check_scalar(v[bad].flat[0], name, lo, hi, slack=slack)
    return np.clip(v, lo, hi)
