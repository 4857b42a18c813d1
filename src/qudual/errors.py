"""Exception types shared across the package, and the scalar validation that raises them."""

import math

import numpy as np

__all__ = ["QudualError", "ContractViolationError", "ParameterError", "SingularConfigurationError"]


class QudualError(Exception):
    """Base class for every error raised by this library."""


class ContractViolationError(QudualError):
    """A matrix input or an internal identity violates a structural contract.

    Raised when an input fails a hermiticity, unitarity or normalization
    check, when a computed identity such as the duality relation or the
    uncertainty bound fails beyond its tolerance, and when the independent
    routes of a check in :mod:`qudual.verify` disagree.
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


def check_scalar(
    value: float,
    name: str,
    lo: float = -math.inf,
    hi: float = math.inf,
    *,
    lo_open: bool = False,
    slack: float = 0.0,
) -> float:
    """Return ``value`` as a finite float in ``[lo, hi]``, or raise a :class:`ParameterError`.

    NaN and infinities are always rejected. ``lo_open`` excludes ``lo``
    itself; ``slack`` widens both closed ends, and a value accepted inside
    the slack is clamped onto ``[lo, hi]``. The message names the bound.
    """
    v = float(value)
    below = v <= lo if lo_open else v < lo - slack
    if not math.isfinite(v) or below or v > hi + slack:
        left = "-inf <" if lo == -math.inf else f"{lo:g} {'<' if lo_open else '<='}"
        right = "< inf" if hi == math.inf else f"<= {hi:g}"
        raise ParameterError(f"{name} = {v!r} violates the bound {left} {name} {right}")
    return min(max(v, lo), hi)


def check_array(
    values,
    name: str,
    lo: float = -math.inf,
    hi: float = math.inf,
    *,
    lo_open: bool = False,
    slack: float = 0.0,
) -> np.ndarray:
    """:func:`check_scalar` applied elementwise: ``values`` as a float array clamped onto ``[lo, hi]``.

    The first value that :func:`check_scalar` rejects raises its
    :class:`ParameterError`.
    """
    v = np.asarray(values, dtype=float)
    below = v <= lo if lo_open else v < lo - slack
    bad = ~np.isfinite(v) | below | (v > hi + slack)
    if bad.any():
        check_scalar(v[bad].flat[0], name, lo, hi, lo_open=lo_open, slack=slack)
    return np.clip(v, lo, hi)
