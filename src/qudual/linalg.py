"""Small dense linear algebra for two-level problems.

Every operator in this package is 2x2, so its two eigenvalues come in
closed form from the quadratic formula, as ``mean +- half_gap``. No
iterative solver is used anywhere; results are reproducible to the last bit
across runs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ContractViolationError

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-12

# Largest real or imaginary part of an entry that each contract accepts: past
# it, the arithmetic of the check could overflow before it could fail.
# Hermitian (and trace_norm): with every part at most B, m - m^dagger has parts
# at most 2 B and entries of magnitude at most 2 sqrt(2) B; the largest
# intermediate of trace_norm is an eigenvalue magnitude
# |mean| + half_gap <= B + hypot(B, sqrt(2) B) = (1 + sqrt(3)) B, and
# |l1| + |l2| <= 2 (1 + sqrt(3)) B < 8 B.
_HERMITIAN_MAX_PART = sys.float_info.max / 8.0
# Unitary: an n x n matrix that fits in memory has n < 2**32, so every part of
# m^dagger m is a sum of n products of parts and at most 2 n B**2 < 2**33 B**2,
# which is max / 2 here; subtracting the identity and taking magnitudes stay
# below sqrt(2) (max / 2 + 1) < max.
_UNITARY_MAX_PART = math.sqrt(sys.float_info.max) / 2.0**17

__all__ = [
    "HERMITICITY_TOL",
    "UNITARITY_TOL",
    "assert_hermitian",
    "assert_unitary",
    "trace_norm",
]


def _finite_square(m: np.ndarray, name: str, contract: str, max_part: float) -> np.ndarray:
    """``m`` as a complex array, raising before any arithmetic unless it is square with bounded entries.

    Every entry must be finite, and its real and imaginary part at most
    ``max_part`` in magnitude; one pass over the parts reads both.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ContractViolationError(f"{name} must be square, got shape {m.shape}")
    peak = float(np.abs(np.ascontiguousarray(m).view(float)).max(initial=0.0))  # NaN propagates
    if not math.isfinite(peak):
        raise ContractViolationError(f"{name} is not {contract}: it has a NaN or infinite entry")
    if peak > max_part:
        raise ContractViolationError(
            f"{name} has an entry part of magnitude {peak!r}, past the bound "
            f"|Re m|, |Im m| <= {max_part!r} beyond which arithmetic on it overflows"
        )
    return m


def assert_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex array, raising if it is not Hermitian within :data:`HERMITICITY_TOL`.

    A stack of shape ``(..., n, n)`` is checked matrix by matrix; the message
    reports the largest deviation in the stack. An entry part past
    ``sys.float_info.max / 8`` in magnitude raises before any arithmetic.
    """
    m = _finite_square(m, name, "Hermitian", _HERMITIAN_MAX_PART)
    dev = float(np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0))
    if not dev <= HERMITICITY_TOL:  # NaN fails too
        raise ContractViolationError(
            f"{name} is not Hermitian: max |m - m^dagger| = {dev:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    return m


def assert_unitary(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex array, raising if it is not unitary within :data:`UNITARITY_TOL`.

    A stack of shape ``(..., n, n)`` is checked matrix by matrix; the message
    reports the largest deviation in the stack. An entry part past
    ``sqrt(sys.float_info.max) / 2**17`` in magnitude raises before any arithmetic.
    """
    m = _finite_square(m, name, "unitary", _UNITARY_MAX_PART)
    dev = float(np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])), initial=0.0))
    if not dev <= UNITARITY_TOL:  # NaN fails too
        raise ContractViolationError(
            f"{name} is not unitary: max |m^dagger m - 1| = {dev:.3e} exceeds {UNITARITY_TOL:.1e}"
        )
    return m


def _mean_half_gap(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and half gap of the two eigenvalues of stacked Hermitian 2x2 matrices ``(..., 2, 2)``.

    The half gap is ``hypot((a - d) / 2, |b|)`` with ``b`` the upper
    off-diagonal entry. ``|b|`` is ``np.hypot`` of its parts, which rounds as
    the scalar ``abs`` does (NumPy's complex ``abs`` on arrays does not), and
    the outer ``hypot`` is ``math.hypot`` per element, which ``np.hypot``
    does not always match in the last bit; so a stack rounds as one matrix.
    """
    a = m[..., 0, 0].real
    d = m[..., 1, 1].real
    b = m[..., 0, 1]  # the upper triangle fixes the off-diagonal convention
    mean = 0.5 * (a + d)
    legs = zip(np.ravel(0.5 * (a - d)).tolist(), np.ravel(np.hypot(b.real, b.imag)).tolist())
    half_gap = np.reshape([math.hypot(x, y) for x, y in legs], np.shape(mean))
    return mean, half_gap


def trace_norm(m: np.ndarray):
    """Trace norm (sum of absolute eigenvalues) of a Hermitian 2x2 matrix, or of each in a stack.

    ``m`` has shape ``(..., 2, 2)``; every matrix must pass
    :func:`assert_hermitian`, whose bound of ``sys.float_info.max / 8`` on
    every entry part keeps every intermediate and the result finite. Returns
    a float for one matrix and an array of the stack shape otherwise, from
    the eigenvalues ``mean +- half_gap`` of :func:`_mean_half_gap`.
    """
    m = assert_hermitian(m)
    if m.shape[-2:] != (2, 2):
        raise ContractViolationError(f"trace_norm expects 2x2 matrices, got {m.shape}")
    mean, half_gap = _mean_half_gap(m)
    norm = np.abs(mean + half_gap) + np.abs(mean - half_gap)
    return float(norm) if norm.ndim == 0 else norm
