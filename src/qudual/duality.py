"""Predictability, visibility and the duality between them.

Predictability measures prior knowledge of which basis state the system
occupies; visibility measures the contrast of the interference fringe traced
by a phase scan behind a balanced beam splitter. For any state the two obey
``P**2 + V**2 <= 1`` with equality exactly on pure states, and the sum is
invariant under the choice of complementary family member.

The grid oracle here deliberately avoids the closed forms: it scans explicit
unitary transformations of the state and reads the fringe off the resulting
detection probabilities, which is what an experiment would do. The
conjugation is expanded term by term over the entries of the density
matrix, never through ``P``, ``V`` or the state's parameters; the one
complex factor depends on the phase alone, so a grid point costs a few real
multiply-adds, and each splitter angle is read at the two phases where that
factor is least and greatest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, check_array, check_scalar
from .states import DensityMatrix, purity

# Largest oracle grid. Past it a finer grid buys no accuracy a check can use:
# here the contrast is within about 1e-6 of V. The scan is linear in grid_n,
# about 0.5 ms and a peak near 113 * grid_n bytes (0.23 MB) at the bound.
MAX_GRID_N = 2048

__all__ = [
    "MAX_GRID_N",
    "predictability",
    "visibility",
    "fringe_probability",
    "visibility_oracle",
    "family_arrays",
    "DualityReport",
    "duality_arrays",
    "duality_report",
]


def _imbalance(w):
    """``P = |2 w - 1|`` of populations ``(w, 1 - w)``, for a float or an array alike."""
    return abs(2.0 * w - 1.0)


def predictability(rho: DensityMatrix) -> float:
    """Population imbalance ``P = |w_plus - w_minus|``, evaluated as ``|2 w_plus - 1|``.

    Doubling is exact and, for ``w_plus >= 1/4``, so is the subtraction (Sterbenz): one
    rounding at most, where ``sqrt(1 - 4 w+ w-)`` loses half its digits near ``w_plus = 1/2``.
    """
    return _imbalance(rho.w_plus)


def visibility(rho: DensityMatrix) -> float:
    """Fringe contrast ``2 * rho12`` of the optimal phase scan."""
    return 2.0 * rho.rho12


def _phase_factor(m10, phi):
    """``Im(m10 exp(i phi))``, the one phase-dependent factor of :func:`fringe_probability`."""
    return (m10 * np.exp(1j * phi)).imag


def fringe_probability(rho: DensityMatrix, phi, xi):
    """Detection probability for ``|plus>`` after a phase shift and a beam splitter.

    Computes ``<plus| U_bs(xi) U_ps(phi) rho U_ps(phi)^dagger U_bs(xi)^dagger |plus>``
    by explicit conjugation of the entries ``m`` of ``rho.matrix`` with
    ``<plus| U_bs(xi) U_ps(phi) = (cos xi, i sin xi exp(i phi))``, the one
    row of the unitaries that the probability reads. Expanded term by term,
    ``p = cos(xi)**2 m00 + sin(xi)**2 m11 - 2 cos(xi) sin(xi) Im(m10 exp(i phi))``:
    the one complex factor depends on ``phi`` alone, so each ``(phi, xi)``
    point costs a few real multiply-adds. ``phi`` and ``xi`` may be scalars
    or broadcastable arrays; the result has the broadcast shape. A NaN or
    infinite phase or angle raises a :class:`ParameterError`.
    """
    phi = check_array(phi, "phi")
    xi = check_array(xi, "xi")
    m = rho.matrix
    cos_xi = np.cos(xi)
    sin_xi = np.sin(xi)
    p = np.asarray((2.0 * cos_xi * sin_xi) * _phase_factor(m[1, 0], phi))
    # In place: a second temporary of the broadcast shape costs more than the arithmetic.
    np.subtract(cos_xi * cos_xi * m[0, 0].real + sin_xi * sin_xi * m[1, 1].real, p, out=p)
    return float(p) if p.shape == () else p


def visibility_oracle(rho: DensityMatrix, grid_n: int = 512) -> tuple[float, float]:
    """Brute-force fringe contrast from a grid scan of ``fringe_probability``.

    For every beam-splitter angle on a ``grid_n`` point grid over [0, 2 pi),
    the phase is swept over the same grid and the fringe amplitude
    ``max_phi p - min_phi p`` is recorded. The returned contrast
    ``(p_max - p_min) / (p_max + p_min)`` is evaluated at the angle with the
    largest amplitude, and that angle is returned folded to [0, pi/2).

    The sweep reads two phases per angle, not ``grid_n``. At angle ``xi``
    the probability is ``A(xi) - fl(B(xi) s)`` with ``s = Im(m10 exp(i phi))``,
    which alone depends on the phase. Rounding to nearest is monotone, so
    ``fl(B s)`` is monotone in ``s`` for a fixed ``B`` (rising for ``B >= 0``,
    falling otherwise), and so is ``fl(A - x)`` in ``x``: every grid value
    of a row lies between its values at ``argmin s`` and ``argmax s``, and
    its max and min are those two values, bit for bit. Scanning the
    ``(grid_n, 2)`` grid of those phases gives what the full
    ``(grid_n, grid_n)`` scan gives, in O(grid_n) time and memory.

    Independent of the closed form: agrees with :func:`visibility` to
    O(1/grid_n**2) and the folded angle lands within one grid step of pi/4.
    """
    grid_n = int(check_scalar(grid_n, "grid_n", 8, MAX_GRID_N))
    phi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    xi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    s = _phase_factor(rho.matrix[1, 0], phi)
    p = fringe_probability(rho, phi[[np.argmin(s), np.argmax(s)]], xi[:, None])
    p_max = p.max(axis=1)
    p_min = p.min(axis=1)
    amplitude = p_max - p_min
    k = int(np.argmax(amplitude))
    xi_hat = float(xi[k] % (math.pi / 2.0))
    if amplitude[k] <= 0.0:
        # No fringe at any splitter setting: zero contrast, angle meaningless.
        return 0.0, xi_hat
    v_hat = float((p_max[k] - p_min[k]) / (p_max[k] + p_min[k]))
    return v_hat, xi_hat


def family_arrays(w_plus, rho12, theta, varrho) -> tuple[np.ndarray, np.ndarray]:
    """Predictability and visibility ``(P_B, V_B)`` of the family member at phase ``varrho``, elementwise.

    Takes valid state parameters, as :func:`duality_arrays` does, and phases
    that broadcast with them; a non-finite phase raises a :class:`ParameterError`.
    ``P_B = 2 rho12 |cos(theta - varrho)|`` is largest for the proper member
    ``varrho = theta`` and zero at the erasure phases ``varrho = theta +- pi/2``;
    ``V_B = sqrt(P**2 + 4 rho12**2 sin(theta - varrho)**2)``, so ``(P_B, V_B)``
    carries the squared sum of ``(P, V)`` for every ``varrho``. ``np.float_power``
    squares through C ``pow``, as Python's ``x ** 2`` does, so a stack and one
    state round alike.
    """
    w, r, t = (np.asarray(x, dtype=float) for x in (w_plus, rho12, theta))
    delta = t - check_array(varrho, "varrho")
    p = _imbalance(w)
    s = np.sin(delta)
    return 2.0 * r * np.abs(np.cos(delta)), np.sqrt(p * p + 4.0 * np.float_power(r, 2) * s * s)


@dataclass(frozen=True)
class DualityReport:
    """Predictability, visibility and their squared sum.

    :func:`duality_arrays` enforces the duality contract; the report itself
    does not.
    """

    p: float
    v: float
    sum_sq: float


def duality_arrays(w_plus, rho12) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The duality relation for stacked valid state parameters, elementwise.

    Returns ``(p, v, sum_sq, purity)``, the fields of :class:`DualityReport`
    and the state purity, as float arrays of the broadcast shape. The first
    element with ``P**2 + V**2 > 1`` or ``P**2 + V**2 != 2 purity - 1``
    beyond 1e-12 raises a :class:`ContractViolationError`.
    """
    w, r = np.broadcast_arrays(np.asarray(w_plus, dtype=float), np.asarray(rho12, dtype=float))
    p = _imbalance(w)
    v = 2.0 * r
    sum_sq = p * p + v * v
    pur = purity(w, r)
    above = sum_sq > 1.0 + 1e-12
    bad = np.flatnonzero(above | (np.abs(sum_sq - (2.0 * pur - 1.0)) > 1e-12))
    if bad.size:
        i = bad[0]
        s = float(sum_sq.flat[i])
        if above.flat[i]:
            raise ContractViolationError(f"P**2 + V**2 = {s!r} exceeds 1 beyond tolerance")
        raise ContractViolationError(
            f"P**2 + V**2 must equal 2 * purity - 1; got {s!r} versus {2.0 * float(pur.flat[i]) - 1.0!r}"
        )
    return p, v, sum_sq, pur


def duality_report(rho: DensityMatrix) -> DualityReport:
    """Evaluate the duality relation for one state: :func:`duality_arrays` on its parameters."""
    return DualityReport(*(float(x) for x in duality_arrays(rho.w_plus, rho.rho12)[:3]))
