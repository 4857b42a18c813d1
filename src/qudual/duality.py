"""Predictability, visibility and the duality between them.

Predictability measures prior knowledge of which basis state the system
occupies; visibility measures the contrast of the interference fringe traced
by a phase scan behind a balanced beam splitter. For any state the two obey
``P**2 + V**2 <= 1`` with equality exactly on pure states, and the sum is
invariant under the choice of complementary family member.

The grid oracle here deliberately avoids the closed forms: it scans explicit
unitary transformations of the state and reads the fringe off the resulting
detection probabilities, which is what an experiment would do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError, check_scalar
from .states import DensityMatrix, purity

__all__ = [
    "predictability",
    "visibility",
    "fringe_probability",
    "visibility_oracle",
    "predictability_of_b",
    "visibility_of_b",
    "DualityReport",
    "duality_arrays",
    "duality_report",
]


def predictability(rho: DensityMatrix) -> float:
    """Population imbalance ``|w_plus - w_minus|``."""
    return abs(rho.w_plus - rho.w_minus)


def visibility(rho: DensityMatrix) -> float:
    """Fringe contrast ``2 * rho12`` of the optimal phase scan."""
    return 2.0 * rho.rho12


def fringe_probability(rho: DensityMatrix, phi, xi):
    """Detection probability for ``|plus>`` after a phase shift and a beam splitter.

    Computes ``<plus| U_bs(xi) U_ps(phi) rho U_ps(phi)^dagger U_bs(xi)^dagger |plus>``
    by explicit conjugation of ``rho`` with ``<plus| U_bs(xi) U_ps(phi) =
    (cos xi, i sin xi exp(i phi))``, the one row of the unitaries that the
    probability reads. ``phi`` and ``xi`` may be scalars or broadcastable
    arrays; the result has the broadcast shape.
    """
    phi = np.asarray(phi, dtype=float)
    xi = np.asarray(xi, dtype=float)
    u0 = np.cos(xi) + 0j
    u1 = 1j * np.sin(xi) * np.exp(1j * phi)
    m = rho.matrix
    p = ((u0 * m[0, 0] + u1 * m[1, 0]) * u0.conj() + (u0 * m[0, 1] + u1 * m[1, 1]) * u1.conj()).real
    return float(p) if p.shape == () else p


def visibility_oracle(rho: DensityMatrix, grid_n: int = 512) -> tuple[float, float]:
    """Brute-force fringe contrast from a grid scan of ``fringe_probability``.

    For every beam-splitter angle on a ``grid_n`` point grid over [0, 2 pi),
    the phase is swept over the same grid and the fringe amplitude
    ``max_phi p - min_phi p`` is recorded. The returned contrast
    ``(p_max - p_min) / (p_max + p_min)`` is evaluated at the angle with the
    largest amplitude, and that angle is returned folded to [0, pi/2).

    Independent of the closed form: agrees with :func:`visibility` to
    O(1/grid_n**2) and the folded angle lands within one grid step of pi/4.
    """
    grid_n = int(check_scalar(grid_n, "grid_n"))
    if grid_n < 8:
        raise ParameterError(f"grid_n = {grid_n} violates the bound grid_n >= 8")
    phi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    xi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    p = fringe_probability(rho, phi[None, :], xi[:, None])
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


def predictability_of_b(rho: DensityMatrix, varrho: float) -> float:
    """Predictability of the complementary family member at phase ``varrho``.

    Equals ``2 * rho12 * |cos(theta - varrho)|``; largest for the proper
    member ``varrho = theta``, zero at the erasure phases
    ``varrho = theta +- pi/2``.
    """
    return 2.0 * rho.rho12 * abs(math.cos(rho.theta - varrho))


def visibility_of_b(rho: DensityMatrix, varrho: float) -> float:
    """Visibility of the complementary family member at phase ``varrho``.

    Equals ``sqrt(P**2 + 4 rho12**2 sin(theta - varrho)**2)``, so the pair
    ``(P_B, V_B)`` carries the same squared sum as ``(P, V)`` for every
    ``varrho``.
    """
    p = rho.w_plus - rho.w_minus
    s = math.sin(rho.theta - varrho)
    return math.sqrt(p * p + 4.0 * rho.rho12 ** 2 * s * s)


@dataclass(frozen=True)
class DualityReport:
    """Predictability, visibility, their squared sum, and the state purity.

    :func:`duality_arrays` enforces the duality contract; the report itself
    does not.
    """

    p: float
    v: float
    sum_sq: float
    purity: float


def duality_arrays(w_plus, rho12) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The duality relation for stacked valid state parameters, elementwise.

    Returns ``(p, v, sum_sq, purity)``, the fields of :class:`DualityReport`,
    as float arrays of the broadcast shape. The first element with
    ``P**2 + V**2 > 1`` or ``P**2 + V**2 != 2 purity - 1`` beyond 1e-12
    raises a :class:`ContractViolationError`.
    """
    w, r = np.broadcast_arrays(np.asarray(w_plus, dtype=float), np.asarray(rho12, dtype=float))
    p = np.abs(w - (1.0 - w))
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
    return DualityReport(*(float(x) for x in duality_arrays(rho.w_plus, rho.rho12)))
