"""Predictability, visibility and the duality between them.

Predictability measures prior knowledge of which basis state the system
occupies; visibility measures the contrast of the interference fringe traced
by a phase scan behind a balanced beam splitter. For any state the two obey
``P**2 + V**2 <= 1`` with equality exactly on pure states, and the sum is
invariant under the choice of complementary family member.

Each closed form takes one state or a stack, :class:`~qudual.states.DensityMatrix`
built from arrays, and returns a float or an array, each element of a stack
with the bits of its state alone.

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

import numpy as np

from .errors import check_array, check_count
from .linalg import _broadcastable, _ops
from .states import TWO_PI, DensityMatrix

# Largest oracle grid. Past it a finer grid buys no accuracy a check can use:
# here the contrast is within about 1e-6 of V. The scan is linear in grid_n:
# at the bound, about 0.3 ms and a peak near 97 * grid_n bytes (0.2 MB) for one
# state, and a peak near 56 * grid_n bytes (0.12 MB) per state of a stack
# (2.7 MB for 23 states, scanned in about 1.4 ms).
MAX_GRID_N = 2048

__all__ = [
    "predictability",
    "visibility",
    "fringe_probability",
    "visibility_oracle",
    "family_duality",
]


def _imbalance(w):
    """``P = |2 w - 1|`` of populations ``(w, 1 - w)``, for a float or an array alike."""
    return abs(2.0 * w - 1.0)


def predictability(rho: DensityMatrix) -> float:
    """Population imbalance ``P = |w_plus - w_minus|``, evaluated as ``|2 w_plus - 1|``, of one state or a stack.

    Doubling is exact and, for ``w_plus >= 1/4``, so is the subtraction (Sterbenz): one
    rounding at most, where ``sqrt(1 - 4 w+ w-)`` loses half its digits near ``w_plus = 1/2``.
    """
    return _imbalance(rho.w_plus)


def visibility(rho: DensityMatrix) -> float:
    """Fringe contrast ``2 * rho12`` of the optimal phase scan, of one state or a stack.

    With :func:`predictability`, ``P**2 + V**2 = 1 - 4 w+ w- + 4 rho12**2``, which the positivity bound
    ``rho12**2 <= w+ w-`` of every state keeps at most 1; the ``duality`` suite of :mod:`qudual.verify` checks it.
    """
    return 2.0 * rho.rho12


def _phase_factor(parts, phi):
    """``Im(m10 exp(i phi))``, ``m10 = x - i y`` for state parts ``(a, d, x, y)``: the phase factor of the fringe."""
    _, _, x, y = parts
    return x * np.sin(phi) - y * np.cos(phi)


def fringe_probability(rho: DensityMatrix, phi, xi):
    """Detection probability for ``|plus>`` after a phase shift and a beam splitter.

    Computes ``<plus| U_bs(xi) U_ps(phi) rho U_ps(phi)^dagger U_bs(xi)^dagger |plus>``
    by explicit conjugation of the entries ``m`` of the state's matrix with
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
    _broadcastable(rho.w_plus, phi, xi)
    m00, m11, _, _ = rho._parts
    cos_xi = np.cos(xi)
    sin_xi = np.sin(xi)
    p = np.asarray((2.0 * cos_xi * sin_xi) * _phase_factor(rho._parts, phi))
    # In place: a second temporary of the broadcast shape costs more than the arithmetic.
    np.subtract(cos_xi * cos_xi * m00 + sin_xi * sin_xi * m11, p, out=p)
    return float(p) if p.shape == () else p


def visibility_oracle(rho: DensityMatrix, grid_n: int = 512) -> tuple[float, float]:
    """Brute-force fringe contrast from a grid scan of ``fringe_probability``, of one state or a stack.

    For every beam-splitter angle on a ``grid_n`` point grid over [0, 2 pi),
    the phase is swept over the same grid and the fringe amplitude
    ``max_phi p - min_phi p`` is recorded. The returned contrast
    ``(p_max - p_min) / (p_max + p_min)`` is evaluated at the angle with the
    largest amplitude, and that angle is returned folded to [0, pi/2); with
    no fringe at any angle the contrast is 0. One state gives two Python
    floats, and a stack two arrays of its shape, each element with the bits
    of its state alone.

    The sweep reads two phases per angle, not ``grid_n``. At angle ``xi``
    the probability is ``A(xi) - fl(B(xi) s)`` with ``s = Im(m10 exp(i phi))``,
    which alone depends on the phase. Rounding to nearest is monotone, so
    ``fl(B s)`` is monotone in ``s`` for a fixed ``B`` (rising for ``B >= 0``,
    falling otherwise), and so is ``fl(A - x)`` in ``x``: every grid value
    of a row lies between its values at ``argmin s`` and ``argmax s``, and
    its max and min are those two values, bit for bit. Scanning the
    ``(grid_n, 2)`` grid of those phases gives what the full
    ``(grid_n, grid_n)`` scan gives, in O(grid_n) time and memory. The stack
    axes come last, angles by phases by states, so that the state's parts
    broadcast as they are, and a stack takes one :func:`fringe_probability`
    call too.

    Independent of the closed form: agrees with :func:`visibility` to
    O(1/grid_n**2) and the folded angle lands within one grid step of pi/4.
    """
    grid_n = check_count(grid_n, "grid_n", 8, MAX_GRID_N)
    grid = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)  # the phases, and the splitter angles
    column = grid.reshape((grid_n,) + (1,) * np.ndim(rho.w_plus))
    s = _phase_factor(rho._parts, column)
    p = fringe_probability(rho, grid[[np.argmin(s, axis=0), np.argmax(s, axis=0)]][None], column[:, None])
    # Each row's extremes from its two phases, not a reduction over that axis of length 2, which costs more.
    p_max, p_min = np.maximum(p[:, 0], p[:, 1]), np.minimum(p[:, 0], p[:, 1])
    k = np.argmax(p_max - p_min, axis=0)[None]
    p_max, p_min = (np.take_along_axis(x, k, 0)[0] for x in (p_max, p_min))
    amplitude = p_max - p_min
    # No fringe at any splitter setting: zero contrast, over a denominator of 1, so no 0 / 0; the angle is meaningless.
    v_hat = amplitude / (p_max + p_min + (amplitude <= 0.0))
    xi_hat = grid[k[0]] % (math.pi / 2.0)
    return (float(v_hat), float(xi_hat)) if v_hat.ndim == 0 else (v_hat, xi_hat)


def family_duality(rho: DensityMatrix, varrho) -> tuple:
    """Predictability and visibility ``(P_B, V_B)`` of the family member at phase ``varrho``.

    ``P_B = 2 rho12 |cos(theta - varrho)|`` is largest for the proper member
    ``varrho = theta`` and zero at the erasure phases ``varrho = theta +- pi/2``;
    ``V_B = sqrt(P**2 + 4 rho12**2 sin(theta - varrho)**2)``, so ``(P_B, V_B)``
    carries the squared sum of ``(P, V)`` for every ``varrho``. One state and
    one phase give two Python floats, from ``math``'s sin, cos and sqrt; a
    stacked state or an array of phases, which broadcast, gives arrays whose
    elements have those bits, from NumPy's. A non-finite phase raises a
    :class:`ParameterError`.
    """
    ops = _ops(rho.theta, varrho)
    theta, varrho = ops.broadcast(rho.theta, ops.check(varrho, "varrho"))
    delta = theta - varrho
    r = rho.rho12
    p, s = _imbalance(rho.w_plus), ops.sin(delta)
    return 2.0 * r * abs(ops.cos(delta)), ops.sqrt(p * p + 4.0 * (r * r) * s * s)
