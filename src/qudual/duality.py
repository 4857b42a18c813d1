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

import numpy as np

from .errors import ContractViolationError, as_float, as_float_array, check_array, check_count, check_scalar
from .linalg import _FLOAT_OPS, _ops
from .states import TWO_PI, DensityMatrix

# Largest oracle grid. Past it a finer grid buys no accuracy a check can use:
# here the contrast is within about 1e-6 of V. The scan is linear in grid_n,
# about 0.5 ms and a peak near 113 * grid_n bytes (0.23 MB) at the bound.
MAX_GRID_N = 2048

__all__ = [
    "predictability",
    "visibility",
    "fringe_probability",
    "visibility_oracle",
    "family_arrays",
    "duality_arrays",
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
    m00, m11, _, _ = rho._parts
    cos_xi = np.cos(xi)
    sin_xi = np.sin(xi)
    p = np.asarray((2.0 * cos_xi * sin_xi) * _phase_factor(rho._parts, phi))
    # In place: a second temporary of the broadcast shape costs more than the arithmetic.
    np.subtract(cos_xi * cos_xi * m00 + sin_xi * sin_xi * m11, p, out=p)
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
    grid_n = check_count(grid_n, "grid_n", 8, MAX_GRID_N)
    grid = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)  # the phases, and the splitter angles
    s = _phase_factor(rho._parts, grid)
    p = fringe_probability(rho, grid[[np.argmin(s), np.argmax(s)]], grid[:, None])
    p_max = p.max(axis=1)
    p_min = p.min(axis=1)
    amplitude = p_max - p_min
    k = int(np.argmax(amplitude))
    xi_hat = float(grid[k] % (math.pi / 2.0))
    if amplitude[k] <= 0.0:
        # No fringe at any splitter setting: zero contrast, angle meaningless.
        return 0.0, xi_hat
    v_hat = float((p_max[k] - p_min[k]) / (p_max[k] + p_min[k]))
    return v_hat, xi_hat


def family_arrays(w_plus, rho12, theta, varrho) -> tuple[np.ndarray, np.ndarray]:
    """Predictability and visibility ``(P_B, V_B)`` of the family member at phase ``varrho``, elementwise.

    The state is checked by :func:`duality_arrays`, and the phases ``theta`` and
    ``varrho`` broadcast with it; a non-finite phase, or two whose difference
    overflows, raises a :class:`ParameterError`.
    Four ints or floats give two Python floats from ``math``'s sin, cos and sqrt, with the bits of a stack's
    element from NumPy's: :func:`qudual.linalg._ops` picks the table.
    ``P_B = 2 rho12 |cos(theta - varrho)|`` is largest for the proper member
    ``varrho = theta`` and zero at the erasure phases ``varrho = theta +- pi/2``;
    ``V_B = sqrt(P**2 + 4 rho12**2 sin(theta - varrho)**2)``, so ``(P_B, V_B)``
    carries the squared sum of ``(P, V)`` for every ``varrho``.
    """
    p, v, _ = duality_arrays(w_plus, rho12)
    ops = _ops(p, theta, varrho)
    if ops is _FLOAT_OPS:  # a float subtraction never warns
        delta = check_scalar(check_scalar(theta, "theta") - check_scalar(varrho, "varrho"), "theta - varrho")
    else:
        with np.errstate(over="ignore"):  # an overflow is the infinity that the outer check rejects
            delta = check_array(check_array(theta, "theta") - check_array(varrho, "varrho"), "theta - varrho")
    r = 0.5 * v  # rho12 itself: v = 2 rho12 is exact
    s = ops.sin(delta)
    return v * abs(ops.cos(delta)), ops.sqrt(p * p + 4.0 * (r * r) * s * s)


def duality_arrays(w_plus, rho12) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The duality relation for stacked state parameters, elementwise.

    Returns ``(p, v, sum_sq)``, the predictability, the visibility and
    ``P**2 + V**2``, as float arrays of the broadcast shape, or as Python
    floats, with the bits of a stack's element, for two ints or floats, as
    :func:`qudual.linalg._ops` tells them apart. The first failing
    element raises. A population outside [0, 1] or a negative ``rho12``, NaN
    and infinities included, raises a :class:`ParameterError` that names the
    bound; an integer past the double range counts as an infinity. A state with
    ``P**2 + V**2 > 1`` beyond 1e-12 raises a :class:`ContractViolationError`: as
    ``P**2 + V**2 = 1 - 4 w+ w- + 4 rho12**2``, that is the positivity bound ``rho12**2 <= w+ w-``.
    """
    if _ops(w_plus, rho12) is _FLOAT_OPS:
        w, r = as_float(w_plus, "w_plus"), as_float(rho12, "rho12")
    else:
        w, r = np.broadcast_arrays(as_float_array(w_plus, "w_plus"), as_float_array(rho12, "rho12"))
    p = _imbalance(w)
    v = 2.0 * r
    sum_sq = p * p + v * v
    ok = (sum_sq <= 1.0 + 1e-12) & (r >= 0.0) & (w >= 0.0) & (w <= 1.0)  # NaN fails too
    if ok is not True and not np.all(ok):  # one valid state is a plain True
        i = np.argmin(ok)  # the first failing element
        w, r, sum_sq = (np.ravel(x)[i] for x in (w, r, sum_sq))
        check_scalar(w, "w_plus", 0.0, 1.0)
        check_scalar(r, "rho12", 0.0)
        raise ContractViolationError(f"P**2 + V**2 = {float(sum_sq)!r} exceeds 1 beyond tolerance")
    return p, v, sum_sq
