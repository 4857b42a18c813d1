"""Variance-product uncertainty relations for two-outcome observables.

The strengthened lower bound kept here retains both the commutator and the
symmetrized covariance term::

    Var(A) Var(B) >= (<C>**2 + <F>**2) / 4,
    C = -i [A, B],   <F> = <AB + BA> - 2 <A> <B>

On a two-level system every pure state saturates it, so the interesting
structure is the families of pure states whose eigen-equation parameter
``lambda`` is purely real or purely imaginary. Those families trace the
boundary of the reachable region of the normalized uncertainty product at
fixed populations.

The explicit route to both sides is one kernel, :func:`robertson_arrays`. It
takes state and observable matrices stacked as ``(..., 2, 2)`` and returns
the five fields of a :class:`RobertsonReport` (``var_a``, ``var_b``,
``c_mean``, ``f_mean``, ``slack``) as arrays. It is matrix algebra written
out on the entry parts of each Hermitian 2x2: the products ``A B +- B A``
and ``A^2`` entry by entry, then traces against the state, in ``+ - *``
alone, so its bits do not depend on the BLAS kernel or the SIMD level of
the host. :func:`robertson` runs the same expression on the Python floats
of one state and pair and packs it into a report, with the bits of that
element of a stack. :func:`robertson_arrays` takes raw matrices and holds the
contract: each must be Hermitian with bounded entries, and any element with
``slack < -INEQUALITY_SLACK * max(1, (||A|| ||B||)**2)`` raises, a tolerance
that scales with the rounding noise of ``lhs - rhs``. :func:`robertson` and
:func:`mean_var` take a state and observables checked where they were built.

:func:`is_residual` checks the eigen-equation of an intelligent state with the
private kernel that the ``intelligent_states`` suite of :mod:`qudual.verify`
runs on a stack. Like every private kernel here, it takes parts: the Hermitian
parts of the state and the pair, and the amplitude parts of the state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError, as_float, check_scalar
from .linalg import _eigenvalues, _hermitian, _ops, _parts, _times, _trace
from .states import _MAX_OUTCOME_VALUE, DensityMatrix, Observable, pure_state

INEQUALITY_SLACK = 1e-12

IS_FAMILIES = ("IS1", "IS2a", "IS2b")

# Largest |lam| of is_residual. With observable parts at most B = 2**250 (the outcome bound of an Observable) and
# |lam| <= L, every part of (A - <A>) + i lam (B - <B>) is below 5 B (1 + L), every part of the defect below
# 2**5 B (1 + L), and the sum of its four squares below 2**12 B**2 (1 + L)**2 <= 2**1014: the norm is finite.
_MAX_LAM = 2.0**250

__all__ = [
    "IS_FAMILIES",
    "mean_var",
    "RobertsonReport",
    "robertson_arrays",
    "robertson",
    "normalized_product_bounds",
    "IntelligentState",
    "intelligent_state",
    "is_residual",
]


def _anticommutator(h, k):
    """Parts of ``h k + k h`` for Hermitian parts ``h`` and ``k``, entry by entry."""
    a1, d1, x1, y1 = h
    a2, d2, x2, y2 = k
    t = x1 * x2 + y1 * y2  # Re(b_h conj(b_k)), in the diagonal of both h k and k h
    return 2.0 * (a1 * a2 + t), 2.0 * (d1 * d2 + t), (a1 + d1) * x2 + (a2 + d2) * x1, (a1 + d1) * y2 + (a2 + d2) * y1


def _commutator(h, k):
    """Parts of the Hermitian ``-i (h k - k h)`` for Hermitian parts ``h`` and ``k``, entry by entry."""
    a1, d1, x1, y1 = h
    a2, d2, x2, y2 = k
    s = y1 * x2 - x1 * y2  # Im(b_h conj(b_k)): h k - k h has 2 i s and -2 i s on its diagonal
    g1, g2 = a1 - d1, a2 - d2  # its upper entry is g1 b_k - g2 b_h
    return 2.0 * s, -2.0 * s, g1 * y2 - g2 * y1, g2 * x1 - g1 * x2


def _moments(rho, op) -> tuple:
    """Mean ``tr(rho O)`` and unclipped variance ``tr(rho O^2) - mean^2`` of parts, with ``O^2 = {O, O} / 2``."""
    mean = _trace(rho, op)
    return mean, 0.5 * _trace(rho, _anticommutator(op, op)) - mean * mean


def mean_var(rho: DensityMatrix, obs: Observable) -> tuple[float, float]:
    """Mean and variance of an observable: :func:`_moments` on the parts of one state and observable, in Python floats.

    The variance is clipped to 0 where rounding drives it below zero.
    """
    mean, var = _moments(rho._parts, obs._parts)
    return mean, max(var, 0.0)


@dataclass(frozen=True)
class RobertsonReport:
    """Both sides of the strengthened uncertainty bound for one state and pair.

    ``lhs = var_a * var_b`` and ``rhs = (c_mean**2 + f_mean**2) / 4``, where
    ``c_mean`` is the mean of ``-i [A, B]`` and ``f_mean`` the symmetrized
    covariance. ``slack`` is :func:`robertson_arrays`' ``lhs - rhs``, of the
    same bits as ``lhs - rhs`` here; it is nonnegative for every valid state,
    up to rounding, and vanishes on pure states. :func:`robertson_arrays`
    enforces that on raw matrices; :func:`robertson` and the report do not.
    """

    var_a: float
    var_b: float
    c_mean: float
    f_mean: float
    slack: float

    @property
    def lhs(self) -> float:
        return self.var_a * self.var_b

    @property
    def rhs(self) -> float:
        return 0.25 * (self.c_mean * self.c_mean + self.f_mean * self.f_mean)


def _robertson(rho, a, b) -> tuple:
    """The five fields of :class:`RobertsonReport` from the parts of a state and a pair: floats or arrays alike."""
    mean_a, var_a = _moments(rho, a)
    mean_b, var_b = _moments(rho, b)
    c_mean = _trace(rho, _commutator(a, b))
    f_mean = _trace(rho, _anticommutator(a, b)) - 2.0 * mean_a * mean_b
    maximum = _ops(var_a, var_b).maximum
    var_a, var_b = maximum(var_a, 0.0), maximum(var_b, 0.0)
    return var_a, var_b, c_mean, f_mean, var_a * var_b - 0.25 * (c_mean * c_mean + f_mean * f_mean)


def robertson_arrays(
    rho_m: np.ndarray, a_m: np.ndarray, b_m: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the strengthened bound for stacked states and pairs, by explicit matrix algebra.

    ``rho_m``, ``a_m`` and ``b_m`` are state and observable matrices of shape
    ``(..., 2, 2)`` that broadcast together. Returns ``(var_a, var_b, c_mean,
    f_mean, slack)``, the fields of :class:`RobertsonReport`, as float arrays
    of the broadcast stack shape. Each element has the bits of
    :func:`robertson` on that one state and pair, and ``slack`` rounds as the
    report's ``lhs - rhs``. Every matrix must pass :func:`~qudual.linalg.assert_hermitian`
    with entry parts at most 2 for a state and ``2**251`` for an observable,
    within which every field is finite, and the first element with
    ``slack < -INEQUALITY_SLACK * max(1, (||A|| ||B||)**2)`` raises, where
    ``||A||`` is the largest eigenvalue magnitude of ``A``: the rounding noise
    of ``slack`` scales as that square at any outcome scale, and the tolerance
    is 1e-12 wherever ``||A|| ||B|| <= 1``. Each failure is a
    :class:`ContractViolationError` that names the argument and the bound.
    """
    # An Observable's matrix parts are at most P = 2 * 2**250, and a density matrix's at most 1, so 2 leaves room for
    # rounding. With state parts at most 2, a mean is below 12 P and the trace of a product of two observables below
    # 2**6 P**2, so var_a var_b, c_mean**2 and f_mean**2 are each below 2**1022 and every field is finite.
    bound = 2.0 * _MAX_OUTCOME_VALUE
    checked = _hermitian(rho_m, "rho_m", 2.0), _hermitian(a_m, "a_m", bound), _hermitian(b_m, "b_m", bound)
    rho, a, b = map(_parts, checked)
    fields = np.broadcast_arrays(*_robertson(rho, a, b))
    slack = fields[4]
    # The rounding noise of lhs - rhs grows as (||A|| ||B||)**2, the largest outcome magnitudes squared, and stays
    # below 1e-15 of it at every scale; lhs + rhs is no measure of it, as near-equal outcome values make that tiny.
    (a1, a2), (b1, b2) = _eigenvalues(*a), _eigenvalues(*b)
    norms = np.maximum(abs(a1), abs(a2)) * np.maximum(abs(b1), abs(b2))
    bad = np.flatnonzero(slack < -INEQUALITY_SLACK * np.maximum(1.0, norms * norms))
    if bad.size:
        raise ContractViolationError(
            f"uncertainty bound violated: lhs - rhs = {float(slack.flat[bad[0]])!r}; "
            "this indicates corrupted operator or state input"
        )
    return tuple(fields)


def robertson(rho: DensityMatrix, a_obs: Observable, b_obs: Observable) -> RobertsonReport:
    """Evaluate the strengthened uncertainty bound by explicit matrix algebra.

    The expression of :func:`robertson_arrays`, evaluated on the parts of the state and the pair, Python floats.
    """
    return RobertsonReport(*_robertson(rho._parts, a_obs._parts, b_obs._parts))


def normalized_product_bounds(w_plus: float) -> tuple[float, float]:
    """Range of ``Var(A) Var(B) / ((a+ - a-)**2 (b+ - b-)**2)`` at fixed populations.

    Over all states with populations ``(w_plus, 1 - w_plus)`` and over all
    complementary family members, the normalized product lies between
    ``w+ w- (1 - 4 w+ w-) / 4`` (pure state, proper member, equal to
    ``P**2 V**2 / 16``) and ``w+ w- / 4`` (coherence invisible to the member,
    by erasure phase or by a fully dephased state).
    """
    w = check_scalar(w_plus, "w_plus", 0.0, 1.0)
    k = w * (1.0 - w)
    return k * (1.0 - 4.0 * k) / 4.0, k / 4.0


@dataclass(frozen=True)
class IntelligentState:
    """A pure state solving ``(A + i lambda B) |psi> = (<A> + i lambda <B>) |psi>``.

    ``lam`` satisfies ``|lam|**2 = Var(A) / Var(B)``; it is purely imaginary
    for the IS1 family and purely real for IS2a and IS2b. At the family
    boundaries where the state becomes an eigenvector of the complementary
    observable (IS1 at ``w_plus = 1/2``, IS2a at ``beta = 0``) the variance
    ratio diverges and ``lam`` is returned with infinite magnitude.
    """

    state: DensityMatrix
    lam: complex


def intelligent_state(family: str, param: float, varrho: float, branch: int = 1) -> IntelligentState:
    """Construct a member of one of the three intelligent-state families.

    ``A`` is :data:`qudual.states.REFERENCE` and ``B`` its family
    member at ``varrho``; both have outcomes ``+-GAUGE``, so ``lam`` carries
    no ratio of outcome spreads. ``family`` selects the parameterization:

    - ``"IS1"``: ``param = w_plus`` in [0, 1]; amplitudes
      ``sqrt(w+) |plus> +- exp(i varrho) sqrt(w-) |minus>``; imaginary ``lam``.
      These run along the lower boundary of the normalized product.
    - ``"IS2a"``: ``param = beta`` in [0, pi/2]; equal populations with phase
      ``varrho + branch * beta``; real ``lam = branch / sin beta``.
    - ``"IS2b"``: ``param = w_plus`` in [0, 1]; amplitudes
      ``sqrt(w+) |plus> +- i exp(i varrho) sqrt(w-) |minus>``; real
      ``lam = branch * 2 sqrt(w+ w-)``. These run along the upper
      boundary of the normalized product.

    ``branch`` (+1 or -1) picks the sign branch of the family.
    """
    if family not in IS_FAMILIES:
        raise ParameterError(f"family must be one of {IS_FAMILIES}, got {family!r}")
    if branch not in (1, -1):
        raise ParameterError(f"branch must be +1 or -1, got {branch!r}")
    varrho = check_scalar(varrho, "varrho")

    if family == "IS2a":
        beta = check_scalar(param, "beta", 0.0, math.pi / 2.0, slack=1e-15)
        state = pure_state(0.5, varrho + branch * beta)
        if beta == 0.0:
            lam = complex(branch * math.inf, 0.0)
        else:
            lam = complex(branch / math.sin(beta), 0.0)
        return IntelligentState(state, lam)

    w = check_scalar(param, "w_plus", 0.0, 1.0)
    root = math.sqrt(w * (1.0 - w))
    if family == "IS1":
        state = pure_state(w, varrho if branch == 1 else varrho + math.pi)
        if w == 0.5:
            # Eigenvector of the complementary member: Var(B) = 0 and the
            # eigen-equation only holds in the infinite-lam limit. The sign
            # flips across w_plus = 1/2 so only the magnitude is meaningful.
            lam = complex(0.0, math.inf)
        else:
            lam = complex(0.0, -branch * 2.0 * root / (2.0 * w - 1.0))
        return IntelligentState(state, lam)

    state = pure_state(w, varrho + branch * math.pi / 2.0)
    lam = complex(branch * 2.0 * root, 0.0)
    return IntelligentState(state, lam)


def _eigen_residuals(rho, psi, lam, a, b):
    """Norms of ``(A + i lam B) psi - (<A> + i lam <B>) psi`` for pure states and finite ``lam``, on parts.

    ``rho``, ``a`` and ``b`` are Hermitian parts ``(a, d, x, y)`` and ``psi``
    the amplitude parts ``((re, im), (re, im))`` of each state, from
    :func:`qudual.states._pure_parts`: Python floats for one state, or arrays
    that broadcast with ``lam`` for a stack. The defect is ``K psi`` with
    ``K = (A - <A>) + i lam (B - <B>)``, each entry of ``K`` and of the
    product formed in real parts as Python's complex arithmetic forms it,
    and the norm is ``sqrt((re0^2 + re1^2) + (im0^2 + im1^2))``. One state
    (:func:`is_residual`) rounds as its element of a stack.
    """
    (a_a, a_d, a_x, a_y), (b_a, b_d, b_x, b_y) = a, b
    shift_a, shift_b = _trace(rho, a), _trace(rho, b)
    lr, ni = lam.real, -lam.imag  # i lam = ni + i lr
    g0, h0 = a_a - shift_a, b_a - shift_b
    g1, h1 = a_d - shift_a, b_d - shift_b
    k = (
        ((g0 + ni * h0, lr * h0), (a_x + (ni * b_x - lr * b_y), a_y + (ni * b_y + lr * b_x))),
        ((a_x + (ni * b_x + lr * b_y), (lr * b_x - ni * b_y) - a_y), (g1 + ni * h1, lr * h1)),
    )
    v0, v1 = psi
    (re0, im0), (re1, im1) = ([p + q for p, q in zip(_times(k0, v0), _times(k1, v1))] for k0, k1 in k)
    return _ops(re0, re1, im0, im1).sqrt((re0 * re0 + re1 * re1) + (im0 * im0 + im1 * im1))


def is_residual(state: DensityMatrix, lam: complex, a_obs: Observable, b_obs: Observable) -> float:
    """Euclidean norm of the eigen-equation defect for a pure state.

    Evaluates ``(A + i lam B) |psi> - (<A> + i lam <B>) |psi>`` and returns
    its norm. Zero (within round-off) exactly on intelligent states with
    their own ``lam``. ``lam`` must be finite, and ``|lam| <= 2**250`` keeps
    the norm finite for every pair of observables.
    """
    # an integer past the double range is an infinity; a value with no parts is read whole as the real part
    lam = complex(as_float(getattr(lam, "real", lam), "lam.real"), as_float(getattr(lam, "imag", 0.0), "lam.imag"))
    if not cmath.isfinite(lam):
        raise ParameterError(
            "lam must be finite; an infinite lam marks an eigenvector of the "
            "complementary observable, where the eigen-equation degenerates"
        )
    if abs(lam) > _MAX_LAM:
        raise ParameterError(
            f"|lam| = {abs(lam)!r} violates the bound |lam| <= {_MAX_LAM!r}: the defect norm could overflow"
        )
    return _eigen_residuals(state._parts, state._vector_parts(), lam, a_obs._parts, b_obs._parts)
