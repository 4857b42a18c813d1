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

Both sides come from one kernel, :func:`_robertson`: matrix algebra written
out on the entry parts of each Hermitian 2x2, the products ``A B +- B A`` and
``A^2`` entry by entry, then traces against the state, in ``+ - *`` alone, so
its bits do not depend on the BLAS kernel or the SIMD level of the host.
:func:`robertson`, :func:`mean_var` and :func:`is_residual` take a state and
observables checked where they were built, one of each or stacks that
broadcast, and return floats or arrays; each element of a stack has the bits
of its state alone. Stacks that do not broadcast raise a ParameterError that
names their shapes, before any arithmetic: a state's is that of its fields,
an observable's that of its off-diagonal part ``x``, which holds a family
member's phases. :func:`normalized_product_bounds` takes one population or
an array of them in the same way. :func:`intelligent_state` builds one state:
its family is a string, with a parameterization of its own. That the bound
holds is a check, and it lives in the ``robertson`` suite of
:mod:`qudual.verify`, not in the call.

Like every private kernel here, :func:`_eigen_residuals`, the eigen-equation
defect behind :func:`is_residual`, takes parts: the Hermitian parts of the
state and the pair, and the amplitude parts of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, check_scalar
from .linalg import _broadcastable, _hypot, _ops, _times, _traces, _two_product
from .states import DensityMatrix, Observable, pure_state

IS_FAMILIES = ("IS1", "IS2a", "IS2b")

# Largest |lam| of is_residual. With observable parts at most B = 2**250 (the outcome bound of an Observable) and
# |lam| <= L, every part of (A - <A>) + i lam (B - <B>) is below 5 B (1 + L), every part of the defect below
# 2**5 B (1 + L), and the sum of its four squares below 2**12 B**2 (1 + L)**2 <= 2**1014: the norm is finite.
_MAX_LAM = 2.0**250

__all__ = [
    "IS_FAMILIES",
    "mean_var",
    "RobertsonReport",
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


def _variance(mean, square):
    """Unclipped variance ``tr(rho O^2) - mean^2`` from the traces ``mean = tr(rho O)``, ``square = tr(rho {O, O})``."""
    return 0.5 * square - mean * mean


def mean_var(rho: DensityMatrix, obs: Observable) -> tuple[float, float]:
    """Mean and variance of an observable: :func:`_variance` of two traces on the parts of a state and an observable.

    Python floats for one state and observable, arrays for stacks. The
    variance is clipped to 0 where rounding drives it below zero.
    """
    _broadcastable(rho.w_plus, obs._parts[2])
    mean, square = _traces(rho._parts, obs._parts, _anticommutator(obs._parts, obs._parts))
    var = _variance(mean, square)
    return mean, _ops(var).maximum(var, 0.0)


@dataclass(frozen=True)
class RobertsonReport:
    """Both sides of the strengthened uncertainty bound for one state and pair, or for stacks.

    ``lhs = var_a * var_b`` and ``rhs = (c_mean**2 + f_mean**2) / 4``, where
    ``c_mean`` is the mean of ``-i [A, B]`` and ``f_mean`` the symmetrized
    covariance. ``slack`` is ``lhs - rhs``, of the same bits as ``lhs - rhs``
    here; it is nonnegative for every valid state, up to rounding, and
    vanishes on pure states. Neither :func:`robertson` nor the report enforces
    that: the ``robertson`` suite of :mod:`qudual.verify` checks it.
    ``mean_a`` and ``mean_b`` are the means that ``f_mean`` subtracts; with
    ``var_a`` and ``var_b`` they are the bits of :func:`mean_var` of each
    observable. A field is a float for one state and pair, and an array
    where an input is a stack.
    """

    var_a: float
    var_b: float
    c_mean: float
    f_mean: float
    slack: float
    mean_a: float
    mean_b: float

    @property
    def lhs(self) -> float:
        return self.var_a * self.var_b

    @property
    def rhs(self) -> float:
        return 0.25 * (self.c_mean * self.c_mean + self.f_mean * self.f_mean)


def _robertson(rho, a, b) -> tuple:
    """The seven fields of :class:`RobertsonReport` from the parts of a state and a pair: floats or arrays alike."""
    mean_a, square_a, mean_b, square_b, c_mean, f_mean = _traces(
        rho, a, _anticommutator(a, a), b, _anticommutator(b, b), _commutator(a, b), _anticommutator(a, b)
    )
    f_mean = f_mean - 2.0 * mean_a * mean_b
    maximum = _ops(mean_a, mean_b).maximum
    var_a, var_b = maximum(_variance(mean_a, square_a), 0.0), maximum(_variance(mean_b, square_b), 0.0)
    return var_a, var_b, c_mean, f_mean, var_a * var_b - 0.25 * (c_mean * c_mean + f_mean * f_mean), mean_a, mean_b


def robertson(rho: DensityMatrix, a_obs: Observable, b_obs: Observable) -> RobertsonReport:
    """Evaluate the strengthened uncertainty bound by explicit matrix algebra: :func:`_robertson` on the parts."""
    _broadcastable(rho.w_plus, a_obs._parts[2], b_obs._parts[2])
    return RobertsonReport(*_robertson(rho._parts, a_obs._parts, b_obs._parts))


def normalized_product_bounds(w_plus: float) -> tuple[float, float]:
    """Range of ``Var(A) Var(B) / ((a+ - a-)**2 (b+ - b-)**2)`` at fixed populations.

    Over all states with populations ``(w_plus, 1 - w_plus)`` and over all
    complementary family members, the normalized product lies between
    ``w+ w- (1 - 4 w+ w-) / 4`` (pure state, proper member, equal to
    ``P**2 V**2 / 16``) and ``w+ w- / 4`` (coherence invisible to the member,
    by erasure phase or by a fully dephased state).

    One population gives two floats; an array gives two arrays of its shape,
    each element with the bits of its population alone, and raises the
    :class:`ParameterError` of its first population outside [0, 1].
    """
    w = _ops(w_plus).check(w_plus, "w_plus", 0.0, 1.0)
    # The floor is (1 - 2 w)**2 k / 4 with k = w (1 - w), not k (1 - 4 k) / 4, whose 1 - 4 k cancels near w = 1/2.
    # Each factor carries its exact rounding errors (Dekker; Fast2Sum for 1 - w and 1 - 2 w, which are exact above
    # w = 1/2), so the floor is within 1 ulp; the plain product of the rounded factors was up to 3.6 ulps off.
    q, p = 1.0 - w, 1.0 - 2.0 * w
    k, k_err = _two_product(w, q)
    pp, pp_err = _two_product(p, p)
    k_err += w * ((1.0 - q) - w)
    pp_err += 2.0 * p * ((1.0 - p) - 2.0 * w)
    return (pp * k + (pp * k_err + pp_err * k)) / 4.0, k / 4.0


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

    ``rho``, ``a`` and ``b`` are Hermitian parts ``(a, d, x, y)``, ``psi``
    the amplitude parts ``((re, im), (re, im))`` of each state, from
    :func:`qudual.states._pure_parts`, and ``lam`` the parts ``(re, im)``:
    Python floats for one state, or arrays that broadcast for a stack. The
    defect is ``K psi`` with ``K = (A - <A>) + i lam (B - <B>)``, each entry of
    ``K`` and of the product formed in real parts as Python's complex
    arithmetic forms it, and the norm is
    ``sqrt((re0^2 + re1^2) + (im0^2 + im1^2))``. One state rounds as its
    element of a stack.
    """
    (a_a, a_d, a_x, a_y), (b_a, b_d, b_x, b_y) = a, b
    shift_a, shift_b = _traces(rho, a, b)
    lr, ni = lam[0], -lam[1]  # i lam = ni + i lr
    g0, h0 = a_a - shift_a, b_a - shift_b
    g1, h1 = a_d - shift_a, b_d - shift_b
    k = (
        ((g0 + ni * h0, lr * h0), (a_x + (ni * b_x - lr * b_y), a_y + (ni * b_y + lr * b_x))),
        ((a_x + (ni * b_x + lr * b_y), (lr * b_x - ni * b_y) - a_y), (g1 + ni * h1, lr * h1)),
    )
    v0, v1 = psi
    (re0, im0), (re1, im1) = ([p + q for p, q in zip(_times(k0, v0), _times(k1, v1))] for k0, k1 in k)
    return _ops(re0, re1, im0, im1).sqrt((re0 * re0 + re1 * re1) + (im0 * im0 + im1 * im1))


def _lam_parts(lam) -> tuple:
    """Parts ``(re, im)`` of a finite ``lam`` with ``|lam| <= 2**250``, or a :class:`ParameterError`.

    A complex number, or a real one read whole as the real part, gives Python floats; an array gives arrays. The
    parts must be finite, then within the bound: a stack raises the first of the two rules that any element breaks,
    at the first element that breaks it, as that element alone does. An integer past the double range is an infinity.
    """
    re, im = getattr(lam, "real", lam), getattr(lam, "imag", 0.0)
    ops = _ops(re, im)
    re, im = ops.real(re, "lam.real"), ops.real(im, "lam.imag")
    ops.require(ops.isfinite(re) & ops.isfinite(im), lambda: ParameterError(
        "lam must be finite; an infinite lam marks an eigenvector of the "
        "complementary observable, where the eigen-equation degenerates"
    ))
    size = _hypot(re, im)
    ops.require(size <= _MAX_LAM, lambda size: ParameterError(
        f"|lam| = {size!r} violates the bound |lam| <= {_MAX_LAM!r}: the defect norm could overflow"
    ), size)
    return re, im


def is_residual(state: DensityMatrix, lam: complex, a_obs: Observable, b_obs: Observable) -> float:
    """Euclidean norm of the eigen-equation defect for a pure state, or for each of a stack.

    Evaluates ``(A + i lam B) |psi> - (<A> + i lam <B>) |psi>`` and returns
    its norm. Zero (within round-off) exactly on intelligent states with
    their own ``lam``. ``lam`` must be finite, and ``|lam| <= 2**250`` keeps
    the norm finite for every pair of observables; an array of ``lam``
    broadcasts with a stacked state. Every state must be pure.
    """
    lam = _lam_parts(lam)
    _broadcastable(state.w_plus, lam[0], a_obs._parts[2], b_obs._parts[2])
    return _eigen_residuals(state._parts, state._vector_parts(), lam, a_obs._parts, b_obs._parts)
