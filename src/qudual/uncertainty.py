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

The explicit route to both sides is one array kernel,
:func:`robertson_arrays`. It takes state and observable matrices stacked as
``(..., 2, 2)`` and returns the four fields of a :class:`RobertsonReport`
(``var_a``, ``var_b``, ``c_mean``, ``f_mean``, ``slack``) as arrays, from
batched products and traces. :func:`robertson` is that kernel on one state
and pair, packed into a report. The kernel holds the contract: any element
with ``slack < -INEQUALITY_SLACK`` raises.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError, as_float, check_scalar
from .states import DensityMatrix, Observable, pure_state

INEQUALITY_SLACK = 1e-12

IS_FAMILIES = ("IS1", "IS2a", "IS2b")

__all__ = [
    "INEQUALITY_SLACK",
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


def _mean(rho_m: np.ndarray, op_m: np.ndarray) -> np.ndarray:
    """``Re tr(rho op)`` of stacked ``(..., 2, 2)`` matrices: ``np.trace``'s sum, without its overhead."""
    m = rho_m @ op_m
    return (m[..., 0, 0] + m[..., 1, 1]).real


def _moments(rho_m: np.ndarray, op_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unclipped variance of stacked observables; the mean is squared through C ``pow``."""
    mean = _mean(rho_m, op_m)
    return mean, _mean(rho_m, op_m @ op_m) - np.float_power(mean, 2)


def mean_var(rho: DensityMatrix, obs: Observable) -> tuple[float, float]:
    """Mean and variance of an observable: :func:`_moments` on one state.

    The variance is clipped to 0 when rounding drives it within 1e-12 below
    zero; a larger negative value raises, since it signals corrupted inputs.
    """
    mean, var = (float(x) for x in _moments(rho.matrix, obs.matrix))
    if var < -INEQUALITY_SLACK:
        raise ContractViolationError(f"variance evaluated to {var!r} < 0 beyond tolerance")
    return mean, max(var, 0.0)


@dataclass(frozen=True)
class RobertsonReport:
    """Both sides of the strengthened uncertainty bound for one state and pair.

    ``lhs = var_a * var_b`` and ``rhs = (c_mean**2 + f_mean**2) / 4``, where
    ``c_mean`` is the mean of ``-i [A, B]`` and ``f_mean`` the symmetrized
    covariance. ``slack`` is :func:`robertson_arrays`' ``lhs - rhs``, of the
    same bits as ``lhs - rhs`` here; it is nonnegative for every valid state
    and vanishes on pure states. :func:`robertson_arrays` enforces that, the
    report itself does not.
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
        return 0.25 * (self.c_mean ** 2 + self.f_mean ** 2)


def robertson_arrays(
    rho_m: np.ndarray, a_m: np.ndarray, b_m: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the strengthened bound for stacked states and pairs, by explicit matrix algebra.

    ``rho_m``, ``a_m`` and ``b_m`` are state and observable matrices of shape
    ``(..., 2, 2)`` that broadcast together. Returns ``(var_a, var_b, c_mean,
    f_mean, slack)``, the fields of :class:`RobertsonReport`, as float arrays
    of the broadcast stack shape. ``slack`` is ``lhs - rhs``; ``np.float_power``
    squares through C ``pow``, as Python's ``x ** 2`` in
    :attr:`RobertsonReport.rhs` does, so it rounds as ``lhs - rhs``. The first
    element with ``slack < -INEQUALITY_SLACK`` raises a
    :class:`ContractViolationError`.
    """
    mean_a, var_a = _moments(rho_m, a_m)
    mean_b, var_b = _moments(rho_m, b_m)
    ab = a_m @ b_m
    ba = b_m @ a_m
    c_mean = _mean(rho_m, -1j * (ab - ba))
    f_mean = _mean(rho_m, ab + ba) - 2.0 * mean_a * mean_b
    var_a, var_b, c_mean, f_mean = np.broadcast_arrays(np.maximum(var_a, 0.0), np.maximum(var_b, 0.0), c_mean, f_mean)
    slack = var_a * var_b - 0.25 * (np.float_power(c_mean, 2) + np.float_power(f_mean, 2))
    bad = np.flatnonzero(slack < -INEQUALITY_SLACK)
    if bad.size:
        raise ContractViolationError(
            f"uncertainty bound violated: lhs - rhs = {float(slack.flat[bad[0]])!r}; "
            "this indicates corrupted operator or state input"
        )
    return var_a, var_b, c_mean, f_mean, slack


def robertson(rho: DensityMatrix, a_obs: Observable, b_obs: Observable) -> RobertsonReport:
    """Evaluate the strengthened uncertainty bound by explicit matrix algebra.

    :func:`robertson_arrays` on one state and pair.
    """
    return RobertsonReport(*(float(x) for x in robertson_arrays(rho.matrix, a_obs.matrix, b_obs.matrix)))


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
        beta = as_float(param)
        if math.isnan(beta) or beta < 0.0 or beta > math.pi / 2.0 + 1e-15:
            raise ParameterError(f"beta = {beta!r} violates the bound 0 <= beta <= pi/2")
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


def _eigen_residuals(rho_m: np.ndarray, psi: np.ndarray, lam, a_m: np.ndarray, b_m: np.ndarray) -> np.ndarray:
    """Norms of ``(A + i lam B) psi - (<A> + i lam <B>) psi`` for stacked pure states and finite ``lam``.

    ``rho_m`` ``(..., 2, 2)`` and ``psi`` ``(..., 2)`` are each state's
    matrix and amplitudes, ``lam`` has the stack shape, and ``a_m``, ``b_m``
    broadcast with ``rho_m``. A squared norm is the dot product of the real
    parts plus that of the imaginary parts, each a row times a column, which
    NumPy computes with the BLAS dot that ``np.linalg.norm`` uses on one
    vector; so every norm rounds as ``np.linalg.norm`` of that state's
    defect, whether the state comes alone (:func:`is_residual`) or in a stack.
    """
    i_lam = 1j * np.asarray(lam, dtype=complex)
    shift = _mean(rho_m, a_m) + i_lam * _mean(rho_m, b_m)
    defect = ((a_m + i_lam[..., None, None] * b_m) @ psi[..., None])[..., 0] - shift[..., None] * psi
    re = defect.real[..., None, :]
    im = defect.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def is_residual(state: DensityMatrix, lam: complex, a_obs: Observable, b_obs: Observable) -> float:
    """Euclidean norm of the eigen-equation defect for a pure state.

    Evaluates ``(A + i lam B) |psi> - (<A> + i lam <B>) |psi>`` and returns
    its norm. Zero (within round-off) exactly on intelligent states with
    their own ``lam``.
    """
    if not cmath.isfinite(complex(lam)):
        raise ParameterError(
            "lam must be finite; an infinite lam marks an eigenvector of the "
            "complementary observable, where the eigen-equation degenerates"
        )
    return float(_eigen_residuals(state.matrix, state.state_vector(), complex(lam), a_obs.matrix, b_obs.matrix))
