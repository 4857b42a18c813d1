"""States and observables of a two-level system.

The state space is parameterized the way interferometer experiments report
it: populations ``w_plus`` and ``w_minus = 1 - w_plus`` of a reference basis
``|plus>, |minus>``, a coherence magnitude ``rho12`` bounded by
``sqrt(w_plus * w_minus)``, and a coherence phase ``theta``. Observables are
two-outcome and carry their eigenbasis explicitly, which makes the
complementary family (equal-weight superpositions of the reference basis at
a relative phase ``varrho``) a first-class construction. Family members
carry the outcome values ``+-GAUGE`` of the symmetric reference
:data:`REFERENCE`, and every other two-outcome gauge is an affine
relabelling of those.

A state or observable computes its matrix once and returns it read-only.
:func:`validate_density`, :func:`density_matrix` and
:func:`complementary_matrices` are the same rules and constructions applied
elementwise to stacked parameters, for checks that sweep many states at once.
:func:`density_params` reads the parameters off one matrix or a stack.

Index 0 is ``|plus>`` and index 1 is ``|minus>`` everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, ParameterError, as_float, as_float_array, check_array, check_scalar
from .linalg import assert_hermitian, assert_unitary

TWO_PI = 2.0 * math.pi

# Outcome magnitude of the symmetric reference observable: outcomes +-1/2, a
# spin component in units where hbar = 1. The readouts of
# :mod:`qudual.simultaneous` rescale these same values.
GAUGE = 0.5

# Absolute slack accepted on the positivity bound rho12 <= sqrt(w+ w-) and on
# range checks of probabilities; a value inside the slack is clamped onto its
# range.
POSITIVITY_TOL = 1e-12

# Rounding allowances: how far below 1 the purity of a pure state, and how far
# from 1 the trace of a density matrix, may fall.
PURITY_TOL = 1e-12
TRACE_TOL = 1e-10

__all__ = [
    "GAUGE",
    "POSITIVITY_TOL",
    "DensityMatrix",
    "validate_density",
    "density_params",
    "purity",
    "density_matrix",
    "Observable",
    "pure_state",
    "REFERENCE",
    "complementary_observable",
    "complementary_matrices",
    "complementary_triplet",
]


@dataclass(frozen=True)
class DensityMatrix:
    """Two-level density matrix in the ``(w_plus, rho12, theta)`` parameterization.

    The matrix it represents is::

        [[w_plus,                rho12 * exp(-i theta)],
         [rho12 * exp(i theta),  1 - w_plus           ]]

    ``theta`` is stored wrapped to [0, 2 pi) and canonicalized to 0 when
    ``rho12 = 0``, where the coherence phase carries no information.
    """

    w_plus: float
    rho12: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        w = check_scalar(self.w_plus, "w_plus", 0.0, 1.0, slack=POSITIVITY_TOL)
        r = as_float(self.rho12)
        bound = math.sqrt(w * (1.0 - w))
        if math.isnan(r) or r < -POSITIVITY_TOL or r > bound + POSITIVITY_TOL:
            raise ParameterError(
                f"rho12 = {r!r} violates the positivity bound "
                f"0 <= rho12 <= sqrt(w_plus * w_minus) = {bound!r}"
            )
        r = min(max(r, 0.0), bound)
        t = check_scalar(self.theta, "theta")
        object.__setattr__(self, "w_plus", w)
        object.__setattr__(self, "rho12", r)
        object.__setattr__(self, "theta", t % TWO_PI if r > 0.0 else 0.0)

    @property
    def w_minus(self) -> float:
        return 1.0 - self.w_plus

    @property
    def purity(self) -> float:
        """Trace of the squared matrix, in [1/2, 1]."""
        return float(purity(self.w_plus, self.rho12))

    def is_pure(self) -> bool:
        return self.purity >= 1.0 - PURITY_TOL

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 2x2 matrix, computed on first access; read-only."""
        m = density_matrix(self.w_plus, self.rho12, self.theta)
        m.setflags(write=False)
        return m

    def state_vector(self) -> np.ndarray:
        """Amplitudes ``(sqrt(w_plus), exp(i theta) sqrt(w_minus))`` of a pure state."""
        if not self.is_pure():
            raise ParameterError(
                f"state_vector requires a pure state: purity = {self.purity!r} < 1 - {PURITY_TOL:.1e}"
            )
        return _pure_amplitudes(self.w_plus, self.theta)


def validate_density(w_plus, rho12, theta=0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check and store stacked state parameters by the rules of :class:`DensityMatrix`.

    The arguments broadcast together. Returns float arrays
    ``(w_plus, rho12, theta)`` holding, element by element, the fields that
    ``DensityMatrix`` stores; an element it would reject raises the same
    :class:`ParameterError`.
    """
    w = check_array(w_plus, "w_plus", 0.0, 1.0, slack=POSITIVITY_TOL)
    w, r, t = np.broadcast_arrays(w, as_float_array(rho12), check_array(theta, "theta"))
    bound = np.sqrt(w * (1.0 - w))
    bad = np.isnan(r) | (r < -POSITIVITY_TOL) | (r > bound + POSITIVITY_TOL)
    if bad.any():
        i = np.argmax(bad)
        DensityMatrix(w.flat[i], r.flat[i])  # raises the positivity bound's error
    r = np.clip(r, 0.0, bound)
    return w, r, np.where(r > 0.0, np.remainder(t, TWO_PI), 0.0)


def density_params(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameters ``(w_plus, rho12, theta)`` read off explicit density matrices ``(..., 2, 2)``.

    Every matrix must be Hermitian within :data:`qudual.linalg.HERMITICITY_TOL`
    and have unit trace within :data:`TRACE_TOL`, or a
    :class:`ContractViolationError` names the first failure. Returns the
    populations and the magnitude and wrapped phase of the lower off-diagonal
    entry, as float arrays; their range checks are :class:`DensityMatrix`'s,
    or :func:`validate_density`'s for a stack.
    """
    m = assert_hermitian(m, name="density matrix")
    if m.shape[-2:] != (2, 2):
        raise ContractViolationError(f"density matrix must be 2x2, got {m.shape}")
    tr = m[..., 0, 0].real + m[..., 1, 1].real
    bad = ~(np.abs(tr - 1.0) <= TRACE_TOL)  # NaN fails too
    if bad.any():
        raise ContractViolationError(
            f"density matrix trace = {float(tr[bad].flat[0])!r} differs from 1 beyond {TRACE_TOL:.1e}"
        )
    off = m[..., 1, 0]
    # np.hypot of the parts rounds as the scalar abs does; NumPy's complex abs on arrays does not.
    r = np.hypot(off.real, off.imag)
    return m[..., 0, 0].real, r, np.where(r > 0.0, np.remainder(np.angle(off), TWO_PI), 0.0)


def purity(w_plus, rho12):
    """Purity ``1 - 2 w+ w- + 2 rho12**2`` of valid state parameters, elementwise.

    ``np.float_power`` squares through C ``pow``, as Python's ``x ** 2`` does,
    so a stack and :attr:`DensityMatrix.purity` round alike.
    """
    return 1.0 - 2.0 * w_plus * (1.0 - w_plus) + 2.0 * np.float_power(rho12, 2)


def _pure_amplitudes(w_plus, theta) -> np.ndarray:
    """Amplitudes ``(..., 2)`` of the pure states with populations ``w_plus`` and phases ``theta``, elementwise.

    :meth:`DensityMatrix.state_vector` is this function on one state; it
    checks purity first, this function does not.
    """
    return np.stack([np.sqrt(w_plus) + 0j, np.exp(1j * np.asarray(theta)) * np.sqrt(1.0 - w_plus)], axis=-1)


def density_matrix(w_plus, rho12, theta) -> np.ndarray:
    """Matrices ``(..., 2, 2)`` of valid state parameters, elementwise.

    :attr:`DensityMatrix.matrix` is this function on one state; check stacked
    parameters with :func:`validate_density` first.
    """
    off = rho12 * np.exp(-1j * np.asarray(theta))
    m = np.empty(np.shape(off) + (2, 2), dtype=complex)
    m[..., 0, 0] = w_plus
    m[..., 0, 1] = off
    m[..., 1, 0] = np.conj(off)
    m[..., 1, 1] = 1.0 - w_plus
    return m


def pure_state(w_plus: float, theta: float = 0.0) -> DensityMatrix:
    """The pure state with populations ``(w_plus, 1 - w_plus)`` and phase ``theta``."""
    w = check_scalar(w_plus, "w_plus", 0.0, 1.0, slack=POSITIVITY_TOL)
    return DensityMatrix(w, math.sqrt(w * (1.0 - w)), theta)


@dataclass(frozen=True, eq=False)
class Observable:
    """Two-outcome observable with an explicit eigenbasis.

    ``basis`` holds the orthonormal eigenvectors as columns, defaulting to the
    reference basis. ``val_plus`` belongs to the first column, ``val_minus``
    to the second, and the two outcome values must be distinct.
    """

    val_plus: float
    val_minus: float
    basis: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))

    def __post_init__(self) -> None:
        val_plus = check_scalar(self.val_plus, "val_plus")
        val_minus = check_scalar(self.val_minus, "val_minus")
        if val_plus == val_minus:
            raise ParameterError(
                f"outcome values must be distinct, got val_plus = val_minus = {self.val_plus!r}"
            )
        basis = assert_unitary(self.basis, name="eigenbasis")
        if basis.shape != (2, 2):
            raise ContractViolationError(f"eigenbasis must be 2x2, got {basis.shape}")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "val_plus", val_plus)
        object.__setattr__(self, "val_minus", val_minus)
        object.__setattr__(self, "basis", basis)

    @property
    def vec_plus(self) -> np.ndarray:
        return self.basis[:, 0]

    @property
    def vec_minus(self) -> np.ndarray:
        return self.basis[:, 1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """``basis @ diag(values) @ basis^dagger``, computed on first access; read-only."""
        m = _spectral_matrix(self.basis, self.val_plus, self.val_minus)
        m.setflags(write=False)
        return m


def _spectral_matrix(basis: np.ndarray, val_plus: float, val_minus: float) -> np.ndarray:
    """``basis @ diag(val_plus, val_minus) @ basis^dagger`` for a basis or a stack of bases."""
    return basis @ np.diag([val_plus, val_minus]) @ basis.conj().swapaxes(-1, -2)


# Reference-basis observable with outcomes +GAUGE and -GAUGE, built and
# checked once: it is frozen and its basis and matrix are read-only, so every
# caller shares this instance.
REFERENCE = Observable(GAUGE, -GAUGE)


def _member_basis(varrho) -> np.ndarray:
    """Eigenbases ``(..., 2, 2)`` of the family members at wrapped phases ``varrho``.

    Column 0 is ``|b+>`` and column 1 is ``|b->``.
    """
    phase = np.exp(1j * np.asarray(varrho))[..., None]
    a_plus = REFERENCE.vec_plus
    a_minus = REFERENCE.vec_minus
    return np.stack([a_plus + phase * a_minus, a_plus - phase * a_minus], axis=-1) / math.sqrt(2.0)


def complementary_observable(varrho: float) -> Observable:
    """The family member complementary to :data:`REFERENCE` at relative phase ``varrho``.

    With the reference eigenvectors ``|a+>, |a->``, the member at phase
    ``varrho`` (wrapped to [0, 2 pi)) has eigenvectors::

        |b+-> = (|a+> +- exp(i varrho) |a->) / sqrt(2)

    and the outcome values ``+-GAUGE`` of the reference. Every member is
    mutually unbiased with respect to the reference basis.
    """
    varrho = check_scalar(varrho, "varrho") % TWO_PI
    return Observable(REFERENCE.val_plus, REFERENCE.val_minus, _member_basis(varrho))


def complementary_matrices(varrho) -> np.ndarray:
    """Matrices ``(..., 2, 2)`` of the family members at phases ``varrho``, elementwise.

    The stacked form of ``complementary_observable(varrho).matrix``: each
    phase is checked and wrapped as that function does, and each member is
    built from its eigenbasis and the outcome values of :data:`REFERENCE`.
    That basis is unitary by construction from the checked reference basis,
    so it is not checked again.
    """
    varrho = np.remainder(check_array(varrho, "varrho"), TWO_PI)
    return _spectral_matrix(_member_basis(varrho), REFERENCE.val_plus, REFERENCE.val_minus)


def complementary_triplet(varrho: float, handedness: int = 1) -> tuple[Observable, Observable, Observable]:
    """:data:`REFERENCE` plus two complementary partners a quarter turn apart.

    Returns ``(A, B(varrho), B(varrho + handedness * pi/2))`` with
    ``A = REFERENCE``. With the ``+-GAUGE`` outcomes the triplet closes the
    angular momentum algebra
    ``[T2, T3] = i T1, [T3, T1] = i T2, [T1, T2] = i T3`` for ``handedness = +1``,
    and ``handedness = -1`` flips the sign of the cyclic commutator.
    """
    if handedness not in (1, -1):
        raise ParameterError(f"handedness must be +1 or -1, got {handedness!r}")
    first = complementary_observable(varrho)
    second = complementary_observable(varrho + handedness * math.pi / 2.0)
    return REFERENCE, first, second
