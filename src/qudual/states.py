"""States and observables of a two-level system.

The state space is parameterized the way interferometer experiments report
it: populations ``w_plus`` and ``w_minus = 1 - w_plus`` of a reference basis
``|plus>, |minus>``, a coherence magnitude ``rho12`` bounded by
``sqrt(w_plus * w_minus)``, and a coherence phase ``theta``. Observables are
two-outcome and carry their eigenbasis explicitly, which makes the
complementary family (equal-weight superpositions of the reference basis at
a relative phase ``varrho``) a first-class construction.

A state or observable computes its matrix once and returns it read-only.
:func:`validate_density`, :func:`density_matrix` and
:func:`complementary_matrices` are the same rules and constructions applied
elementwise to stacked parameters, for checks that sweep many states at once.

Index 0 is ``|plus>`` and index 1 is ``|minus>`` everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, ParameterError, check_array, check_scalar
from .linalg import assert_hermitian, assert_unitary

TWO_PI = 2.0 * math.pi

# Absolute slack accepted on the positivity bound rho12 <= sqrt(w+ w-) and on
# range checks of probabilities; values inside the slack are kept as given.
POSITIVITY_TOL = 1e-12

__all__ = [
    "POSITIVITY_TOL",
    "DensityMatrix",
    "validate_density",
    "purity",
    "density_matrix",
    "Observable",
    "ComplementaryFamily",
    "pure_state",
    "symmetric_observable",
    "phase_shift",
    "beam_splitter",
    "complementary_observable",
    "complementary_matrices",
    "complementary_triplet",
    "phase_difference_realization",
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
        r = float(self.rho12)
        bound = math.sqrt(w * (1.0 - w))
        if math.isnan(r) or r < -POSITIVITY_TOL or r > bound + POSITIVITY_TOL:
            raise ParameterError(
                f"rho12 = {r!r} violates the positivity bound "
                f"0 <= rho12 <= sqrt(w_plus * w_minus) = {bound!r}"
            )
        r = max(r, 0.0)
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

    def is_pure(self, tol: float = 1e-12) -> bool:
        return self.purity >= 1.0 - tol

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 2x2 matrix, computed on first access; read-only."""
        m = density_matrix(self.w_plus, self.rho12, self.theta)
        m.setflags(write=False)
        return m

    def state_vector(self, tol: float = 1e-12) -> np.ndarray:
        """Amplitudes ``(sqrt(w_plus), exp(i theta) sqrt(w_minus))`` of a pure state."""
        if not self.is_pure(tol):
            raise ParameterError(
                f"state_vector requires a pure state: purity = {self.purity!r} < 1 - {tol:.1e}"
            )
        return np.array(
            [math.sqrt(self.w_plus), np.exp(1j * self.theta) * math.sqrt(self.w_minus)]
        )

    @classmethod
    def from_matrix(cls, m: np.ndarray, tol: float = 1e-10) -> "DensityMatrix":
        """Extract parameters from an explicit 2x2 density matrix."""
        m = assert_hermitian(m, name="density matrix")
        if m.shape != (2, 2):
            raise ContractViolationError(f"density matrix must be 2x2, got {m.shape}")
        tr = float(m[0, 0].real + m[1, 1].real)
        if abs(tr - 1.0) > tol:
            raise ContractViolationError(f"density matrix trace = {tr!r} differs from 1 beyond {tol:.1e}")
        w = float(m[0, 0].real)
        r = float(abs(m[1, 0]))
        t = float(np.angle(m[1, 0])) % TWO_PI if r > 0.0 else 0.0
        return cls(w, r, t)


def validate_density(w_plus, rho12, theta=0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check and store stacked state parameters by the rules of :class:`DensityMatrix`.

    The arguments broadcast together. Returns float arrays
    ``(w_plus, rho12, theta)`` holding, element by element, the fields that
    ``DensityMatrix`` stores; an element it would reject raises the same
    :class:`ParameterError`.
    """
    w = check_array(w_plus, "w_plus", 0.0, 1.0, slack=POSITIVITY_TOL)
    w, r, t = np.broadcast_arrays(w, np.asarray(rho12, dtype=float), check_array(theta, "theta"))
    bad = np.isnan(r) | (r < -POSITIVITY_TOL) | (r > np.sqrt(w * (1.0 - w)) + POSITIVITY_TOL)
    if bad.any():
        i = np.argmax(bad)
        DensityMatrix(w.flat[i], r.flat[i])  # raises the positivity bound's error
    r = np.maximum(r, 0.0)
    return w, r, np.where(r > 0.0, np.remainder(t, TWO_PI), 0.0)


def purity(w_plus, rho12):
    """Purity ``1 - 2 w+ w- + 2 rho12**2`` of valid state parameters, elementwise.

    ``np.float_power`` squares through C ``pow``, as Python's ``x ** 2`` does,
    so a stack and :attr:`DensityMatrix.purity` round alike.
    """
    return 1.0 - 2.0 * w_plus * (1.0 - w_plus) + 2.0 * np.float_power(rho12, 2)


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
        if float(self.val_plus) == float(self.val_minus):
            raise ParameterError(
                f"outcome values must be distinct, got val_plus = val_minus = {self.val_plus!r}"
            )
        basis = assert_unitary(self.basis, name="eigenbasis")
        if basis.shape != (2, 2):
            raise ContractViolationError(f"eigenbasis must be 2x2, got {basis.shape}")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "val_plus", check_scalar(self.val_plus, "val_plus"))
        object.__setattr__(self, "val_minus", check_scalar(self.val_minus, "val_minus"))
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


def symmetric_observable(value: float = 0.5) -> Observable:
    """Reference-basis observable with outcomes ``+value`` and ``-value``.

    The default gauge ``value = 1/2`` makes the observable a spin component
    in units where hbar = 1.
    """
    return Observable(value, -value)


@dataclass(frozen=True)
class ComplementaryFamily:
    """The equal-weight family complementary to a reference observable.

    For a reference observable with eigenvectors ``|a+>, |a->``, the family
    member at relative phase ``varrho`` has eigenvectors::

        |b+-> = (|a+> +- exp(i varrho) |a->) / sqrt(2)

    with outcome values ``b_plus`` and ``b_minus``. Every member is mutually
    unbiased with respect to the reference basis.
    """

    reference: Observable
    varrho: float
    b_plus: float = 0.5
    b_minus: float = -0.5

    def __post_init__(self) -> None:
        if float(self.b_plus) == float(self.b_minus):
            raise ParameterError(
                f"outcome values must be distinct, got b_plus = b_minus = {self.b_plus!r}"
            )
        object.__setattr__(self, "varrho", check_scalar(self.varrho, "varrho") % TWO_PI)
        object.__setattr__(self, "b_plus", check_scalar(self.b_plus, "b_plus"))
        object.__setattr__(self, "b_minus", check_scalar(self.b_minus, "b_minus"))

    def member_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        basis = _member_basis(self.reference, self.varrho)
        return basis[:, 0], basis[:, 1]


def _member_basis(reference: Observable, varrho) -> np.ndarray:
    """Eigenbases ``(..., 2, 2)`` of the family members at wrapped phases ``varrho``.

    Column 0 is ``|b+>`` and column 1 is ``|b->``.
    """
    phase = np.exp(1j * np.asarray(varrho))[..., None]
    a_plus = reference.vec_plus
    a_minus = reference.vec_minus
    return np.stack([a_plus + phase * a_minus, a_plus - phase * a_minus], axis=-1) / math.sqrt(2.0)


def complementary_observable(family: ComplementaryFamily) -> Observable:
    """The observable realizing a :class:`ComplementaryFamily` member."""
    return Observable(family.b_plus, family.b_minus, _member_basis(family.reference, family.varrho))


def complementary_matrices(reference: Observable, varrho) -> np.ndarray:
    """Matrices ``(..., 2, 2)`` of the family members at phases ``varrho``, elementwise.

    The stacked form of ``complementary_observable(ComplementaryFamily(reference,
    varrho)).matrix``, with the default outcome values ``+-1/2``: each phase is
    checked and wrapped as :class:`ComplementaryFamily` does, and each member is
    built from its eigenbasis, which must pass the unitarity check of
    :class:`Observable`.
    """
    varrho = np.remainder(check_array(varrho, "varrho"), TWO_PI)
    basis = assert_unitary(_member_basis(reference, varrho), name="eigenbasis")
    return _spectral_matrix(basis, ComplementaryFamily.b_plus, ComplementaryFamily.b_minus)


def phase_shift(phi: float) -> np.ndarray:
    """Unitary adding a relative phase ``phi`` to ``|minus>``."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]])


def beam_splitter(xi: float) -> np.ndarray:
    """Variable-transmittivity beam splitter mixing the two basis modes.

    ``xi = pi/4`` is the balanced (50 percent) splitter.
    """
    c, s = math.cos(xi), math.sin(xi)
    return np.array([[c, 1j * s], [1j * s, c]])


def complementary_triplet(
    reference: Observable, varrho: float, handedness: int = 1
) -> tuple[Observable, Observable, Observable]:
    """Reference observable plus two complementary partners a quarter turn apart.

    Returns ``(A, B(varrho), B(varrho + handedness * pi/2))`` where the
    partners inherit the outcome values of ``A``. With the ``+-1/2`` gauge the
    triplet closes the angular momentum algebra
    ``[T2, T3] = i T1, [T3, T1] = i T2, [T1, T2] = i T3`` for ``handedness = +1``,
    and ``handedness = -1`` flips the sign of the cyclic commutator.
    """
    if handedness not in (1, -1):
        raise ParameterError(f"handedness must be +1 or -1, got {handedness!r}")
    first = complementary_observable(
        ComplementaryFamily(reference, varrho, reference.val_plus, reference.val_minus)
    )
    second = complementary_observable(
        ComplementaryFamily(
            reference,
            varrho + handedness * math.pi / 2.0,
            reference.val_plus,
            reference.val_minus,
        )
    )
    return reference, first, second


def phase_difference_realization(theta_val: float, varrho: float) -> Observable:
    """Two-outcome phase-difference operator with eigenvalues ``theta_val`` and ``theta_val + pi``.

    The eigenvectors are the complementary-family member at phase ``varrho``
    relative to the mode-number-difference operator (the reference-basis
    observable with outcomes +-1/2), so the returned observable is mutually
    unbiased with respect to the reference basis. ``theta_val`` names the
    eigenvalue offset; it is unrelated to a state's coherence phase.
    """
    family = ComplementaryFamily(
        symmetric_observable(0.5), varrho, theta_val, theta_val + math.pi
    )
    return complementary_observable(family)
