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

A state or observable is checked once, where it is built, and keeps the real
parts that the kernels read: a state those of its matrix, an observable those
of its eigenbasis columns. Its ``matrix`` and ``basis`` are laid out from them
when first read, read-only, and the functions that take one check it no
further. An observable the library builds from checked input, :data:`REFERENCE`,
a family member or a meter readout, is unitary and has valid outcome values by
construction, so its constructor checks nothing again. A pure state's amplitudes
are parts too, from :func:`_pure_parts`, which the entangled meter state and the
eigen-equation residual of :mod:`qudual.uncertainty` read, and which
:meth:`DensityMatrix.state_vector` lays out.

:class:`DensityMatrix`, :func:`pure_state` and :func:`complementary_observable`
take one value or a stack. Parameters that are all real scalars (ints and
floats, NumPy's real scalars or a ``Fraction``) make one value, which holds
Python floats; any other parameter, an array above all, makes a stack, which
holds arrays of the broadcast shape and is checked by the same rules in the
same order: it raises the first rule that any element breaks, at the first
element that breaks it, with the error that element raises alone.
:func:`qudual.linalg._ops` tells the two apart, once, where the value is built,
and each element of a stack has the bits of that one value.

Index 0 is ``|plus>`` and index 1 is ``|minus>`` everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, ParameterError, check_scalar
from .linalg import _entries, _from_entries, _from_parts, _one_value, _ops, _projector, _read_only, _split, _times
from .linalg import assert_unitary

TWO_PI = 2.0 * math.pi

# Outcome magnitude of the symmetric reference observable: outcomes +-1/2, a
# spin component in units where hbar = 1. The readouts of
# :mod:`qudual.simultaneous` rescale these same values.
GAUGE = 0.5

# Absolute slack accepted on the positivity bound rho12 <= sqrt(w+ w-) and on
# range checks of probabilities; a value inside the slack is clamped onto its
# range.
POSITIVITY_TOL = 1e-12

# Rounding allowance: how far below 1 the purity of a pure state may fall.
PURITY_TOL = 1e-12

# Largest outcome magnitude B of an Observable: its matrix parts are at most 2 B, the uncertainty kernels' products
# of two such parts below 2**5 B**2 (Dot2 splits up to 2**996), their traces against a state below 2**7 B**2, and so
# var_a var_b and c_mean**2 + f_mean**2 below 2**15 B**4 = 2**1015, which is finite.
_MAX_OUTCOME_VALUE = 2.0**250

__all__ = [
    "GAUGE",
    "DensityMatrix",
    "Observable",
    "pure_state",
    "REFERENCE",
    "complementary_observable",
]


@dataclass(frozen=True)
class DensityMatrix:
    """Two-level density matrix in the ``(w_plus, rho12, theta)`` parameterization, or a stack of them.

    The matrix it represents is::

        [[w_plus,                rho12 * exp(-i theta)],
         [rho12 * exp(i theta),  1 - w_plus           ]]

    ``theta`` is stored wrapped to [0, 2 pi) and canonicalized to 0 when
    ``rho12 = 0``, where the coherence phase carries no information. Stacked
    parameters broadcast together and make a stack of states: its fields,
    parts, ``purity`` and ``matrix`` are arrays, each element as the state of
    that element's parameters holds it.
    """

    w_plus: float
    rho12: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        fields = _state_fields(self.w_plus, self.rho12, self.theta)
        for name, value in zip(("w_plus", "rho12", "theta"), fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_parts", _density_parts(*fields))

    def __eq__(self, other) -> bool:
        """Equal stored fields, of one state each: comparing a stack raises a :class:`ParameterError`."""
        if type(other) is not DensityMatrix:
            return NotImplemented
        fields = [(_one_value(rho.w_plus, "== compares one state"), rho.rho12, rho.theta) for rho in (self, other)]
        return fields[0] == fields[1]

    @property
    def w_minus(self) -> float:
        return 1.0 - self.w_plus

    @property
    def purity(self) -> float:
        """Trace of the squared matrix, in [1/2, 1]."""
        return _purity(self.w_plus, self.rho12)

    def is_pure(self) -> bool:
        return self.purity >= 1.0 - PURITY_TOL

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 2x2 matrix, or the ``(..., 2, 2)`` stack, laid out from the parts on first access; read-only."""
        return _read_only(_from_parts(*self._parts))

    def _vector_parts(self) -> tuple:
        """Parts ``((re, im), (re, im))`` of pure states' amplitudes: :func:`_pure_parts`, after a purity check."""
        purity = self.purity
        _ops(purity).require(purity >= 1.0 - PURITY_TOL, lambda p: ParameterError(
            f"state_vector requires a pure state: purity = {p!r} < 1 - {PURITY_TOL:.1e}"
        ), purity)
        return _pure_parts(self.w_plus, self.theta)

    def state_vector(self) -> np.ndarray:
        """Amplitudes ``(sqrt(w_plus), exp(i theta) sqrt(w_minus))`` of one pure state."""
        _one_value(self.w_plus, "state_vector takes one state")
        return np.array([complex(*z) for z in self._vector_parts()])


def _state_fields(w_plus, rho12, theta) -> tuple:
    """The fields ``(w_plus, rho12, theta)`` that :class:`DensityMatrix` stores: floats, or arrays of one shape."""
    ops = _ops(w_plus, rho12, theta)
    w = ops.check(w_plus, "w_plus", 0.0, 1.0, slack=POSITIVITY_TOL)
    r = ops.real(rho12, "rho12")
    bound = ops.sqrt(w * (1.0 - w))
    ops.require((r >= -POSITIVITY_TOL) & (r <= bound + POSITIVITY_TOL), lambda r, bound: ParameterError(
        f"rho12 = {r!r} violates the positivity bound 0 <= rho12 <= sqrt(w_plus * w_minus) = {bound!r}"
    ), r, bound)
    w, r, t = ops.broadcast(w, ops.clip(r, 0.0, bound), ops.check(theta, "theta"))
    return w, r, ops.where(r > 0.0, t % TWO_PI, 0.0)


def _purity(w_plus, rho12):
    """Purity ``1 - 2 w+ w- + 2 rho12**2`` of valid state parameters, elementwise."""
    return 1.0 - 2.0 * w_plus * (1.0 - w_plus) + 2.0 * (rho12 * rho12)


def _pure_parts(w_plus, theta) -> tuple:
    """Parts ``((re, im), (re, im))`` of the amplitudes ``(sqrt(w+), exp(i theta) sqrt(w-))`` of pure states.

    One state's parameters are Python floats and give Python floats, from
    ``cmath.exp`` and ``math.sqrt``, with the bits of each element of a stack,
    whose parameters are arrays of one shape and take NumPy's: the table of
    :func:`qudual.linalg._ops`. :meth:`DensityMatrix.state_vector` lays these
    out for one state; it checks purity first, this function does not.
    """
    ops = _ops(w_plus, theta)
    (re, im), root = _split(ops.exp(1j * theta)), ops.sqrt(1.0 - w_plus)
    return (ops.sqrt(w_plus), 0.0), (re * root, im * root)


def _density_parts(w_plus, rho12, theta) -> tuple:
    """Parts ``(a, d, x, y)`` of valid state parameters, elementwise: what :class:`DensityMatrix` keeps."""
    phase = _ops(theta).exp(-1j * theta)
    return w_plus, 1.0 - w_plus, *_times((rho12, 0.0), _split(phase))


def pure_state(w_plus: float, theta: float = 0.0) -> DensityMatrix:
    """The pure state with populations ``(w_plus, 1 - w_plus)`` and phase ``theta``, or a stack of them.

    Its coherence is the whole positivity bound, ``rho12 = sqrt(w+ w-)``. An
    array of populations or of phases makes a stacked :class:`DensityMatrix`,
    each element with the bits of the pure state of its parameters; a stack
    raises the :class:`ParameterError` of its first population or phase out
    of range, as that element alone does.
    """
    ops = _ops(w_plus)
    w = ops.check(w_plus, "w_plus", 0.0, 1.0, slack=POSITIVITY_TOL)
    return DensityMatrix(w, ops.sqrt(w * (1.0 - w)), theta)


@dataclass(frozen=True, eq=False)
class Observable:
    """Two-outcome observable with an explicit eigenbasis.

    ``basis`` holds the orthonormal eigenvectors as columns, defaulting to the
    reference basis. ``val_plus`` belongs to the first column, ``val_minus``
    to the second, and the two outcome values must be distinct and within ``+-2**250``.
    ``Observable(...)`` checks all of that; :meth:`_from_checked`, for the
    observables the library builds itself, checks none of it again. Either
    way the observable keeps the basis as the parts of its columns alone, and
    lays out ``basis`` from them when it is first read.
    """

    val_plus: float
    val_minus: float
    basis: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))

    def __post_init__(self) -> None:
        val_plus = check_scalar(self.val_plus, "val_plus", -_MAX_OUTCOME_VALUE, _MAX_OUTCOME_VALUE)
        val_minus = check_scalar(self.val_minus, "val_minus", -_MAX_OUTCOME_VALUE, _MAX_OUTCOME_VALUE)
        if val_plus == val_minus:
            raise ParameterError(
                f"outcome values must be distinct, got val_plus = val_minus = {self.val_plus!r}"
            )
        basis = assert_unitary(self.basis, name="eigenbasis")
        if basis.ndim != 2:
            raise ContractViolationError(f"eigenbasis must be one matrix, not a stack, got shape {basis.shape}")
        object.__setattr__(self, "val_plus", val_plus)
        object.__setattr__(self, "val_minus", val_minus)
        object.__setattr__(self, "_columns", tuple(tuple(map(_split, column)) for column in zip(*_entries(basis))))
        object.__delattr__(self, "basis")  # laid out again from the columns when first read

    @classmethod
    def _from_checked(cls, val_plus: float, val_minus: float, columns: tuple) -> Observable:
        """The observable of outcome values and eigenbasis ``columns``, each ``((re, im), (re, im))``, of checked input.

        Nothing is checked again: the builders make distinct float values within ``+-2**250`` and a basis that is
        unitary by construction, and :mod:`qudual.verify` and the tests hold them to that.
        """
        obs = object.__new__(cls)
        object.__setattr__(obs, "val_plus", val_plus)
        object.__setattr__(obs, "val_minus", val_minus)
        object.__setattr__(obs, "_columns", columns)
        return obs

    def __getattr__(self, name: str):
        """Lay out the ``basis`` from the ``_columns`` when it is first read; read-only."""
        if name != "basis":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        (u0, u1), (w0, w1) = self._columns
        object.__setattr__(self, "basis", _read_only(_from_entries(u0, w0, u1, w1)))
        return self.basis

    @property
    def vec_plus(self) -> np.ndarray:
        return self.basis[..., 0]

    @property
    def vec_minus(self) -> np.ndarray:
        return self.basis[..., 1]

    @cached_property
    def _parts(self) -> tuple:
        """Parts ``(a, d, x, y)`` of the matrix, from the columns on first access."""
        return _spectral_parts(self._columns, self.val_plus, self.val_minus)

    @cached_property
    def matrix(self) -> np.ndarray:
        """``basis @ diag(values) @ basis^dagger``, laid out from the parts on first access; read-only."""
        return _read_only(_from_parts(*self._parts))


def _spectral_parts(columns: tuple, val_plus: float, val_minus: float) -> tuple:
    """Parts of ``val_plus u u^dagger + val_minus w w^dagger`` for basis ``columns`` ``(u, w)``: floats or arrays."""
    u, w = (_projector(*column) for column in columns)
    return tuple(val_plus * p + val_minus * q for p, q in zip(u, w))


# Reference-basis observable with outcomes +GAUGE and -GAUGE, built once from the identity's columns, which are
# unitary: it is frozen and its basis and matrix are read-only, so every caller shares this instance.
REFERENCE = Observable._from_checked(GAUGE, -GAUGE, (((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 0.0))))


_HALF_ROOT = 1.0 / math.sqrt(2.0)


def _member_basis(varrho) -> tuple:
    """Eigenbasis columns ``(|b+>, |b->)`` of the family members at wrapped phases ``varrho``, as parts.

    ``|b+> = (1, phase) / sqrt(2)`` and ``|b-> = (1, -phase) / sqrt(2)``,
    with ``phase = exp(i varrho)``, in real parts: one phase is a Python
    complex from ``cmath.exp``, with the bits of each element of a stack from
    ``np.exp``; :func:`qudual.linalg._ops` picks the function.
    """
    re, im = _split(_ops(varrho).exp(1j * varrho))
    h = _HALF_ROOT
    # 0 - x rather than -x keeps a zero part +0 (at varrho = 0), the sign NumPy's complex arithmetic gives it
    return ((h, 0.0), (re * h, im * h)), ((h, 0.0), ((0.0 - re) * h, (0.0 - im) * h))


def complementary_observable(varrho: float) -> Observable:
    """The family member complementary to :data:`REFERENCE` at relative phase ``varrho``, or a stack of them.

    With the reference eigenvectors ``|a+>, |a->``, the member at phase
    ``varrho`` (wrapped to [0, 2 pi)) has eigenvectors::

        |b+-> = (|a+> +- exp(i varrho) |a->) / sqrt(2)

    and the outcome values ``+-GAUGE`` of the reference. Every member is
    mutually unbiased with respect to the reference basis, and
    ``[REFERENCE, B(varrho)] = i B(varrho + pi/2)`` closes su(2). An array of
    phases makes an observable whose columns, parts, ``basis`` and ``matrix``
    are stacks, each element that of its phase's member.
    """
    varrho = _ops(varrho).check(varrho, "varrho") % TWO_PI
    return Observable._from_checked(REFERENCE.val_plus, REFERENCE.val_minus, _member_basis(varrho))
