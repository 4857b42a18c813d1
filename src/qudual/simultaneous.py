"""Simultaneous estimation of both complementary observables via an entangled meter.

A pure system state with populations ``(w_plus, w_minus)`` and phase
``theta`` is coupled to a meter qubit so that the meter states labelling the
two system basis states have a real positive overlap ``c``::

    |psi_e> = sqrt(w+) |plus>|m+> + exp(i theta) sqrt(w-) |minus>|m->,
    |m-> = c |m+> + sqrt(1 - c**2) |m_perp>

``c`` interpolates between a perfect which-way marker (c = 0) and no marking
at all (c = 1). Reading the meter in a rotated basis and the system in a
complementary-family basis yields unbiased estimators of both observables at
once, at the price of rescaled outcome values and hence inflated variances.
The product of the two estimator variances has a state-dependent minimum
over ``c``, reached at ``c**2 = V / (P + V)``.

Basis order of the composite amplitudes is
``|plus m+>, |plus m_perp>, |minus m+>, |minus m_perp>`` (system index
slowest), matching :func:`qudual.linalg.kron`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SingularConfigurationError, check_scalar
from .linalg import trace_norm
from .states import TWO_PI, DensityMatrix

# Largest rescaled outcome value whose square is a finite double.
MAX_RESCALED_VALUE = math.sqrt(sys.float_info.max)

__all__ = [
    "MAX_RESCALED_VALUE",
    "EntangledState",
    "entangle",
    "distinguishability",
    "entangled_visibility",
    "MeterProjectors",
    "meter_projectors",
    "estimate_a",
    "estimate_b",
    "simultaneous_product",
    "optimal_entanglement",
    "minimum_simultaneous_product",
]


@dataclass(frozen=True, eq=False)
class EntangledState:
    """System-meter pure state with meter overlap ``c``."""

    w_plus: float
    theta: float
    c: float
    amplitudes: np.ndarray = field(repr=False)

    @property
    def w_minus(self) -> float:
        return 1.0 - self.w_plus

    def system_meter(self) -> np.ndarray:
        """Amplitudes reshaped to ``psi[system, meter]``."""
        return self.amplitudes.reshape(2, 2)

    def _system_matrix(self) -> np.ndarray:
        """Partial trace over the meter, as an explicit 2x2 matrix."""
        psi = self.system_meter()
        return np.einsum("im,jm->ij", psi, psi.conj())

    def marginal_system(self) -> DensityMatrix:
        """Partial trace over the meter.

        Keeps the populations and shrinks the coherence to ``c sqrt(w+ w-)``.
        """
        return DensityMatrix.from_matrix(self._system_matrix())


def entangle(w_plus: float, theta: float, c: float) -> EntangledState:
    """Couple the pure system state ``(w_plus, theta)`` to a meter with overlap ``c``."""
    w = check_scalar(w_plus, "w_plus", 0.0, 1.0)
    cc = check_scalar(c, "c", 0.0, 1.0)
    t = check_scalar(theta, "theta") % TWO_PI
    phase = np.exp(1j * t)
    amp = np.array(
        [
            math.sqrt(w),
            0.0,
            phase * math.sqrt(1.0 - w) * cc,
            phase * math.sqrt(1.0 - w) * math.sqrt(1.0 - cc * cc),
        ]
    )
    amp.setflags(write=False)
    return EntangledState(w_plus=w, theta=t, c=cc, amplitudes=amp)


def distinguishability(psi_e: EntangledState) -> float:
    """Trace-norm distance of the meter states conditioned on the system basis.

    Evaluates ``|| <plus|rho_e|plus> - <minus|rho_e|minus> ||_1`` on the meter
    space; equals ``sqrt(1 - 4 c**2 w+ w-)``, which never falls below the
    predictability of the system state.
    """
    psi = psi_e.system_meter()
    block_plus = np.outer(psi[0], psi[0].conj())
    block_minus = np.outer(psi[1], psi[1].conj())
    return trace_norm(block_plus - block_minus)


def entangled_visibility(psi_e: EntangledState) -> float:
    """Fringe visibility left to the system after the meter is traced out.

    Equals ``2 c sqrt(w+ w-)``; together with the distinguishability it
    saturates ``D**2 + V_e**2 = 1`` for every ``(w_plus, c)``.
    """
    return 2.0 * float(abs(psi_e._system_matrix()[1, 0]))


@dataclass(frozen=True, eq=False)
class MeterProjectors:
    """Rotated meter readout basis with the rescaled outcome values.

    ``m1 = (cos gamma, sin gamma)`` and ``m2 = (-sin gamma, cos gamma)`` in
    the ``(|m+>, |m_perp>)`` basis. The outcome values are
    ``value_m1 = -a_prime`` and ``value_m2 = +a_prime``, the sign assignment
    under which the readout mean reproduces the sharp mean for every input
    state.
    """

    gamma: float
    a_prime: float
    value_m1: float
    value_m2: float
    m1: np.ndarray = field(repr=False)
    m2: np.ndarray = field(repr=False)


def _readout_overlap(c: float) -> float:
    cc = check_scalar(c, "c")
    if not 0.0 < cc < 1.0:
        raise SingularConfigurationError(
            f"meter readout requires 0 < c < 1, got c = {cc!r}: at c = 0 the rotation "
            "angle equation degenerates and at c = 1 the rescaled value diverges"
        )
    return cc


def _rescaled(value: float, name: str, scale: float, scale_name: str, c: float) -> float:
    """The rescaled outcome value ``value / scale``, or a :class:`ParameterError` naming its bound."""
    rescaled = value / scale
    if not rescaled <= MAX_RESCALED_VALUE:
        raise ParameterError(
            f"{name} = {value!r} violates the bound {name} / {scale_name} <= {MAX_RESCALED_VALUE:.6g} "
            f"at c = {c!r}: the rescaled outcome value or its square would not be finite"
        )
    return rescaled


def meter_projectors(c: float, a_value: float = 0.5) -> MeterProjectors:
    """Meter readout basis making the first-observable estimate unbiased.

    The rotation angle solves ``cot(2 gamma) = -sqrt(1 - c**2) / c`` with the
    branch ``gamma = (pi - arcsin c) / 2`` in (pi/4, pi/2), and the rescaled
    outcome magnitude is ``a_prime = a_value / sqrt(1 - c**2)``, at most
    :data:`MAX_RESCALED_VALUE`. Of the two
    outcome sign assignments compatible with the angle equation, the one
    reproducing the sharp mean ``a_value (w+ - w-)`` puts ``-a_prime`` on
    ``m1``; the ``unbiasedness`` suite of :mod:`qudual.verify` checks that
    choice by explicit projection.
    """
    cc = _readout_overlap(c)
    a = check_scalar(a_value, "a_value", 0.0, lo_open=True)
    gamma = 0.5 * (math.pi - math.asin(cc))
    a_prime = _rescaled(a, "a_value", math.sqrt(1.0 - cc * cc), "sqrt(1 - c**2)", cc)
    m1 = np.array([math.cos(gamma), math.sin(gamma)], dtype=complex)
    m2 = np.array([-math.sin(gamma), math.cos(gamma)], dtype=complex)
    m1.setflags(write=False)
    m2.setflags(write=False)
    return MeterProjectors(
        gamma=gamma, a_prime=a_prime, value_m1=-a_prime, value_m2=a_prime, m1=m1, m2=m2
    )


def estimate_a(psi_e: EntangledState, a_value: float = 0.5) -> tuple[float, float]:
    """Mean and variance of the rescaled first-observable readout.

    Returns the closed forms ``mean = a (w+ - w-)`` and
    ``variance = a**2 (c**2 / (1 - c**2) + 4 w+ w-)``. Requires ``0 < c < 1``;
    both endpoints are singular for this readout. The rescaled outcome value
    ``a / sqrt(1 - c**2)`` may not exceed :data:`MAX_RESCALED_VALUE`. The
    explicit projection route to both moments runs in :mod:`qudual.verify`.
    """
    cc = _readout_overlap(psi_e.c)
    a = check_scalar(a_value, "a_value", 0.0, lo_open=True)
    _rescaled(a, "a_value", math.sqrt(1.0 - cc * cc), "sqrt(1 - c**2)", cc)
    w = psi_e.w_plus
    mean = a * (2.0 * w - 1.0)
    var = a * a * (cc * cc / (1.0 - cc * cc) + 4.0 * w * (1.0 - w))
    return mean, var


def estimate_b(psi_e: EntangledState, varrho: float, b_value: float = 0.5) -> tuple[float, float]:
    """Mean and variance of the rescaled complementary-observable readout.

    The system is read in the complementary basis at phase ``varrho`` and the
    outcomes are rescaled to ``+-b_value / c``, which makes the mean equal to
    the sharp mean ``2 b sqrt(w+ w-) cos(theta - varrho)`` of the initial
    pure state for every ``c``. Returns the closed forms of that mean and of
    ``variance = b**2 (1 / c**2 - 4 w+ w- cos(theta - varrho)**2)``. Requires
    ``c > 0``, and the rescaled outcome value ``b / c`` may not exceed
    :data:`MAX_RESCALED_VALUE`. The explicit projection route to both moments
    runs in :mod:`qudual.verify`.
    """
    cc = psi_e.c
    if cc <= 0.0:
        raise SingularConfigurationError(
            f"complementary readout requires c > 0, got c = {cc!r}: the rescaled "
            "outcome values +-b/c diverge"
        )
    b = check_scalar(b_value, "b_value", 0.0, lo_open=True)
    _rescaled(b, "b_value", cc, "c", cc)
    w = psi_e.w_plus
    delta = psi_e.theta - check_scalar(varrho, "varrho") % TWO_PI
    root = math.sqrt(w * (1.0 - w))
    mean = 2.0 * b * root * math.cos(delta)
    var = b * b * (1.0 / (cc * cc) - 4.0 * w * (1.0 - w) * math.cos(delta) ** 2)
    return mean, var


def simultaneous_product(w_plus: float, c: float) -> float:
    """Normalized variance product of the two readouts at the proper phase.

    For ``0 < c < 1`` returns
    ``(c**2 / (4 (1 - c**2)) + w+ w-) * (1 / (4 c**2) - w+ w-)``, the product
    of both readout variances normalized by the squared outcome spreads, for
    the proper complementary phase ``varrho = theta``. At the endpoints the
    analytic limit is returned: ``math.inf`` where the product diverges, and
    1/16 in the two finite corner cases (``c -> 0`` on an eigenstate,
    ``c -> 1`` at equal populations).
    """
    w = check_scalar(w_plus, "w_plus", 0.0, 1.0)
    cc = check_scalar(c, "c", 0.0, 1.0)
    k = w * (1.0 - w)
    if cc * cc == 0.0:
        # c = 0, or so small that c**2 underflows: the c -> 0 limit.
        return 1.0 / 16.0 if k == 0.0 else math.inf
    if cc == 1.0:
        return 1.0 / 16.0 if k == 0.25 else math.inf
    c2 = cc * cc
    # Evaluated in the factored form
    #   (c^2 + 4K(1-c^2)) ((1-c^2) + c^2 P^2) / (16 c^2 (1-c^2)),
    # whose numerator terms are all nonnegative. The direct brackets lose all
    # precision near c = 1, where 1/(4c^2) - K cancels catastrophically.
    s = (1.0 - cc) * (1.0 + cc)
    p2 = (2.0 * w - 1.0) ** 2
    return (c2 + 4.0 * k * s) * (s + c2 * p2) / (16.0 * c2 * s)


def optimal_entanglement(w_plus: float) -> float:
    """Meter overlap minimizing the simultaneous variance product.

    Uses the regularized form ``c**2 = V / (P + V)`` with the predictability
    and visibility of the initial pure state, which stays finite at
    ``w+ w- = 1/8`` where the direct expression is 0/0. Returns 1 at
    ``w_plus = 1/2`` and 0 at the boundary ``w_plus in {0, 1}``; both are
    limits where the minimum value is 1/16 but the configuration itself is
    singular for one of the readouts.
    """
    w = check_scalar(w_plus, "w_plus", 0.0, 1.0)
    k = w * (1.0 - w)
    v = 2.0 * math.sqrt(k)
    p = math.sqrt(max(1.0 - 4.0 * k, 0.0))
    return math.sqrt(v / (p + v)) if v > 0.0 else 0.0


def minimum_simultaneous_product(w_plus: float) -> float:
    """Minimum over ``c`` of the simultaneous variance product.

    The product at the regularized optimal overlap, ``(1 + V P)**2 / 16``,
    which equals 1/16 at ``w_plus in {0, 1/2, 1}``. The long closed form
    and a golden-section search over ``c`` check it in the
    ``minimum_product`` suite of :mod:`qudual.verify`.
    """
    return simultaneous_product(w_plus, optimal_entanglement(w_plus))
