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

:class:`EntangledState` takes one ``(w_plus, theta, c)`` or stacks of them, as
:class:`~qudual.states.DensityMatrix` does, and :func:`distinguishability` and
:func:`entangled_visibility` return a float for one state and an array for a
stack, whose elements have the bits of their states alone. Both are closed
forms in the predictability ``P`` and visibility ``V`` of the pure system
state: ``D = hypot(P, V sqrt(1 - c**2))`` and ``V_e = c V``, so that
``D**2 + V_e**2 = 1``. The matrix route to them, the trace norm of the meter
blocks and the partial trace of the amplitudes, runs in :mod:`qudual.verify`.
The readout moments :func:`estimate_a` and :func:`estimate_b` take one state or
a stack in the same way, and a stack raises the error of its first element
outside the readout's domain, as that state alone would.
:func:`simultaneous_product` and :func:`optimal_entanglement` take one
population and overlap or arrays of them, and a stack raises the
:class:`~qudual.errors.ParameterError` of its first value out of range.
:func:`meter_projectors` takes one overlap: the meter readout is an
:class:`~qudual.states.Observable` on the meter qubit.

Every ``1 - c**2`` is evaluated as ``(1 - c)(1 + c)``, which keeps its
relative accuracy as ``c -> 1`` where ``1 - c*c`` cancels. The composite
amplitudes ``psi[system, meter]`` are kept as parts, in rows ``plus, minus``
of entries ``m+, m_perp``, and laid out as an array when first read; the
system state's amplitudes in them are :func:`qudual.states._pure_parts`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .duality import _imbalance
from .errors import ParameterError, SingularConfigurationError, check_scalar
from .linalg import _from_entries, _hypot, _one_value, _ops, _read_only
from .states import GAUGE, TWO_PI, Observable, _pure_parts

# Largest value whose square is a finite double: the bound on 1 / c of the complementary readout, whose variance
# holds 1 / c**2, and so on its rescaled outcome value b / c too.
MAX_RESCALED_VALUE = math.sqrt(sys.float_info.max)

__all__ = [
    "EntangledState",
    "distinguishability",
    "entangled_visibility",
    "meter_projectors",
    "estimate_a",
    "estimate_b",
    "simultaneous_product",
    "optimal_entanglement",
]


@dataclass(frozen=True, eq=False)
class EntangledState:
    """System-meter pure state with meter overlap ``c`` and read-only amplitudes ``psi[system, meter]``.

    ``EntangledState(w_plus, theta, c)`` couples the pure system state
    ``(w_plus, theta)`` to the meter. The parameters are checked where the
    state is built: ``0 <= w_plus <= 1``, ``0 <= c <= 1`` and a finite
    ``theta``, which is stored wrapped to [0, 2 pi). The parts of the
    amplitudes are computed from them, once. Stacked parameters broadcast
    together and make a stack, whose fields are arrays and whose
    ``amplitudes`` are ``psi[..., system, meter]``.
    """

    w_plus: float
    theta: float
    c: float

    def __post_init__(self) -> None:
        ops = _ops(self.w_plus, self.theta, self.c)
        w, cc = ops.check(self.w_plus, "w_plus", 0.0, 1.0), ops.check(self.c, "c", 0.0, 1.0)
        w, t, cc = ops.broadcast(w, ops.check(self.theta, "theta") % TWO_PI, cc)
        object.__setattr__(self, "w_plus", w)
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "c", cc)
        object.__setattr__(self, "_rows", _amplitudes(w, t, cc))

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """The amplitudes ``psi[system, meter]``, laid out from the row parts on first access; read-only."""
        return _read_only(_from_entries(*self._rows[0], *self._rows[1]))


def _one_minus_sq(c):
    return (1.0 - c) * (1.0 + c)


def _amplitudes(w, t, c) -> tuple:
    """Parts ``(re, im)`` of the amplitudes ``psi[..., system, meter]`` of valid parameters, in rows by system state.

    ``t`` is wrapped to [0, 2 pi). Stacked parameters are arrays of one shape, and one state's are Python floats,
    with the bits of each element of a stack: the root of ``1 - c**2`` is ``math.sqrt`` or NumPy's, by
    :func:`qudual.linalg._ops`, as in :func:`qudual.states._pure_parts`.
    """
    plus, (re, im) = _pure_parts(w, t)  # the system state's amplitudes, the second exp(i t) sqrt(w-)
    s = _ops(c).sqrt(_one_minus_sq(c))
    return (plus, (0.0, 0.0)), ((re * c, im * c), (re * s, im * s))


def _pure_visibility(w):
    """``V = 2 sqrt(w+ w-)``, with the bits of :func:`qudual.duality.visibility` of ``pure_state(w)``."""
    return 2.0 * _ops(w).sqrt(w * (1.0 - w))


def distinguishability(psi_e: EntangledState) -> float:
    """Trace-norm distance ``sqrt(1 - 4 c**2 w+ w-)`` of the meter states conditioned on the system basis.

    Computed as ``hypot(P, V sqrt((1 - c)(1 + c)))`` from the predictability
    ``P = |2 w+ - 1|`` and visibility ``V = 2 sqrt(w+ w-)`` of the pure system
    state: ``1 - 4 c**2 w+ w- = P**2 + V**2 (1 - c**2)`` is a sum of squares,
    which does not cancel where ``D`` is small and never falls below ``P``.
    """
    w, c = psi_e.w_plus, psi_e.c
    return _hypot(_imbalance(w), _pure_visibility(w) * _ops(c).sqrt(_one_minus_sq(c)))


def entangled_visibility(psi_e: EntangledState) -> float:
    """Fringe visibility ``V_e = c V = 2 c sqrt(w+ w-)`` left to the system after the meter is traced out.

    Together with the distinguishability it saturates ``D**2 + V_e**2 = 1`` for every ``(w_plus, c)``.
    """
    return psi_e.c * _pure_visibility(psi_e.w_plus)


def _readout_overlap(c: float) -> float:
    """The valid overlap ``c``, or a stack of them, if the meter readout takes it: ``0 < c < 1``.

    Otherwise a :class:`SingularConfigurationError`; a stack raises that of its first element outside the range, as
    that element alone does.
    """
    _ops(c).require((c > 0.0) & (c < 1.0), lambda c: SingularConfigurationError(
        f"meter readout requires 0 < c < 1, got c = {c!r}: at c = 0 the rotation "
        "angle equation degenerates and at c = 1 the rescaled value diverges"
    ), c)
    return c


def meter_projectors(c: float) -> Observable:
    """Meter readout making the first-observable estimate unbiased, as an observable on the meter.

    Its eigenbasis is the ``(|m+>, |m_perp>)`` basis rotated by ``gamma``:
    column 0 is ``m1 = (cos gamma, sin gamma)`` and column 1 is
    ``m2 = (-sin gamma, cos gamma)``. The rotation angle solves
    ``cot(2 gamma) = -sqrt(1 - c**2) / c`` with the branch
    ``gamma = (pi - arcsin c) / 2`` in (pi/4, pi/2), and the rescaled outcome
    magnitude is ``a_prime = GAUGE / sqrt(1 - c**2)``, below 3.4e7 for every
    double ``c < 1``. Of the two outcome sign assignments compatible with the
    angle equation, the one under which the readout mean reproduces the sharp
    mean ``GAUGE (w+ - w-)`` for every input state puts ``-a_prime`` on
    ``m1`` (``val_plus``) and ``+a_prime`` on ``m2`` (``val_minus``); the
    ``unbiasedness`` suite of :mod:`qudual.verify` checks that choice by
    explicit projection.

    It takes one overlap, and ``asin`` is not in the tables of
    :func:`qudual.linalg._ops`: NumPy's ``arcsin`` does not round as
    ``math.asin`` does (on NumPy 2.4 with AVX-512 it differed on 16614 of
    200000 uniform overlaps), so a stacked readout would not keep the bits of
    each overlap alone.
    """
    cc = _readout_overlap(check_scalar(_one_value(c, "meter_projectors takes one overlap c"), "c"))
    gamma = 0.5 * (math.pi - math.asin(cc))
    a_prime = GAUGE / math.sqrt(_one_minus_sq(cc))
    cos, sin = math.cos(gamma), math.sin(gamma)
    return Observable._from_checked(-a_prime, a_prime, (((cos, 0.0), (sin, 0.0)), ((-sin, 0.0), (cos, 0.0))))


def estimate_a(psi_e: EntangledState) -> tuple[float, float]:
    """Mean and variance of the rescaled first-observable readout.

    With outcome values ``+-a``, ``a = GAUGE``, returns the closed forms
    ``mean = a (w+ - w-)`` and ``variance = a**2 (c**2 / (1 - c**2) + 4 w+ w-)``:
    floats for one state, and for a stack arrays of its shape, whose elements
    have the bits of their states alone. Requires ``0 < c < 1``; both
    endpoints are singular for this readout, and a stack raises the
    :class:`SingularConfigurationError` of its first element at one.
    The explicit projection route to both moments runs in :mod:`qudual.verify`.
    """
    w, c = psi_e.w_plus, _readout_overlap(psi_e.c)
    a = GAUGE
    mean = a * (2.0 * w - 1.0)
    var = a * a * (c * c / _one_minus_sq(c) + 4.0 * w * (1.0 - w))
    return mean, var


def estimate_b(psi_e: EntangledState, varrho: float) -> tuple[float, float]:
    """Mean and variance of the rescaled complementary-observable readout.

    The system is read in the complementary basis at phase ``varrho`` and the
    outcomes ``+-b``, ``b = GAUGE``, are rescaled to ``+-b / c``, which makes
    the mean equal to the sharp mean ``2 b sqrt(w+ w-) cos(theta - varrho)``
    of the initial pure state for every ``c``. Returns the closed forms of
    that mean and of ``variance = b**2 (1 / c**2 - 4 w+ w- cos(theta - varrho)**2)``:
    floats for one state and phase, and arrays where the state is a stack or
    ``varrho`` an array, which broadcast together, each element with the bits
    of its state and phase alone. Requires ``c > 0``, and ``1 / c``, twice the
    rescaled outcome value ``b / c``, may not exceed :data:`MAX_RESCALED_VALUE`,
    which a ``c`` below about 7.46e-155 would: there the ``1 / c**2`` of the
    variance is not finite. The rules on ``c`` come before ``varrho`` is
    read, and a stack raises the first rule that any element breaks, at the
    first element that breaks it, with the error that element raises alone.
    The explicit projection route to both moments runs in :mod:`qudual.verify`.
    """
    w, t, c = psi_e.w_plus, psi_e.theta, psi_e.c
    b = GAUGE
    ops = _ops(w, varrho)
    ops.require(c > 0.0, lambda c: SingularConfigurationError(
        f"complementary readout requires c > 0, got c = {c!r}: the rescaled outcome values +-b/c diverge"
    ), c)
    ops.require(ops.divide(1.0, c) <= MAX_RESCALED_VALUE, lambda c: ParameterError(
        f"c = {c!r} violates the bound 1 / c <= {MAX_RESCALED_VALUE:.6g}: "
        "the 1 / c**2 of the variance would not be finite"
    ), c)
    t, v = ops.broadcast(t, ops.check(varrho, "varrho") % TWO_PI)
    delta = t - v
    root = ops.sqrt(w * (1.0 - w))
    cos = ops.cos(delta)
    mean = 2.0 * b * root * cos
    var = b * b * (1.0 / (c * c) - 4.0 * w * (1.0 - w) * (cos * cos))
    return mean, var


def simultaneous_product(w_plus: float, c: float) -> float:
    """Normalized variance product of the two readouts at the proper phase.

    For ``0 < c < 1`` returns
    ``(c**2 / (4 (1 - c**2)) + w+ w-) * (1 / (4 c**2) - w+ w-)``, the product
    of both readout variances normalized by the squared outcome spreads, for
    the proper complementary phase ``varrho = theta``. At the endpoints the
    analytic limit is returned: ``math.inf`` where the product diverges, and
    1/16 in the two finite corner cases (``c -> 0`` on an eigenstate,
    ``c -> 1`` at equal populations). A ``c`` whose square underflows takes
    the ``c -> 0`` limit. One ``(w_plus, c)`` gives a float; arrays, which
    broadcast, give an array whose elements have the bits of their values
    alone, and raise the :class:`ParameterError` of the first value outside
    [0, 1], as that value alone does.
    """
    ops = _ops(w_plus, c)
    w, cc = ops.broadcast(ops.check(w_plus, "w_plus", 0.0, 1.0), ops.check(c, "c", 0.0, 1.0))
    return _variance_product(w * (1.0 - w), _imbalance(w), cc)


def _variance_product(k, p, c):
    """:func:`simultaneous_product` of checked values: ``k = w (1 - w)``, ``p = |2 w - 1|`` and ``c``, which broadcast.

    The search of :func:`qudual.verify.minimum_product_routes` calls it at each step, with ``k`` and ``p`` of its
    populations computed once.
    """
    ops = _ops(k, c)
    c2, s = c * c, _one_minus_sq(c)
    den = 16.0 * c2 * s  # 0 exactly where c**2 is 0 and where c is 1, the endpoints; subnormal below c ~ 1.5e-154
    # The factored form (c^2 + 4K(1-c^2)) ((1-c^2) + c^2 P^2) / (16 c^2 (1-c^2)) adds
    # only nonnegative terms; the direct brackets cancel catastrophically near c = 1.
    value = ops.divide((c2 + 4.0 * k * s) * (s + c2 * (p * p)), den + (den == 0.0))  # den 1 at the endpoints
    # The limit is finite where k = c**2 / 4: on an eigenstate as c**2 -> 0, at equal populations as c -> 1.
    return ops.where(den > 0.0, value, ops.where(k == 0.25 * c2, 1.0 / 16.0, math.inf))


def optimal_entanglement(w_plus: float) -> float:
    """Meter overlap minimizing the simultaneous variance product.

    Uses the regularized form ``c**2 = V / (P + V)`` with the predictability
    and visibility of the initial pure state, which stays finite at
    ``w+ w- = 1/8`` where the direct expression is 0/0. The minimum,
    :func:`simultaneous_product` at this overlap, is ``(1 + V P)**2 / 16``;
    the ``minimum_product`` suite of :mod:`qudual.verify` checks it against
    the long closed form and a golden-section search over ``c``. Returns 1
    at ``w_plus = 1/2`` and 0 at the boundary ``w_plus in {0, 1}``; both are
    limits where the minimum value is 1/16 but the configuration itself is
    singular for one of the readouts. ``P + V >= 1`` for every population, so
    the ratio is never 0/0. One population gives a float; an array gives an
    array whose elements have the bits of their populations alone, and raises
    the :class:`ParameterError` of the first population outside [0, 1].
    """
    ops = _ops(w_plus)
    w = ops.check(w_plus, "w_plus", 0.0, 1.0)
    v = _pure_visibility(w)
    return ops.sqrt(v / (_imbalance(w) + v)) + 0.0  # + 0.0: a zero overlap is +0, at w_plus = -0.0 too
