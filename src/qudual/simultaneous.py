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

The which-way quantities come from one array kernel,
:func:`entangled_arrays`, for stacked ``(w_plus, theta, c)``;
:class:`EntangledState`, :func:`distinguishability` and
:func:`entangled_visibility` run its expressions on the Python floats of one
state. The meter readout is an :class:`~qudual.states.Observable` on the
meter qubit, built by :func:`meter_projectors`.

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
from .errors import ParameterError, SingularConfigurationError, check_array, check_scalar
from .linalg import _from_entries, _hypot, _ops, _projector, _read_only, _trace_norm
from .states import GAUGE, TWO_PI, Observable, _pure_parts

# Largest rescaled outcome value whose square is a finite double.
MAX_RESCALED_VALUE = math.sqrt(sys.float_info.max)

__all__ = [
    "EntangledState",
    "distinguishability",
    "entangled_visibility",
    "entangled_arrays",
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
    amplitudes are computed from them, once.
    """

    w_plus: float
    theta: float
    c: float

    def __post_init__(self) -> None:
        w = check_scalar(self.w_plus, "w_plus", 0.0, 1.0)
        cc = check_scalar(self.c, "c", 0.0, 1.0)
        t = check_scalar(self.theta, "theta") % TWO_PI
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


def _distinguishability(rows: tuple):
    """Trace-norm distance of the meter blocks ``psi[..., s, :] psi[..., s, :]^dagger`` of the two system states."""
    plus, minus = (_projector(*row) for row in rows)
    return _trace_norm(*(p - q for p, q in zip(plus, minus)))


def _reduced(rows: tuple) -> tuple:
    """Parts ``(a, d, x, y)`` of the system matrices left by tracing the meter out of ``psi[..., system, meter]``.

    The sum over meter states ``m`` of ``psi[..., :, m] psi[..., :, m]^dagger``, from the :func:`_amplitudes` rows.
    """
    (s00, s01), (s10, s11) = rows
    first, second = _projector(s00, s10), _projector(s01, s11)
    return tuple(p + q for p, q in zip(first, second))


def _visibility(parts):
    """Fringe visibility ``2 |x + i y|`` of system matrices given as parts ``(a, d, x, y)``."""
    return 2.0 * _hypot(*parts[2:])


def distinguishability(psi_e: EntangledState) -> float:
    """Trace-norm distance of the meter states conditioned on the system basis.

    Evaluates ``|| <plus|rho_e|plus> - <minus|rho_e|minus> ||_1`` on the meter
    space; equals ``sqrt(1 - 4 c**2 w+ w-)``, which never falls below the
    predictability of the system state.
    """
    return _distinguishability(psi_e._rows)


def entangled_visibility(psi_e: EntangledState) -> float:
    """Fringe visibility left to the system after the meter is traced out.

    Equals ``2 c sqrt(w+ w-)``; together with the distinguishability it
    saturates ``D**2 + V_e**2 = 1`` for every ``(w_plus, c)``.
    """
    return _visibility(_reduced(psi_e._rows))


def entangled_arrays(
    w_plus, theta, c
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Which-way quantities of stacked entangled states, elementwise.

    ``w_plus``, ``theta`` and ``c`` broadcast together; an element that
    :class:`EntangledState` would reject raises the same :class:`ParameterError`.
    Returns float arrays ``(d, v_e, w_marg, rho12_marg, theta_marg)``: the
    :func:`distinguishability` and :func:`entangled_visibility` of each
    state, and the fields of the system state left by tracing out the meter,
    which keeps the populations and shrinks the coherence to
    ``c sqrt(w+ w-)``. The amplitudes are :class:`EntangledState`'s, the
    distinguishability is the trace norm of the difference of the two meter
    blocks, and the visibility and the marginal come from the parts ``(a, d, x, y)``
    of the partial trace: ``w_marg = a``, ``rho12_marg = |x + i y|`` held to its
    positivity bound and ``theta_marg`` the wrapped phase of ``x - i y`` (0 where
    ``rho12_marg = 0``). Each element has the bits of the scalar functions on
    that one state, which evaluate the same expressions.
    """
    w = check_array(w_plus, "w_plus", 0.0, 1.0)
    cc = check_array(c, "c", 0.0, 1.0)
    t = np.remainder(check_array(theta, "theta"), TWO_PI)
    rows = _amplitudes(*np.broadcast_arrays(w, t, cc))
    a, _, x, y = parts = _reduced(rows)
    v_e = _visibility(parts)
    r = np.minimum(0.5 * v_e, np.sqrt(a * (1.0 - a)))
    return _distinguishability(rows), v_e, a, r, np.where(r > 0.0, np.remainder(np.arctan2(-y, x), TWO_PI), 0.0)


def _readout_overlap(c: float) -> float:
    cc = check_scalar(c, "c")
    if not 0.0 < cc < 1.0:
        raise SingularConfigurationError(
            f"meter readout requires 0 < c < 1, got c = {cc!r}: at c = 0 the rotation "
            "angle equation degenerates and at c = 1 the rescaled value diverges"
        )
    return cc


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
    """
    cc = _readout_overlap(c)
    gamma = 0.5 * (math.pi - math.asin(cc))
    a_prime = GAUGE / math.sqrt(_one_minus_sq(cc))
    cos, sin = math.cos(gamma), math.sin(gamma)
    return Observable._from_checked(-a_prime, a_prime, (((cos, 0.0), (sin, 0.0)), ((-sin, 0.0), (cos, 0.0))))


def estimate_a(psi_e: EntangledState) -> tuple[float, float]:
    """Mean and variance of the rescaled first-observable readout.

    With outcome values ``+-a``, ``a = GAUGE``, returns the closed forms
    ``mean = a (w+ - w-)`` and ``variance = a**2 (c**2 / (1 - c**2) + 4 w+ w-)``.
    Requires ``0 < c < 1``; both endpoints are singular for this readout.
    The explicit projection route to both moments runs in :mod:`qudual.verify`.
    """
    cc = _readout_overlap(psi_e.c)
    a = GAUGE
    w = psi_e.w_plus
    mean = a * (2.0 * w - 1.0)
    var = a * a * (cc * cc / _one_minus_sq(cc) + 4.0 * w * (1.0 - w))
    return mean, var


def estimate_b(psi_e: EntangledState, varrho: float) -> tuple[float, float]:
    """Mean and variance of the rescaled complementary-observable readout.

    The system is read in the complementary basis at phase ``varrho`` and the
    outcomes ``+-b``, ``b = GAUGE``, are rescaled to ``+-b / c``, which makes
    the mean equal to the sharp mean ``2 b sqrt(w+ w-) cos(theta - varrho)``
    of the initial pure state for every ``c``. Returns the closed forms of
    that mean and of ``variance = b**2 (1 / c**2 - 4 w+ w- cos(theta - varrho)**2)``.
    Requires ``c > 0``, and the rescaled outcome value ``b / c`` may not
    exceed :data:`MAX_RESCALED_VALUE`, which an underflowing ``c`` would. The
    explicit projection route to both moments runs in :mod:`qudual.verify`.
    """
    cc = psi_e.c
    if cc <= 0.0:
        raise SingularConfigurationError(
            f"complementary readout requires c > 0, got c = {cc!r}: the rescaled "
            "outcome values +-b/c diverge"
        )
    b = GAUGE
    if not b / cc <= MAX_RESCALED_VALUE:
        raise ParameterError(
            f"c = {cc!r} violates the bound {b} / c <= {MAX_RESCALED_VALUE:.6g}: "
            "the rescaled outcome value or its square would not be finite"
        )
    w = psi_e.w_plus
    delta = psi_e.theta - check_scalar(varrho, "varrho") % TWO_PI
    root = math.sqrt(w * (1.0 - w))
    cos = math.cos(delta)
    mean = 2.0 * b * root * cos
    var = b * b * (1.0 / (cc * cc) - 4.0 * w * (1.0 - w) * (cos * cos))
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
    # The factored form (c^2 + 4K(1-c^2)) ((1-c^2) + c^2 P^2) / (16 c^2 (1-c^2)) adds
    # only nonnegative terms; the direct brackets cancel catastrophically near c = 1.
    s = _one_minus_sq(cc)
    p = _imbalance(w)
    return (c2 + 4.0 * k * s) * (s + c2 * (p * p)) / (16.0 * c2 * s)


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
    singular for one of the readouts.
    """
    w = check_scalar(w_plus, "w_plus", 0.0, 1.0)
    v = 2.0 * math.sqrt(w * (1.0 - w))
    return math.sqrt(v / (_imbalance(w) + v)) if v > 0.0 else 0.0
