"""Deterministic self-check suites over every closed form in the package.

Each suite draws its inputs from a seeded counter-based generator, so a run
is reproducible byte for byte given the seed and level. ``fast`` keeps every
suite below a second; ``full`` runs the sizes used for sign-off, including a
million-shot sampling pass. :data:`SUITE_NAMES` is the one registry of
sign-off checks: :func:`run_suite` runs one suite on its own stream of the
seed, and ``qudual verify`` runs them all through :func:`run_suites`.

A suite takes ``(tally, run, rng)``, where ``run`` is the level's ``_SIZES``
row plus ``seed``, read only by ``monte_carlo``, and ``corrupt``, read only
by ``duality``, whose bound it makes impossible so that a run shows how
failures are reported. Every check is one ``(deviation, tolerance,
label[, where])`` entry of :meth:`_Tally.check`, scalar or stacked, and
passes where ``deviation <= tolerance``; NaN fails. A bound is a signed
deviation, an exact identity has tolerance 0, a flag is recorded through the
number behind it, and a strict check needs a negative deviation.
:func:`_near` makes the entry ``|value - target|``, whose notes end in
``value vs target``. Each tolerance is named once, in the table below.

The library computes each closed form once; the independent routes to them
live here. :func:`projected_readout_moments` reaches both readout moments by
explicit projection, and :func:`minimum_product_routes` reaches the minimum
simultaneous product through the long closed form, a golden-section search
over ``c`` and the two compact candidates, each route one entry of its tuple
for the ``minimum_product`` suite to check. :func:`which_way_routes` reaches
the distinguishability through the trace norm of the meter blocks of an
:class:`EntangledState`, and the entangled visibility through the partial
trace over the meter, both from the real parts of its amplitudes, for the
``entangled_duality`` suite. None of the three is in ``__all__``.

A suite hands each grid's checks to :meth:`_Tally.check` as the entries of
one call, with the checks, counts and notes of a loop over the grid, and
calls each function under test once on the grid's stack:
:func:`visibility_oracle` scans every state of ``fringe_oracle`` in one
call, and :func:`minimum_product_routes` runs the golden-section searches of
its populations in lockstep, one :func:`simultaneous_product` call per step
over the stack. Those that take one value stay in loops:
:func:`meter_projectors` and :func:`intelligent_state`. The
routes here write every product of matrix entries in real parts, as the
library's kernels do, so that no BLAS kernel or SIMD level moves their bits;
``linalg_core``'s LAPACK references are the exception, by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .duality import family_duality, predictability, visibility, visibility_oracle
from .errors import ContractViolationError, ParameterError
from .linalg import _eigenvalues, _entries, _hypot, _parts, _projector, _split, _times, _times_conj, assert_hermitian
from .linalg import _ops, trace_norm
from .simultaneous import (
    EntangledState,
    distinguishability,
    entangled_visibility,
    estimate_a,
    estimate_b,
    meter_projectors,
    optimal_entanglement,
    simultaneous_product,
)
from .states import GAUGE, REFERENCE, TWO_PI, DensityMatrix, complementary_observable, pure_state
from .uncertainty import intelligent_state, is_residual, mean_var, normalized_product_bounds, robertson

__all__ = ["SuiteResult", "run_suite", "run_suites", "render_report", "SUITE_NAMES"]

# Probe states for the meter sign check: populations and phases chosen so
# the readout mean is nonzero and sign-sensitive on the grid.
_PROBE_W = (0.25, 0.5, 0.75)
_PROBE_THETA = (0.0, 2.0, 4.0)
_PROBE_C = (0.01, *(k / 10.0 for k in range(1, 10)), 0.99, 0.99999)

# Tolerances of the checks, one row per meaning; a "scaled" row is multiplied by
# max(1, the magnitudes it compares). The two that shrink with a level's sizes
# are keys of its _SIZES row: fringe_tol (visibility_oracle's contrast against
# visibility) and sampled_fringe_tol (sample_fringe's contrast against the coherence).
_ROUNDOFF = 1e-12  # two routes to one unit-scale value: round trips, identities, readout moments scaled
_DIAGONAL_TRACE_NORM = 1e-14  # trace_norm of a diagonal matrix against its exact value
_LAPACK = 1e-10  # eigenvalues and trace norms against LAPACK, scaled by the largest entry
_BOUND = 1e-12  # past a proven bound: P^2 + V^2 <= 1, Robertson slack >= 0, the product bounds, P <= D
_SATURATION = 1e-10  # |P^2 + V^2 - 1| of a pure state (a mixed one misses by more), the slack of a saturating state
_PURE = 1e-12  # purity within this of 1 marks a pure state for the saturation checks
_EIGEN = 1e-10  # an intelligent state's eigen-equation residual, and its stretch against the variance ratio, scaled
_PHASE = 1e-9  # |exp(i theta') - exp(i theta)| of a phase read back by _density_params
_TRACE = 1e-10  # |tr(m) - 1| of a matrix that _density_params reads as a state
_GRID_ANGLE = 1e-9  # visibility_oracle's coupling angle, on top of one grid step
ROUTE_AGREEMENT_TOL = 1e-9  # the minimum product's routes: compact form, golden search, long form scaled
_EXACT = 0.0  # an identity that holds bit for bit
_STRICT = -math.ulp(0.0)  # a strict check, or a value that must miss its target: the deviation is negative
_GOLDEN_XTOL = 1e-10  # not a check: the bracket width at which the golden-section search stops

# Sweep sizes per level. fast keeps each suite under a second; full uses the
# sign-off sizes.
_SIZES = {
    "fast": {
        "duality": 2000,
        "robertson": 2000,
        "fringe_states": 4,
        "fringe_grid": 256,
        "fringe_tol": 2e-3,
        "extremality_w": 9,
        "mc_n": 20000,
        "sampled_fringe_tol": 0.1,
    },
    "full": {
        "duality": 10000,
        "robertson": 10000,
        "fringe_states": 20,
        "fringe_grid": 512,
        "fringe_tol": 1e-3,
        "extremality_w": 21,
        "mc_n": 1000000,
        "sampled_fringe_tol": 0.02,
    },
}


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one suite: counts plus at most a few failure notes."""

    name: str
    checks: int
    failures: int
    notes: tuple[str, ...] = ()


class _Tally:
    """Accumulates check outcomes for one suite."""

    _MAX_NOTES = 6

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures = 0
        self.notes: list[str] = []

    def check(self, *entries: tuple) -> None:
        """Record one check per element of each ``(deviation, tolerance, label[, where])`` entry.

        An entry's arrays broadcast, to as many elements as every other entry
        of the call. An element passes where ``deviation <= tolerance`` (NaN
        fails) and counts where ``where`` holds. ``label`` is a failure's note,
        or ``label(i)`` makes it for flat element ``i``. Notes come as a loop
        over the elements would make them: by element, then by entry.
        """
        masks = []
        for deviation, tolerance, _, *where in entries:
            ok, applies = np.broadcast_arrays(np.less_equal(deviation, tolerance), where[0] if where else True)
            self.checks += int(np.count_nonzero(applies))
            masks.append((applies & ~ok).ravel())
        failed = list(zip(*np.nonzero(np.stack(masks, axis=-1))))
        self.failures += len(failed)
        for i, k in failed[: max(self._MAX_NOTES - len(self.notes), 0)]:
            label = entries[k][2]
            self.notes.append(label(int(i)) if callable(label) else label)

    def raises(self, exc: type, fn, label: str) -> None:
        try:
            fn()
            note = f"{label}: no exception"
        except exc:
            note = None
        except Exception:
            note = f"{label}: wrong exception type"
        self.check((float(note is not None), _EXACT, note))

    def result(self) -> SuiteResult:
        return SuiteResult(self.name, self.checks, self.failures, tuple(self.notes))


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``rng.uniform(lo, hi)`` from the unit draws ``u`` of ``rng.random``, bit for bit."""
    return lo + (hi - lo) * u


def _random_states(rng: np.random.Generator, n: int, phases: int = 0) -> tuple[DensityMatrix, np.ndarray]:
    """``n`` random states, alternately clearly mixed (even index) and pure (odd index), as one stacked state.

    A mixed state draws ``w_plus`` from [0.05, 0.95], its coherence as a
    fraction in [0, 0.99) of the positivity bound, and ``theta`` from
    [0, 2 pi); a pure state draws ``w_plus`` from [0, 1) and ``theta``. After
    each state, ``phases`` more phases are drawn from [0, 2 pi). Every value
    is one ``rng.uniform`` draw, in that order, so the batch consumes the
    stream a loop over the states would. Returns the stacked
    :class:`DensityMatrix` and the phases as an ``(n, phases)`` array.
    """
    pure = np.arange(n) % 2 == 1
    sizes = np.where(pure, 2, 3) + phases
    start = np.cumsum(sizes) - sizes  # each state's first draw
    u = rng.random(int(sizes.sum()))
    w = np.where(pure, _uniform(u[start], 0.0, 1.0), _uniform(u[start], 0.05, 0.95))
    fraction = np.where(pure, 1.0, _uniform(u[start + 1], 0.0, 0.99))
    rho12 = fraction * np.sqrt(w * (1.0 - w))
    after = start + np.where(pure, 1, 2)  # theta, then the extra phases
    draws = _uniform(u[after[:, None] + np.arange(1 + phases)], 0.0, TWO_PI)
    return DensityMatrix(w, rho12, draws[:, 0]), draws[:, 1:]


def _near(value, target, tolerance, label) -> tuple:
    """The check entry ``|value - target| <= tolerance``, noting ``value vs target`` as Python floats."""
    return abs(value - target), tolerance, lambda i: "{}: {!r} vs {!r}".format(
        label(i) if callable(label) else label, *(x.flat[i].item() for x in np.broadcast_arrays(value, target))
    )


def _matrix_parts(m: np.ndarray) -> tuple:
    """Entries ``((m00, m01), (m10, m11))`` of a 2x2 matrix or a stack, each as parts ``(re, im)``."""
    return tuple(tuple(map(_split, row)) for row in _entries(m))


def _product(p: tuple, q: tuple) -> tuple:
    """Entries of the matrix product ``p q`` as parts, from entries as parts: each a sum of two :func:`_times`."""
    terms = [[(_times(p[i][0], q[0][j]), _times(p[i][1], q[1][j])) for j in range(2)] for i in range(2)]
    return tuple(tuple((ar + br, ai + bi) for (ar, ai), (br, bi) in row) for row in terms)


def _weight(z: tuple, u: tuple):
    """``|<u|z>|**2 = |sum_j z_j conj(u_j)|**2`` of two vectors given as parts, by :func:`_times_conj`."""
    re, im = (p + q for p, q in zip(*(_times_conj(x, y) for x, y in zip(z, u))))
    return re * re + im * im


def projected_readout_moments(psi: np.ndarray, c, varrho) -> tuple:
    """Mean and variance of both rescaled readouts from explicit projections.

    ``psi`` holds the amplitudes ``psi[..., system, meter]`` of one
    :attr:`EntangledState.amplitudes` or a stack, with meter overlaps ``c``
    and phases ``varrho`` broadcast to it. The meter readout projects on the
    eigenvectors of :func:`meter_projectors`, built once per distinct ``c``
    and indexed for every element; the system readout projects on those of
    the family member at each ``varrho``, with outcome values ``+-GAUGE / c``.
    Every projection is a sum of :func:`_times_conj` products of the real
    parts of the amplitudes and the eigenvectors, with no complex multiply.
    Returns ``((mean_a, var_a), (mean_b, var_b))`` as arrays, the independent
    route to :func:`estimate_a` and :func:`estimate_b`; an element rounds as
    that state alone does.
    """
    c = np.asarray(c, dtype=float)
    overlaps, c_at = np.unique(c.ravel(), return_inverse=True)
    meters = [meter_projectors(x) for x in overlaps.tolist()]
    # Outcome k of each readout: column k of the meter basis, of the member basis, entries as parts.
    meter = np.moveaxis(np.array([mp._columns for mp in meters])[c_at], 0, -1).reshape((2, 2, 2) + c.shape)
    values = np.array([(mp.val_plus, mp.val_minus) for mp in meters]).T[:, c_at].reshape((2,) + c.shape)
    members = complementary_observable(varrho)._columns
    rows = [[_split(psi[..., s, j]) for j in range(2)] for s in range(2)]  # system s, meter j
    p_a = [sum(_weight(z, u) for z in rows) for u in meter]  # summed over the system states
    p_b = [sum(_weight(z, u) for z in zip(*rows)) for u in members]  # summed over the meter states
    mean_a = values[0] * p_a[0] + values[1] * p_a[1]
    var_a = values[0] * values[0] * p_a[0] + values[1] * values[1] * p_a[1] - mean_a * mean_a
    value = GAUGE / c
    mean_b = value * (p_b[0] - p_b[1])
    var_b = value * value * (p_b[0] + p_b[1]) - mean_b * mean_b
    return (mean_a, var_a), (mean_b, var_b)


def _golden_minimize(f, lo, hi):
    """Golden-section minimum value of a unimodal function on ``[lo, hi]``, or of each of a stack, in lockstep.

    ``lo`` and ``hi`` are floats, or arrays of one shape with one search per element, and ``f`` takes points of that
    kind. Each step makes one ``f`` call, at every search's new point. A search whose bracket is no wider than
    :data:`_GOLDEN_XTOL` is frozen while the others go on, so each ends where it would alone, with its bits.
    """
    ops = _ops(lo, hi)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while ops.any(moving := b - a > _GOLDEN_XTOL):
        left = f1 <= f2  # keep [a, x2] and set x1 afresh, else keep [x1, b] and set x2 afresh
        a, b = ops.where(moving, ops.where(left, a, x1), a), ops.where(moving, ops.where(left, x2, b), b)
        step = invphi * (b - a)
        x = ops.where(left, b - step, a + step)
        fx = f(x)
        x1, x2 = ops.where(left, x, x2), ops.where(left, x1, x)
        f1, f2 = ops.where(left, fx, f2), ops.where(left, f1, fx)
    return f(0.5 * (a + b))


def minimum_product_routes(w_plus) -> tuple:
    """Every route to the minimum over ``c`` of the simultaneous product at fixed populations.

    Returns ``(value, long_form, numeric_min, compact_plus, compact_minus)``:
    the product at the regularized optimal overlap; the direct closed
    expression in the populations, NaN where that representation is 0/0
    ill-conditioned; a golden-section minimization of the product over
    ``c``; and the two compact candidates ``(1 +- V P)**2 / 16``. Nothing
    is compared here: the ``minimum_product`` suite checks each route
    against the others within :data:`ROUTE_AGREEMENT_TOL`. One population
    gives five Python floats; a stack gives five arrays of its shape, whose
    elements have the bits of their populations alone, from one lockstep
    search, which runs only if some optimal overlap is interior.
    """
    ops = _ops(w_plus)
    w = ops.real(w_plus, "w_plus")
    k = w * (1.0 - w)
    c_opt = optimal_entanglement(w)
    value = simultaneous_product(w, c_opt)

    # Direct closed expression; its denominator vanishes at k = 1/8 (where
    # the form is 0/0 with a finite limit) and at k in {0, 1/4}, so it is
    # only evaluated where it is well-conditioned, over a denominator of 1 elsewhere.
    g = 1.0 - 4.0 * k
    root = ops.sqrt(ops.maximum(k * g, 0.0))
    den = 16.0 * (-4.0 * k * g + root)
    ill = abs(den) < 1e-6
    num = -16.0 * k * k * (g * g) + (1.0 - 12.0 * k * g) * root
    long_form = ops.where(ill, math.nan, num / (den + ill))

    # Boundary populations: the optimum sits at an endpoint of c where the
    # finite limit is known exactly, so the numeric route collapses to it;
    # in a stack, their brackets are closed from the start.
    interior = (c_opt > 0.0) & (c_opt < 1.0)
    numeric_min = value
    if ops.any(interior):
        lo, hi = ops.where(interior, 1e-9, 0.5), ops.where(interior, 1.0 - 1e-9, 0.5)
        numeric_min = ops.where(interior, _golden_minimize(lambda c: simultaneous_product(w, c), lo, hi), value)

    v = 2.0 * ops.sqrt(k)
    p = ops.sqrt(ops.maximum(g, 0.0))
    plus, minus = 1.0 + v * p, 1.0 - v * p
    return value, long_form, numeric_min, plus * plus / 16.0, minus * minus / 16.0


def which_way_routes(psi_e: EntangledState) -> tuple:
    """The distinguishability and the reduced system state of ``psi_e``, by its 2x2 matrices.

    From the real parts of the amplitudes ``psi[..., system, meter]`` that
    :attr:`EntangledState.amplitudes` lays out, returns the trace norm (the
    :func:`~qudual.linalg.trace_norm` sum of absolute eigenvalues, bit for bit,
    with no matrix laid out) of the difference of the meter blocks ``psi[..., s, :] psi[..., s, :]^dagger`` of the two
    system states, and the parts ``(a, d, x, y)`` of the system matrices
    ``sum_m psi[..., :, m] psi[..., :, m]^dagger`` that tracing the meter out
    leaves: the routes to :func:`distinguishability`, to the population
    ``w_plus`` and, as ``2 |x + i y|``, to :func:`entangled_visibility`.
    """
    (p0, p1), (q0, q1) = psi_e._rows  # the amplitudes of |plus>, p, and of |minus>, q, on the two meter states
    big, small = _eigenvalues(*(u - v for u, v in zip(_projector(p0, p1), _projector(q0, q1))))
    return abs(big) + abs(small), tuple(u + v for u, v in zip(_projector(p0, q0), _projector(p1, q1)))


def _density_params(m: np.ndarray) -> tuple:
    """Parameters ``(w_plus, rho12, theta)`` read off explicit density matrices ``(..., 2, 2)``: the route back.

    Every matrix must pass :func:`~qudual.linalg.assert_hermitian` and have
    unit trace within 1e-10, or a :class:`ContractViolationError` names the
    first failure. Returns the populations and the magnitude and wrapped
    phase of the lower off-diagonal entry: Python floats for one matrix, with
    the bits of its element in a stack, and float arrays for a stack.
    """
    m = assert_hermitian(m, name="density matrix")
    tr = m[..., 0, 0].real + m[..., 1, 1].real
    bad = ~(np.abs(tr - 1.0) <= _TRACE)  # NaN fails too
    if bad.any():
        raise ContractViolationError(
            f"density matrix trace = {float(tr[bad].flat[0])!r} differs from 1 beyond {_TRACE:.1e}"
        )
    (a, _), (off, _) = _entries(m)
    r = _hypot(*_split(off))
    theta = np.where(r > 0.0, np.remainder(np.angle(off), TWO_PI), 0.0)
    return a.real, r, theta if m.ndim > 2 else float(theta)


def _suite_linalg_core(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    t.check(_near(trace_norm(np.diag([0.5, -0.5]).astype(complex)), 1.0, _DIAGONAL_TRACE_NORM, "trace norm diag"))

    psi0 = np.array([1.0, 0.0], dtype=complex)
    psi1 = np.array([0.6, 0.8], dtype=complex)
    diff = np.outer(psi0, psi0.conj()) - np.outer(psi1, psi1.conj())
    t.check(_near(trace_norm(diff), 1.6, _ROUNDOFF, "trace norm of projector difference"))

    # Real parts, then imaginary parts, of 200 random Hermitian matrices.
    normals = rng.normal(size=(200, 2, 2, 2))
    m = normals[:, 0] + 1j * normals[:, 1]
    m = m + m.conj().swapaxes(-1, -2)
    w = np.stack(_eigenvalues(*_parts(m)), axis=-1)
    tol = _LAPACK * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    ref = np.linalg.eigvalsh(m)[:, ::-1]
    sv = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
    norms = trace_norm(m)
    t.check(
        (np.abs(w - ref).max(axis=-1), tol, lambda i: f"eig against lapack #{i}"),
        # LAPACK's last bits differ between BLAS kernels, so its sum is noted to 12 digits.
        (np.abs(norms - sv), tol, lambda i: f"trace norm against svd #{i}: {float(norms[i])!r} vs {sv[i]:.12g}"),
    )


def _suite_state_round_trip(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    rho, _ = _random_states(rng, 500)
    m = rho.matrix
    back = DensityMatrix(*_density_params(m))
    (square, _), (_, last) = _product(_matrix_parts(m), _matrix_parts(m))  # tr(m m) is square + last
    phase_gap = np.abs(np.exp(1j * back.theta) - np.exp(1j * rho.theta))
    t.check(
        _near(back.w_plus, rho.w_plus, _ROUNDOFF, lambda i: f"round trip w_plus #{i}"),
        _near(back.rho12, rho.rho12, _ROUNDOFF, lambda i: f"round trip rho12 #{i}"),
        (phase_gap, _PHASE, lambda i: f"round trip theta #{i}", rho.rho12 > 1e-9),
        _near(square[0] + last[0], rho.purity, _ROUNDOFF, lambda i: f"purity trace identity #{i}"),
    )
    t.raises(ParameterError, lambda: DensityMatrix(1.2, 0.0), "w_plus above 1 rejected")
    t.raises(ParameterError, lambda: DensityMatrix(0.5, 0.6), "coherence above bound rejected")
    t.raises(
        ContractViolationError,
        lambda: _density_params(np.array([[0.5, 0.1j], [0.1j, 0.5]])),
        "non-hermitian matrix rejected",
    )


def _suite_duality(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    # The corrupt switch makes the upper bound impossible to meet; it exists
    # so the harness can confirm failures are actually reported.
    bound = -math.inf if run["corrupt"] else _BOUND
    rho, _ = _random_states(rng, run["duality"])
    p, v = predictability(rho), visibility(rho)
    sum_sq = p * p + v * v
    pure = rho.purity >= 1.0 - _PURE
    s = sum_sq.tolist()
    t.check(
        (sum_sq - 1.0, bound, lambda i: f"sum of squares bound #{i}: {s[i]!r}"),
        (np.maximum.reduce([-p, p - 1.0, -v, v - 1.0]), _EXACT, lambda i: f"P,V range #{i}"),
        (np.abs(sum_sq - 1.0), _SATURATION, lambda i: f"pure saturation #{i}: {s[i]!r}", pure),
        (sum_sq - (1.0 - _SATURATION), _STRICT, lambda i: f"mixed strict inequality #{i}: {s[i]!r}", ~pure),
    )


def _suite_complementary_family(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    rho, phases = _random_states(rng, 1000, phases=1)
    p, v = predictability(rho), visibility(rho)
    base = p * p + v * v
    p_b, v_b = family_duality(rho, phases[:, 0])
    proper_p, proper_v = family_duality(rho, rho.theta)
    erased_p, erased_v = family_duality(rho, rho.theta + math.pi / 2.0)
    t.check(
        _near(p_b * p_b + v_b * v_b, base, _ROUNDOFF, lambda i: f"family invariance #{i}"),
        _near(proper_p, v, _ROUNDOFF, lambda i: f"proper choice swaps V into P_B #{i}"),
        _near(proper_v, p, _ROUNDOFF, lambda i: f"proper choice swaps P into V_B #{i}"),
        _near(erased_p, 0.0, _ROUNDOFF, lambda i: f"erasure kills P_B #{i}"),
        _near(erased_v * erased_v, base, _ROUNDOFF, lambda i: f"erasure moves everything into V_B #{i}"),
    )

    # 50 members B(varrho) and their quarter-turn partners: [REFERENCE, B(varrho)] = +-i B(varrho +- pi/2).
    varrho = rng.uniform(0.0, TWO_PI, 50)
    member = complementary_observable(varrho)
    vp, vm = member.vec_plus, member.vec_minus
    # |<b+|b->| = |sum_i b-_i conj(b+_i)|, in real parts
    overlap = (_times_conj(_split(vm[:, i]), _split(vp[:, i])) for i in range(2))
    orthogonality = _hypot(*(p + q for p, q in zip(*overlap)))
    a, b = _matrix_parts(REFERENCE.matrix), _matrix_parts(member.matrix)
    comm = [[(u - x, v - y) for (u, v), (x, y) in zip(*rows)] for rows in zip(_product(a, b), _product(b, a))]
    partners = {h: _matrix_parts(complementary_observable(varrho + h * math.pi / 2.0).matrix) for h in (1, -1)}
    # the largest |comm - i h partner| of the four entries, each (re, im) - i h (x, y) = (re + h y, im - h x)
    miss = {h: np.sqrt(np.maximum.reduce([np.square(re + h * y) + np.square(im - h * x) for rows in zip(comm, partner)
                                          for (re, im), (x, y) in zip(*rows)])) for h, partner in partners.items()}
    t.check(
        (np.abs(np.abs(vp) - math.sqrt(0.5)).max(axis=-1), _ROUNDOFF, lambda i: f"unbiased member magnitudes #{i}"),
        _near(orthogonality, 0.0, _ROUNDOFF, lambda i: f"member orthogonality #{i}"),
        *((miss[h], _ROUNDOFF, lambda i, h=h: f"triplet commutator handedness={h} #{i}") for h in miss),
    )


def _suite_fringe_oracle(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    grid = run["fringe_grid"]
    angle_tol = TWO_PI / grid + _GRID_ANGLE  # one grid step, and round-off
    known = [pure_state(0.9), pure_state(0.5), DensityMatrix(0.7, 0.0)]  # contrasts 0.6, 1 and 0, exactly
    drawn, _ = _random_states(rng, run["fringe_states"])
    fields = ("w_plus", "rho12", "theta")
    rho = DensityMatrix(*(np.concatenate([[getattr(state, f) for state in known], getattr(drawn, f)]) for f in fields))
    v = visibility(rho)
    target = np.array([0.6, 1.0, 0.0, *v[3:]])
    v_hat, xi_hat = visibility_oracle(rho, grid_n=grid)
    xi = xi_hat.tolist()
    t.check(
        _near(v_hat, target, run["fringe_tol"], lambda i: f"oracle contrast state #{i}"),
        (np.abs(xi_hat - math.pi / 4.0), angle_tol, lambda i: f"oracle coupling angle state #{i}: {xi[i]!r}", v > 1e-3),
    )


def _suite_robertson(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    rho, phases = _random_states(rng, run["robertson"], phases=1)
    slack = robertson(rho, REFERENCE, complementary_observable(phases[:, 0])).slack
    # Slack has a closed form of its own for this pair: the coherence
    # deficit (w+ w- - rho12^2) / 4 at unit eigenvalue gaps.
    target = (rho.w_plus * rho.w_minus - rho.rho12 * rho.rho12) / 4.0
    s = slack.tolist()
    t.check(
        (-slack, _BOUND, lambda i: f"robertson bound #{i}: {s[i]!r}"),
        _near(slack, target, _ROUNDOFF, lambda i: f"robertson slack identity #{i}"),
        (np.abs(slack), _SATURATION, lambda i: f"pure state saturation #{i}: {s[i]!r}", rho.purity >= 1.0 - _PURE),
    )


def _suite_intelligent_states(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    varrho = 0.9
    b_obs = complementary_observable(varrho)
    ws = np.linspace(0.0, 1.0, 21).tolist()
    grids = {"IS1": ("w", ws), "IS2a": ("beta", np.linspace(0.0, math.pi / 2.0, 21).tolist()), "IS2b": ("w", ws)}
    # One row per state, (family, parameter, branch), in the order of a loop over branches, then families.
    rows = [(f, p, branch) for branch in (1, -1) for f, (_, grid) in grids.items() for p in grid]
    family, param, _ = zip(*rows)
    tag = [f"{f} {grids[f][0]}={p:.2f} br={b}" for f, p, b in rows]
    states = [intelligent_state(f, p, varrho, b) for f, p, b in rows]
    rho = DensityMatrix(*np.array([(st.state.w_plus, st.state.rho12, st.state.theta) for st in states]).T)
    report = robertson(rho, REFERENCE, b_obs)
    var_a, var_b, slack = report.var_a, report.var_b, report.slack
    # An infinite stretch marks an eigenvector of the member, where the
    # eigen-equation degenerates: that state is checked for Var(B) = 0
    # instead, and a zero stretch stands in for it in the arithmetic.
    lam = np.array([st.lam for st in states])
    finite = np.isfinite(lam)
    stand_in = np.where(finite, lam, 0.0)
    stretch = _hypot(*_split(stand_in))
    lam_sq = stretch * stretch
    res = is_residual(rho, stand_in, REFERENCE, b_obs)
    is1, is2b = (np.array(family) == f for f in ("IS1", "IS2b"))
    central = {("IS1", 0.5): "IS1 central point", ("IS2a", 0.0): "IS2a zero offset"}
    # IS1 runs along the floor of the normalized product, IS2b along its ceiling.
    side = {"IS1": "floor", "IS2b": "ceiling"}
    target = np.select([is1, is2b], normalized_product_bounds(np.where(is1 | is2b, param, 0.0)), math.nan)
    s, vb, r = slack.tolist(), var_b.tolist(), res.tolist()

    def product_label(i: int) -> str:
        return f"{family[i]} product sits on the {side[family[i]]} w={param[i]:.2f}"

    t.check(
        (
            np.where(np.isinf(lam), -math.inf, -stretch),
            -math.inf,
            lambda i: f"{central[family[i], param[i]]} has infinite stretch",
            np.array([key in central for key in zip(family, param)]),
        ),
        (
            np.abs(np.where(is1, lam.real, lam.imag)),
            _EXACT,
            lambda i: f"{family[i]} stretch is {'imaginary' if is1[i] else 'real'}",
        ),
        (np.abs(slack), _SATURATION, lambda i: f"{tag[i]} saturates the bound: {s[i]!r}"),
        (
            np.abs(var_b),
            _ROUNDOFF,
            lambda i: f"{tag[i]} singular point is an eigenstate of the member: {vb[i]!r}",
            ~finite,
        ),
        (res, _EIGEN, lambda i: f"{tag[i]} eigen-equation residual: {r[i]!r}", finite),
        (
            np.abs(lam_sq * var_b - var_a),
            _EIGEN * np.maximum(1.0, lam_sq),
            lambda i: f"{tag[i]} stretch matches variance ratio",
            finite,
        ),
        (*_near(var_a * var_b, target, _ROUNDOFF, product_label), ~np.isnan(target)),
    )


def _suite_product_bounds(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    w = np.array([s * s for s in map(math.sin, np.linspace(0.0, math.pi / 2.0, 201).tolist())])
    k = w * (1.0 - w)
    lo, hi = normalized_product_bounds(w)
    p = np.abs(2.0 * w - 1.0)
    v = 2.0 * np.sqrt(k)
    t.check(
        _near(lo, p * p * v * v / 16.0, _ROUNDOFF, lambda i: f"floor matches P^2 V^2 / 16 at w={w[i]:.4f}"),
        _near(hi, k / 4.0, _ROUNDOFF, lambda i: f"ceiling matches K/4 at w={w[i]:.4f}"),
    )

    # Every (w, delta) pair of pure states at theta = 0.6, and each w's erasure
    # member in the last column, in one kernel call over contiguous stacks.
    ws = np.linspace(0.08, 0.92, run["extremality_w"])
    deltas = np.linspace(0.0, math.pi / 2.0, 33).tolist()
    varrho = [0.6 - delta for delta in deltas] + [0.6 - math.pi / 2.0]
    w = np.repeat(ws, len(varrho))
    report = robertson(pure_state(w, 0.6), REFERENCE, complementary_observable(np.tile(varrho, ws.size)))
    prod = report.lhs.reshape(ws.size, len(varrho))
    lo, hi = normalized_product_bounds(ws)

    outside = np.maximum(lo[:, None] - prod, prod - hi[:, None])
    checks = []
    for j, delta in enumerate(deltas):
        checks.append((outside[:, j], _BOUND, lambda i, delta=delta: f"product within bounds w={ws[i]:.3f} d={delta:.3f}"))
        if delta == 0.0:
            checks.append(_near(prod[:, j], lo, _ROUNDOFF, lambda i: f"proper choice reaches the floor w={ws[i]:.3f}"))
    checks.append(_near(prod[:, -1], hi, _ROUNDOFF, lambda i: f"erasure choice reaches the ceiling w={ws[i]:.3f}"))
    t.check(*checks)


def _suite_entangled_duality(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    grid = np.linspace(0.0, 1.0, 51)
    w, c = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
    psi = EntangledState(w, 0.7, c)
    d, ve = distinguishability(psi), entangled_visibility(psi)
    d_route, (_, _, x, y) = which_way_routes(psi)

    def at(i: int) -> str:
        return f"w={w[i]:.2f} c={c[i]:.2f}"

    t.check(
        _near(d, d_route, _ROUNDOFF, lambda i: f"distinguishability by trace norm {at(i)}"),
        _near(ve, 2.0 * _hypot(x, y), _ROUNDOFF, lambda i: f"visibility by partial trace {at(i)}"),
        _near(d * d + ve * ve, 1.0, _ROUNDOFF, lambda i: f"erasure-free duality {at(i)}"),
        (np.abs(2.0 * w - 1.0) - d, _BOUND, lambda i: f"predictability below distinguishability {at(i)}"),
    )


def _suite_unbiasedness(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    varrho = math.pi / 5.0
    tenths = [k / 10.0 for k in range(1, 10)]
    thetas = [TWO_PI * j / 8.0 for j in range(8)]
    grid = [(w, theta, c) for w in tenths for theta in thetas for c in tenths]
    w, theta, c = np.array(grid).T
    psi = EntangledState(w, theta, c)
    closed = (*estimate_a(psi), *estimate_b(psi, varrho))
    sharp_b, _ = mean_var(pure_state(w, theta), complementary_observable(varrho))
    projected = np.ravel(projected_readout_moments(psi.amplitudes, c, varrho)).reshape(4, -1)

    def at(i: int) -> str:
        w, theta, c = grid[i]
        return f"w={w} theta={theta:.2f} c={c}"

    checks = []
    names = ("meter readout mean", "meter readout variance", "system readout mean", "system readout variance")
    for name, x, y in zip(names, closed, projected):
        tol = _ROUNDOFF * np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
        checks.append(_near(x, y, tol, lambda i, name=name: f"{name} by projection {at(i)}"))
    # the sharp means of A and B
    checks.append(_near(closed[0], GAUGE * (2.0 * w - 1.0), _ROUNDOFF, lambda i: f"meter readout unbiased {at(i)}"))
    checks.append(_near(closed[2], sharp_b, _ROUNDOFF, lambda i: f"system readout unbiased {at(i)}"))
    t.check(*checks)

    # The meter outcome signs: the assignment of meter_projectors (-a' on m1)
    # reproduces the sharp mean on every probe state, and the flipped
    # assignment misses it by more than round-off on at least one. Each probe
    # c is one element.
    probes = [(w, theta) for w in _PROBE_W for theta in _PROBE_THETA]
    grid = [(w, theta, c) for c in _PROBE_C for w, theta in probes]
    amplitudes = EntangledState(*np.array(grid).T).amplitudes
    (mean, _), _ = projected_readout_moments(amplitudes, [c for _, _, c in grid], [theta for _, theta, _ in grid])
    mean = mean.reshape(len(_PROBE_C), len(probes))
    sharp = np.array([GAUGE * (2.0 * w - 1.0) for w, _ in probes])
    checks = [
        _near(mean[:, k], sharp[k], _ROUNDOFF, lambda i, w=w, theta=theta: (
            f"meter signs reproduce the sharp mean w={w} theta={theta} c={_PROBE_C[i]}"
        ))
        for k, (w, theta) in enumerate(probes)
    ]
    flipped = _ROUNDOFF - np.abs(-mean - sharp).max(axis=1)
    checks.append((flipped, _STRICT, lambda i: f"flipped meter signs rejected by some probe state at c={_PROBE_C[i]}"))
    t.check(*checks)


def _suite_minimum_product(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    w = np.arange(1, 52) / 53.0
    value, long_form, numeric_min, compact_plus, compact_minus = minimum_product_routes(w)
    # The spread leaves out only a NaN long form, where its representation is 0/0.
    spread = np.ptp([value, numeric_min, np.where(np.isnan(long_form), value, long_form)], axis=0)
    s, at = spread.tolist(), [f"at w={x:.4f}" for x in w.tolist()]
    vp = np.abs(2.0 * w - 1.0) * 2.0 * np.sqrt(w * (1.0 - w))
    tol = ROUTE_AGREEMENT_TOL
    scaled = tol * np.maximum(1.0, np.abs(value))
    t.check(
        (spread, tol, lambda i: f"routes agree {at[i]}: spread {s[i]!r}"),
        (np.abs(value - compact_plus), tol, lambda i: f"compact plus form matches {at[i]}"),
        (tol - np.abs(value - compact_minus), _STRICT, lambda i: f"compact minus form rejected {at[i]}", vp > 1e-3),
        (np.abs(long_form - value), scaled, lambda i: f"long route agrees {at[i]}", np.isfinite(long_form)),
    )
    limits = (0.0, 0.5, 1.0)
    value, _, _, compact_plus, _ = minimum_product_routes(np.array(limits))
    t.check(
        (np.abs(value - 0.0625), _EXACT, lambda i: f"limit value is exactly 1/16 at w={limits[i]}"),
        (np.abs(compact_plus - value), _EXACT, lambda i: f"compact form equals the limit at w={limits[i]}"),
    )
    t.check(_near(optimal_entanglement(0.9), math.sqrt(3.0 / 7.0), _ROUNDOFF, "optimal overlap at w=0.9"))


def _suite_monte_carlo(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    n, seed = run["mc_n"], run["seed"]
    theta = 0.3
    b_obs = complementary_observable(theta)
    rho = pure_state(0.9, theta)

    # Each sampler has its own stream of the seed: 1, 2, 3, 4 and 20 for the
    # two scans, and 36; the suites' own draws take streams from 1000.
    reports = (
        montecarlo.sample_sharp(rho, REFERENCE, n, seed, stream=1),
        montecarlo.sample_sharp(rho, b_obs, n, seed, stream=2),
        *montecarlo.sample_simultaneous(EntangledState(0.9, theta, math.sqrt(3.0 / 7.0)), theta, n, seed, stream=3),
    )
    names = ("sharp reference", "sharp complementary", "meter", "system")
    notes = [f"{name} readout z=({rep.z_mean:.2f},{rep.z_variance:.2f})" for name, rep in zip(names, reports)]
    # A degenerate report has no standard error to scale its z-scores.
    z = [math.inf if rep.degenerate else max(abs(rep.z_mean), abs(rep.z_variance)) for rep in reports]
    t.check((np.array(z), montecarlo.Z_FLAG_THRESHOLD, notes.__getitem__))

    balanced = montecarlo.sample_fringe(pure_state(0.5), max(n // 20, 100), seed, stream=4)
    tracked = montecarlo.sample_fringe(pure_state(0.9, 0.7), max(n // 20, 100), seed, stream=20)
    rep = montecarlo.sample_sharp(DensityMatrix(1.0, 0.0), REFERENCE, 5, seed, stream=36)
    t.check(
        (abs(balanced - 1.0), _EXACT, f"balanced pure state shows full contrast: {balanced!r}"),
        _near(tracked, 0.6, run["sampled_fringe_tol"], "sampled contrast tracks the coherence"),
        (abs(rep.empirical_variance) if rep.degenerate else math.inf, _EXACT, "eigenstate sampling is degenerate"),
    )


_SUITES = {
    "linalg_core": _suite_linalg_core,
    "state_round_trip": _suite_state_round_trip,
    "duality": _suite_duality,
    "complementary_family": _suite_complementary_family,
    "fringe_oracle": _suite_fringe_oracle,
    "robertson": _suite_robertson,
    "intelligent_states": _suite_intelligent_states,
    "product_bounds": _suite_product_bounds,
    "entangled_duality": _suite_entangled_duality,
    "unbiasedness": _suite_unbiasedness,
    "minimum_product": _suite_minimum_product,
    "monte_carlo": _suite_monte_carlo,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, level: str = "fast", seed: int = 42, corrupt: bool = False) -> SuiteResult:
    """Run one named suite at the given level; deterministic for a given seed.

    The suite draws from its own stream of the seed, fixed by its place in
    :data:`SUITE_NAMES`, so it gives the same result alone as within
    :func:`run_suites`. An exception that escapes the suite body counts as
    one more failed check, after the checks made before it, and its type and
    message are always noted.
    """
    if name not in _SUITES:
        raise ParameterError(f"suite must be one of {list(SUITE_NAMES)}, got {name!r}")
    if level not in _SIZES:
        raise ParameterError(f"level must be one of {sorted(_SIZES)}, got {level!r}")
    tally = _Tally(name)
    rng = montecarlo._generator(seed, stream=1000 + SUITE_NAMES.index(name))
    try:
        _SUITES[name](tally, {**_SIZES[level], "seed": seed, "corrupt": corrupt}, rng)
    except Exception as exc:
        # One failed check, noted even past the note limit: it says why the suite stopped.
        tally.checks += 1
        tally.failures += 1
        tally.notes.append(f"suite raised {type(exc).__name__}: {exc}")
    return tally.result()


def run_suites(level: str = "fast", seed: int = 42, corrupt: bool = False) -> list[SuiteResult]:
    """Run every suite at the given level, in the order of :data:`SUITE_NAMES`."""
    return [run_suite(name, level, seed, corrupt) for name in SUITE_NAMES]


def render_report(results: list[SuiteResult], level: str, seed: int) -> str:
    """Fixed-layout text report; byte-identical across runs with one seed."""
    lines = [f"self-check level={level} seed={seed}"]
    width = max((len(r.name) for r in results), default=0)
    for r in results:
        lines.append(f"  {r.name:<{width}}  checks={r.checks:<6d} failures={r.failures}")
        for note in r.notes:
            lines.append(f"    note: {note}")
    total_checks = sum(r.checks for r in results)
    total_failures = sum(r.failures for r in results)
    verdict = "PASS" if total_failures == 0 else "FAIL"
    lines.append(f"result: {verdict} checks={total_checks} failures={total_failures}")
    return "\n".join(lines) + "\n"
