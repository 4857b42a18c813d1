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
for the ``minimum_product`` suite to check. Neither is in ``__all__``.

A suite hands each grid's checks to :meth:`_Tally.check` as the entries of
one call, with the checks, counts and notes of a loop over the grid; the
functions under test that take one state or phase stay in loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .duality import duality_arrays, family_arrays, visibility, visibility_oracle
from .errors import ContractViolationError, ParameterError
from .linalg import _eigenvalues, _from_parts, _hypot, _parts, _split, _times_conj, trace_norm
from .simultaneous import (
    EntangledState,
    entangled_arrays,
    estimate_a,
    estimate_b,
    meter_projectors,
    optimal_entanglement,
    simultaneous_product,
)
from .states import (
    GAUGE,
    REFERENCE,
    TWO_PI,
    DensityMatrix,
    _density_matrix,
    _density_parts,
    _pure_parts,
    _purity,
    complementary_matrices,
    complementary_observable,
    density_params,
    pure_state,
    validate_density,
)
from .uncertainty import (
    _eigen_residuals,
    intelligent_state,
    mean_var,
    normalized_product_bounds,
    robertson_arrays,
)

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
_PHASE = 1e-9  # |exp(i theta') - exp(i theta)| of a phase read back by density_params
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


def _random_states(
    rng: np.random.Generator, n: int, phases: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``n`` random states, alternately clearly mixed (even index) and pure (odd index).

    A mixed state draws ``w_plus`` from [0.05, 0.95], its coherence as a
    fraction in [0, 0.99) of the positivity bound, and ``theta`` from
    [0, 2 pi); a pure state draws ``w_plus`` from [0, 1) and ``theta``. After
    each state, ``phases`` more phases are drawn from [0, 2 pi). Every value
    is one ``rng.uniform`` draw, in that order, so the batch consumes the
    stream a loop over the states would. Returns the stored parameters
    ``(w_plus, rho12, theta)``, checked by :func:`validate_density`, and the
    phases as an ``(n, phases)`` array.
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
    return (*validate_density(w, rho12, draws[:, 0]), draws[:, 1:])


def _near(value, target, tolerance, label) -> tuple:
    """The check entry ``|value - target| <= tolerance``, noting ``value vs target`` as Python floats."""
    return abs(value - target), tolerance, lambda i: "{}: {!r} vs {!r}".format(
        label(i) if callable(label) else label, *(x.flat[i].item() for x in np.broadcast_arrays(value, target))
    )


def _weight(amp: np.ndarray) -> np.ndarray:
    """Squared norms of stacked vectors ``(..., 2)``."""
    return (amp.real * amp.real + amp.imag * amp.imag).sum(axis=-1)


def projected_readout_moments(psi: np.ndarray, c, varrho) -> tuple:
    """Mean and variance of both rescaled readouts from explicit projections.

    ``psi`` holds the amplitudes ``psi[..., system, meter]`` of one
    :attr:`EntangledState.amplitudes` or a stack, with meter overlaps ``c``
    and phases ``varrho`` broadcast to it. The meter readout projects on the
    eigenvectors of :func:`meter_projectors`, the system readout on the family
    member at ``varrho`` with outcome values ``+-GAUGE / c``; each is built
    once per distinct ``c`` or ``varrho``. Returns ``((mean_a, var_a),
    (mean_b, var_b))`` as arrays, the independent route to :func:`estimate_a`
    and :func:`estimate_b`; an element rounds as that state alone does.
    """
    c, varrho = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(varrho, dtype=float))
    meters = {x: meter_projectors(x) for x in set(c.flat)}
    members = {x: complementary_observable(x).basis.T for x in set(varrho.flat)}
    # Outcome k of each readout: row k of the meter vectors, of the member vectors.
    m = np.array([meters[x].basis.T for x in c.flat]).reshape(c.shape + (2, 2))
    values = np.array([(meters[x].val_plus, meters[x].val_minus) for x in c.flat]).reshape(c.shape + (2,))
    vecs = np.array([members[x] for x in varrho.flat]).reshape(c.shape + (2, 2))
    p_a = _weight((psi[..., None, :, :] * m.conj()[..., :, None, :]).sum(axis=-1))
    p_b = _weight((vecs.conj()[..., :, :, None] * psi[..., None, :, :]).sum(axis=-2))
    mean_a = (values * p_a).sum(axis=-1)
    var_a = (values * values * p_a).sum(axis=-1) - mean_a * mean_a
    value = GAUGE / c
    mean_b = value * (p_b[..., 0] - p_b[..., 1])
    var_b = value * value * p_b.sum(axis=-1) - mean_b * mean_b
    return (mean_a, var_a), (mean_b, var_b)


def _golden_minimize(f, lo: float, hi: float) -> float:
    """Golden-section minimum value of a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _GOLDEN_XTOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return f(0.5 * (a + b))


def minimum_product_routes(w_plus: float) -> tuple[float, float, float, float, float]:
    """Every route to the minimum over ``c`` of the simultaneous product at fixed populations.

    Returns ``(value, long_form, numeric_min, compact_plus, compact_minus)``:
    the product at the regularized optimal overlap; the direct closed
    expression in the populations, NaN where that representation is 0/0
    ill-conditioned; a golden-section minimization of the product over
    ``c``; and the two compact candidates ``(1 +- V P)**2 / 16``. Nothing
    is compared here: the ``minimum_product`` suite checks each route
    against the others within :data:`ROUTE_AGREEMENT_TOL`.
    """
    w = float(w_plus)
    k = w * (1.0 - w)
    c_opt = optimal_entanglement(w)
    value = simultaneous_product(w, c_opt)

    # Direct closed expression; its denominator vanishes at k = 1/8 (where
    # the form is 0/0 with a finite limit) and at k in {0, 1/4}, so it is
    # only evaluated where it is well-conditioned.
    g = 1.0 - 4.0 * k
    root = math.sqrt(max(k * g, 0.0))
    den = 16.0 * (-4.0 * k * g + root)
    if abs(den) >= 1e-6:
        num = -16.0 * k * k * (g * g) + (1.0 - 12.0 * k * g) * root
        long_form = num / den
    else:
        long_form = math.nan

    if 0.0 < c_opt < 1.0:
        numeric_min = _golden_minimize(lambda c: simultaneous_product(w, c), 1e-9, 1.0 - 1e-9)
    else:
        # Boundary populations: the optimum sits at an endpoint of c where the
        # finite limit is known exactly, so the numeric route collapses to it.
        numeric_min = value

    v = 2.0 * math.sqrt(k)
    p = math.sqrt(max(g, 0.0))
    plus, minus = 1.0 + v * p, 1.0 - v * p
    return value, long_form, numeric_min, plus * plus / 16.0, minus * minus / 16.0


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
    w, rho12, theta, _ = _random_states(rng, 500)
    m = _density_matrix(w, rho12, theta)
    back_w, back_rho12, back_theta = validate_density(*density_params(m))
    trace_squared = np.trace(m @ m, axis1=-2, axis2=-1).real
    phase_gap = np.abs(np.exp(1j * back_theta) - np.exp(1j * theta))
    t.check(
        _near(back_w, w, _ROUNDOFF, lambda i: f"round trip w_plus #{i}"),
        _near(back_rho12, rho12, _ROUNDOFF, lambda i: f"round trip rho12 #{i}"),
        (phase_gap, _PHASE, lambda i: f"round trip theta #{i}", rho12 > 1e-9),
        _near(trace_squared, _purity(w, rho12), _ROUNDOFF, lambda i: f"purity trace identity #{i}"),
    )
    t.raises(ParameterError, lambda: DensityMatrix(1.2, 0.0), "w_plus above 1 rejected")
    t.raises(ParameterError, lambda: DensityMatrix(0.5, 0.6), "coherence above bound rejected")
    t.raises(
        ContractViolationError,
        lambda: density_params(np.array([[0.5, 0.1j], [0.1j, 0.5]])),
        "non-hermitian matrix rejected",
    )


def _suite_duality(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    # The corrupt switch makes the upper bound impossible to meet; it exists
    # so the harness can confirm failures are actually reported.
    bound = -math.inf if run["corrupt"] else _BOUND
    w, rho12, _, _ = _random_states(rng, run["duality"])
    p, v, sum_sq = duality_arrays(w, rho12)
    pure = _purity(w, rho12) >= 1.0 - _PURE
    s = sum_sq.tolist()
    t.check(
        (sum_sq - 1.0, bound, lambda i: f"sum of squares bound #{i}: {s[i]!r}"),
        (np.maximum.reduce([-p, p - 1.0, -v, v - 1.0]), _EXACT, lambda i: f"P,V range #{i}"),
        (np.abs(sum_sq - 1.0), _SATURATION, lambda i: f"pure saturation #{i}: {s[i]!r}", pure),
        (sum_sq - (1.0 - _SATURATION), _STRICT, lambda i: f"mixed strict inequality #{i}: {s[i]!r}", ~pure),
    )


def _suite_complementary_family(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    w, rho12, theta, phases = _random_states(rng, 1000, phases=1)
    p, v, base = duality_arrays(w, rho12)
    p_b, v_b = family_arrays(w, rho12, theta, phases[:, 0])
    proper_p, proper_v = family_arrays(w, rho12, theta, theta)
    erased_p, erased_v = family_arrays(w, rho12, theta, theta + math.pi / 2.0)
    t.check(
        _near(p_b * p_b + v_b * v_b, base, _ROUNDOFF, lambda i: f"family invariance #{i}"),
        _near(proper_p, v, _ROUNDOFF, lambda i: f"proper choice swaps V into P_B #{i}"),
        _near(proper_v, p, _ROUNDOFF, lambda i: f"proper choice swaps P into V_B #{i}"),
        _near(erased_p, 0.0, _ROUNDOFF, lambda i: f"erasure kills P_B #{i}"),
        _near(erased_v * erased_v, base, _ROUNDOFF, lambda i: f"erasure moves everything into V_B #{i}"),
    )

    # 50 members B(varrho) and their quarter-turn partners: [REFERENCE, B(varrho)] = +-i B(varrho +- pi/2).
    varrho = [rng.uniform(0.0, TWO_PI) for _ in range(50)]
    members = [complementary_observable(x) for x in varrho]
    vp = np.array([member.vec_plus for member in members])
    vm = np.array([member.vec_minus for member in members])
    # |<b+|b->| = |sum_i b-_i conj(b+_i)|, in real parts
    overlap = (_times_conj(_split(vm[:, i]), _split(vp[:, i])) for i in range(2))
    orthogonality = _hypot(*(p + q for p, q in zip(*overlap)))
    b_m = np.array([member.matrix for member in members])
    comm = REFERENCE.matrix @ b_m - b_m @ REFERENCE.matrix
    partners = {h: np.array([complementary_observable(x + h * math.pi / 2.0).matrix for x in varrho]) for h in (1, -1)}
    miss = {h: np.abs(comm - 1j * h * partner).max(axis=(-2, -1)) for h, partner in partners.items()}
    t.check(
        (np.abs(np.abs(vp) - math.sqrt(0.5)).max(axis=-1), _ROUNDOFF, lambda i: f"unbiased member magnitudes #{i}"),
        _near(orthogonality, 0.0, _ROUNDOFF, lambda i: f"member orthogonality #{i}"),
        *((miss[h], _ROUNDOFF, lambda i, h=h: f"triplet commutator handedness={h} #{i}") for h in miss),
    )


def _suite_fringe_oracle(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    grid = run["fringe_grid"]
    angle_tol = TWO_PI / grid + _GRID_ANGLE  # one grid step, and round-off
    states = [pure_state(0.9), pure_state(0.5), DensityMatrix(0.7, 0.0)]
    states += [DensityMatrix(*params) for params in zip(*_random_states(rng, run["fringe_states"])[:3])]
    v = np.array([visibility(rho) for rho in states])
    target = np.array([0.6, 1.0, 0.0, *v[3:]])  # the first three are known exactly
    v_hat, xi_hat = np.array([visibility_oracle(rho, grid_n=grid) for rho in states]).T
    xi = xi_hat.tolist()
    t.check(
        _near(v_hat, target, run["fringe_tol"], lambda i: f"oracle contrast state #{i}"),
        (np.abs(xi_hat - math.pi / 4.0), angle_tol, lambda i: f"oracle coupling angle state #{i}: {xi[i]!r}", v > 1e-3),
    )


def _suite_robertson(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    w, rho12, theta, phases = _random_states(rng, run["robertson"], phases=1)
    b_m = complementary_matrices(phases[:, 0])
    slack = robertson_arrays(_density_matrix(w, rho12, theta), REFERENCE.matrix, b_m)[4]
    # Slack has a closed form of its own for this pair: the coherence
    # deficit (w+ w- - rho12^2) / 4 at unit eigenvalue gaps.
    target = (w * (1.0 - w) - rho12 * rho12) / 4.0
    s = slack.tolist()
    t.check(
        (-slack, _BOUND, lambda i: f"robertson bound #{i}: {s[i]!r}"),
        _near(slack, target, _ROUNDOFF, lambda i: f"robertson slack identity #{i}"),
        (np.abs(slack), _SATURATION, lambda i: f"pure state saturation #{i}: {s[i]!r}", _purity(w, rho12) >= 1.0 - _PURE),
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
    w, rho12, theta = np.array([(st.state.w_plus, st.state.rho12, st.state.theta) for st in states]).T
    rho = _density_parts(w, rho12, theta)
    var_a, var_b, _, _, slack = robertson_arrays(_from_parts(*rho), REFERENCE.matrix, b_obs.matrix)
    # An infinite stretch marks an eigenvector of the member, where the
    # eigen-equation degenerates: that state is checked for Var(B) = 0
    # instead, and a zero stretch stands in for it in the arithmetic.
    lam = np.array([st.lam for st in states])
    finite = np.isfinite(lam)
    stand_in = np.where(finite, lam, 0.0)
    stretch = _hypot(*_split(stand_in))
    lam_sq = stretch * stretch
    res = _eigen_residuals(rho, _pure_parts(w, theta), stand_in, REFERENCE._parts, b_obs._parts)
    is1 = np.array(family) == "IS1"
    central = {("IS1", 0.5): "IS1 central point", ("IS2a", 0.0): "IS2a zero offset"}
    # IS1 runs along the floor of the normalized product, IS2b along its ceiling.
    side = {"IS1": (0, "floor"), "IS2b": (1, "ceiling")}
    target = np.array([normalized_product_bounds(p)[side[f][0]] if f in side else math.nan for f, p, _ in rows])
    s, vb, r = slack.tolist(), var_b.tolist(), res.tolist()

    def product_label(i: int) -> str:
        return f"{family[i]} product sits on the {side[family[i]][1]} w={param[i]:.2f}"

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
    lo, hi = np.array([normalized_product_bounds(x) for x in w.tolist()]).T
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
    rho_m = _density_matrix(*validate_density(w, np.sqrt(w * (1.0 - w)), 0.6))
    b_m = complementary_matrices(np.tile(varrho, ws.size))
    var_a, var_b = robertson_arrays(rho_m, REFERENCE.matrix, b_m)[:2]
    prod = (var_a * var_b).reshape(ws.size, len(varrho))
    lo, hi = np.array([normalized_product_bounds(x) for x in ws.tolist()]).T

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
    d, ve, w_marg, rho12_marg, _ = entangled_arrays(w, 0.7, c)
    sum_sq = d * d + ve * ve
    coherence = c * np.sqrt(w * (1.0 - w))

    def at(i: int) -> str:
        return f"w={w[i]:.2f} c={c[i]:.2f}"

    t.check(
        _near(sum_sq, 1.0, _ROUNDOFF, lambda i: f"erasure-free duality {at(i)}"),
        (np.abs(2.0 * w - 1.0) - d, _BOUND, lambda i: f"predictability below distinguishability {at(i)}"),
        _near(w_marg, w, _ROUNDOFF, lambda i: f"marginal populations {at(i)}"),
        _near(rho12_marg, coherence, _ROUNDOFF, lambda i: f"marginal coherence {at(i)}"),
    )


def _suite_unbiasedness(t: _Tally, run: dict, rng: np.random.Generator) -> None:
    varrho = math.pi / 5.0
    b_obs = complementary_observable(varrho)
    tenths = [k / 10.0 for k in range(1, 10)]
    thetas = [TWO_PI * j / 8.0 for j in range(8)]
    grid = [(w, theta, c) for w in tenths for theta in thetas for c in tenths]
    sharp_b = {(w, theta): mean_var(pure_state(w, theta), b_obs)[0] for w in tenths for theta in thetas}
    amplitudes = np.empty((len(grid), 2, 2), dtype=complex)
    closed = np.empty((len(grid), 4))
    sharp = np.empty((len(grid), 2))  # the sharp means of A and B
    for i, (w, theta, c) in enumerate(grid):
        psi = EntangledState(w, theta, c)
        amplitudes[i] = psi.amplitudes
        closed[i] = (*estimate_a(psi), *estimate_b(psi, varrho))
        sharp[i] = (GAUGE * (2.0 * w - 1.0), sharp_b[w, theta])
    projected = np.ravel(projected_readout_moments(amplitudes, [c for _, _, c in grid], varrho)).reshape(4, -1)

    def at(i: int) -> str:
        w, theta, c = grid[i]
        return f"w={w} theta={theta:.2f} c={c}"

    checks = []
    names = ("meter readout mean", "meter readout variance", "system readout mean", "system readout variance")
    for name, x, y in zip(names, closed.T, projected):
        tol = _ROUNDOFF * np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
        checks.append(_near(x, y, tol, lambda i, name=name: f"{name} by projection {at(i)}"))
    checks.append(_near(closed[:, 0], sharp[:, 0], _ROUNDOFF, lambda i: f"meter readout unbiased {at(i)}"))
    checks.append(_near(closed[:, 2], sharp[:, 1], _ROUNDOFF, lambda i: f"system readout unbiased {at(i)}"))
    t.check(*checks)

    # The meter outcome signs: the assignment of meter_projectors (-a' on m1)
    # reproduces the sharp mean on every probe state, and the flipped
    # assignment misses it by more than round-off on at least one. Each probe
    # c is one element.
    probes = [(w, theta) for w in _PROBE_W for theta in _PROBE_THETA]
    grid = [(w, theta, c) for c in _PROBE_C for w, theta in probes]
    amplitudes = np.array([EntangledState(*point).amplitudes for point in grid])
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
    routes = np.array([minimum_product_routes(x) for x in w.tolist()]).T
    value, long_form, numeric_min, compact_plus, compact_minus = routes
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
    value, _, _, compact_plus, _ = np.array([minimum_product_routes(x) for x in limits]).T
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
