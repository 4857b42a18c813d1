"""Deterministic self-check suites over every closed form in the package.

Each suite draws its inputs from a seeded counter-based generator, so a run
is reproducible byte for byte given the seed and level. ``fast`` keeps every
suite below a second; ``full`` runs the sizes used for sign-off, including a
million-shot sampling pass.

The suites named in :data:`SUITE_NAMES` are the one registry of sign-off
checks. :func:`run_suite` runs one of them on its own stream of the seed;
``qudual verify`` runs them all through :func:`run_suites`, and the
acceptance tests run each at ``full`` through :func:`run_suite`.

The library computes each closed form once; the independent routes to them
live here. :func:`projected_readout_moments` reaches both readout moments by
explicit projection, and :func:`minimum_product_report` reaches the minimum
simultaneous product through the long closed form, a golden-section search
over ``c`` and the two compact candidates. Neither is in ``__all__``.

The ``duality`` and ``robertson`` suites draw their states as one batch and
check them with one call of the array kernels ``duality_arrays`` and
``robertson_arrays``; their tallies record the same checks, counts and notes
as a loop over the states would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .duality import (
    duality_arrays,
    predictability,
    predictability_of_b,
    visibility,
    visibility_of_b,
    visibility_oracle,
)
from .errors import ContractViolationError, ParameterError
from .linalg import hermitian_eig, kron, trace_norm
from .simultaneous import (
    EntangledState,
    distinguishability,
    entangle,
    entangled_visibility,
    estimate_a,
    estimate_b,
    meter_projectors,
    minimum_simultaneous_product,
    optimal_entanglement,
    simultaneous_product,
)
from .states import (
    TWO_PI,
    ComplementaryFamily,
    DensityMatrix,
    complementary_matrices,
    complementary_observable,
    complementary_triplet,
    density_matrix,
    pure_state,
    purity,
    symmetric_observable,
    validate_density,
)
from .uncertainty import (
    intelligent_state,
    is_residual,
    mean_var,
    normalized_product_bounds,
    robertson,
    robertson_arrays,
    robertson_slack,
)

__all__ = ["SuiteResult", "run_suite", "run_suites", "render_report", "SUITE_NAMES"]

# Probe states for the meter sign check: populations and phases chosen so
# the readout mean is nonzero and sign-sensitive on the grid.
_PROBE_W = (0.25, 0.5, 0.75)
_PROBE_THETA = (0.0, 2.0, 4.0)
_PROBE_C = (0.01, *(k / 10.0 for k in range(1, 10)), 0.99, 0.99999)

# Agreement tolerance between independent routes to the minimum product, and
# the bracket width at which the golden-section search stops.
ROUTE_AGREEMENT_TOL = 1e-9
_GOLDEN_XTOL = 1e-10

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
    },
    "full": {
        "duality": 10000,
        "robertson": 10000,
        "fringe_states": 20,
        "fringe_grid": 512,
        "fringe_tol": 1e-3,
        "extremality_w": 21,
        "mc_n": 1000000,
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

    def check(self, ok: bool, label: str) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if len(self.notes) < self._MAX_NOTES:
                self.notes.append(label)

    def check_batch(self, *checks: tuple) -> None:
        """Record one check per element for each ``(ok, label)`` or ``(ok, label, where)``.

        ``ok`` and ``where`` are boolean arrays over the same elements; a check
        counts only where ``where`` holds. ``label(i)`` formats the note of a
        failure at element ``i``, and runs only for the notes kept, in the
        order a loop over the elements would have made them: by element,
        then in the order of ``checks``.
        """
        failed = []
        for ok, label, *where in checks:
            applies = where[0] if where else np.ones_like(ok)
            self.checks += int(np.count_nonzero(applies))
            failed.append(applies & ~ok)
        failed = np.stack(failed, axis=-1)
        self.failures += int(np.count_nonzero(failed))
        room = self._MAX_NOTES - len(self.notes)
        for i, k in zip(*np.nonzero(failed)):
            if room <= 0:
                break
            self.notes.append(checks[k][1](int(i)))
            room -= 1

    def close(self, value: float, target: float, tol: float, label: str) -> None:
        self.check(abs(value - target) <= tol, f"{label}: {value!r} vs {target!r}")

    def agree(self, value: float, target: float, label: str, rel: float = 1e-12) -> None:
        """Two routes agree within ``rel`` times ``max(1, |value|, |target|)``."""
        self.close(value, target, rel * max(1.0, abs(value), abs(target)), label)

    def raises(self, exc: type, fn, label: str) -> None:
        try:
            fn()
        except exc:
            self.check(True, label)
        except Exception:
            self.check(False, f"{label}: wrong exception type")
        else:
            self.check(False, f"{label}: no exception")

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


def _random_density_matrices(rng: np.random.Generator, n: int) -> list[DensityMatrix]:
    """The states of :func:`_random_states` as :class:`DensityMatrix` objects."""
    return [DensityMatrix(*params) for params in zip(*_random_states(rng, n)[:3])]


def _weight(amp: np.ndarray) -> float:
    return float(np.vdot(amp, amp).real)


def projected_readout_moments(
    psi_e: EntangledState, varrho: float, a_value: float = 0.5, b_value: float = 0.5
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Mean and variance of both rescaled readouts from explicit projections.

    The meter readout projects the four-dimensional state on the rotated
    meter vectors of :func:`meter_projectors` and weighs its outcome values;
    the system readout projects it on the complementary family member at
    ``varrho`` with outcome values ``+-b_value / c``. Returns
    ``((mean_a, var_a), (mean_b, var_b))``, the independent route to the
    closed forms of :func:`estimate_a` and :func:`estimate_b`.
    """
    psi = psi_e.system_meter()
    mp = meter_projectors(psi_e.c, a_value)
    p1, p2 = _weight(psi @ mp.m1.conj()), _weight(psi @ mp.m2.conj())
    mean_a = mp.value_m1 * p1 + mp.value_m2 * p2
    var_a = mp.value_m1 ** 2 * p1 + mp.value_m2 ** 2 * p2 - mean_a ** 2
    b = float(b_value)
    vec_plus, vec_minus = ComplementaryFamily(symmetric_observable(b), varrho, b, -b).member_vectors()
    p_plus, p_minus = _weight(vec_plus.conj() @ psi), _weight(vec_minus.conj() @ psi)
    value = b / psi_e.c
    mean_b = value * (p_plus - p_minus)
    var_b = value * value * (p_plus + p_minus) - mean_b ** 2
    return (mean_a, var_a), (mean_b, var_b)


def _golden_minimize(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
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
    x = 0.5 * (a + b)
    return x, f(x)


@dataclass(frozen=True)
class MinimumProductReport:
    """Minimum simultaneous variance product by every available route.

    ``value`` is the product evaluated at the regularized optimal overlap.
    ``long_form`` is the direct closed expression in the populations (NaN
    where that representation is 0/0 ill-conditioned), ``numeric_min`` a
    golden-section minimization of the product over ``c``. The two compact
    candidates ``(1 +- V P)**2 / 16`` are both evaluated; the match flags
    record which one the computed routes agree with at 1e-9.
    """

    w_plus: float
    value: float
    long_form: float
    numeric_min: float
    c_opt: float
    c_numeric: float
    compact_plus: float
    compact_minus: float
    matches_plus: bool
    matches_minus: bool


def minimum_product_report(w_plus: float) -> MinimumProductReport:
    """Every route to the minimum of the simultaneous product at fixed populations.

    Raises a :class:`ContractViolationError` if the routes disagree beyond
    :data:`ROUTE_AGREEMENT_TOL`. ``value`` is the product at the optimal
    overlap, the same number :func:`minimum_simultaneous_product` returns.
    """
    w = float(w_plus)
    k = w * (1.0 - w)
    c_opt = optimal_entanglement(w)
    at_optimal = simultaneous_product(w, c_opt)

    # Direct closed expression; its denominator vanishes at k = 1/8 (where
    # the form is 0/0 with a finite limit) and at k in {0, 1/4}, so it is
    # only evaluated where it is well-conditioned.
    root = math.sqrt(max(k * (1.0 - 4.0 * k), 0.0))
    den = 16.0 * (-4.0 * k * (1.0 - 4.0 * k) + root)
    if abs(den) >= 1e-6:
        num = -16.0 * k * k * (1.0 - 4.0 * k) ** 2 + (1.0 - 12.0 * k * (1.0 - 4.0 * k)) * root
        long_form = num / den
    else:
        long_form = math.nan

    if 0.0 < c_opt < 1.0:
        c_numeric, numeric_min = _golden_minimize(
            lambda c: simultaneous_product(w, c), 1e-9, 1.0 - 1e-9
        )
    else:
        # Boundary populations: the optimum sits at an endpoint of c where the
        # finite limit is known exactly, so the numeric route collapses to it.
        c_numeric, numeric_min = c_opt, at_optimal

    v = 2.0 * math.sqrt(k)
    p = math.sqrt(max(1.0 - 4.0 * k, 0.0))
    compact_plus = (1.0 + v * p) ** 2 / 16.0
    compact_minus = (1.0 - v * p) ** 2 / 16.0

    routes = [at_optimal, numeric_min]
    if not math.isnan(long_form):
        routes.append(long_form)
    spread = max(routes) - min(routes)
    if spread > ROUTE_AGREEMENT_TOL:
        raise ContractViolationError(
            f"independent minimum-product routes disagree by {spread!r} at w_plus = {w!r}"
        )

    return MinimumProductReport(
        w_plus=w,
        value=at_optimal,
        long_form=long_form,
        numeric_min=numeric_min,
        c_opt=c_opt,
        c_numeric=c_numeric,
        compact_plus=compact_plus,
        compact_minus=compact_minus,
        matches_plus=abs(at_optimal - compact_plus) <= ROUTE_AGREEMENT_TOL,
        matches_minus=abs(at_optimal - compact_minus) <= ROUTE_AGREEMENT_TOL,
    )


def _suite_linalg_core(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    w, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    t.close(w[0], 1.0, 1e-14, "sigma_x top eigenvalue")
    t.close(w[1], -1.0, 1e-14, "sigma_x bottom eigenvalue")
    overlap = abs(np.vdot(v[:, 0], np.array([1.0, 1.0]) / math.sqrt(2.0)))
    t.close(overlap, 1.0, 1e-12, "sigma_x eigenvector alignment")
    t.close(trace_norm(np.diag([0.5, -0.5]).astype(complex)), 1.0, 1e-14, "trace norm diag")

    psi0 = np.array([1.0, 0.0], dtype=complex)
    psi1 = np.array([0.6, 0.8], dtype=complex)
    diff = np.outer(psi0, psi0.conj()) - np.outer(psi1, psi1.conj())
    t.close(trace_norm(diff), 1.6, 1e-12, "trace norm of projector difference")

    for i in range(200):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m + m.conj().T
        w, v = hermitian_eig(m)
        scale = max(1.0, float(np.abs(m).max()))
        recon = v @ np.diag(w) @ v.conj().T
        t.check(float(np.abs(recon - m).max()) <= 1e-10 * scale, f"eig reconstruction #{i}")
        t.check(w[0] >= w[1], f"eig ordering #{i}")
        gram = v.conj().T @ v
        t.check(float(np.abs(gram - np.eye(2)).max()) <= 1e-12, f"eig orthonormality #{i}")
        ref = np.linalg.eigvalsh(m)[::-1]
        t.check(float(np.abs(w - ref).max()) <= 1e-10 * scale, f"eig against lapack #{i}")
        sv = float(np.linalg.svd(m, compute_uv=False).sum())
        t.close(trace_norm(m), sv, 1e-10 * scale, f"trace norm against svd #{i}")

    for i in range(50):
        mats = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        a, b, c, d = mats
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        t.check(float(np.abs(lhs - rhs).max()) <= 1e-12 * max(1.0, float(np.abs(rhs).max())), f"kron mixed product #{i}")


def _suite_state_round_trip(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    for i, rho in enumerate(_random_density_matrices(rng, 500)):
        back = DensityMatrix.from_matrix(rho.matrix)
        t.close(back.w_plus, rho.w_plus, 1e-12, f"round trip w_plus #{i}")
        t.close(back.rho12, rho.rho12, 1e-12, f"round trip rho12 #{i}")
        if rho.rho12 > 1e-9:
            phase_gap = abs(np.exp(1j * back.theta) - np.exp(1j * rho.theta))
            t.check(phase_gap <= 1e-9, f"round trip theta #{i}")
        m = rho.matrix
        t.close(float(np.trace(m @ m).real), rho.purity, 1e-12, f"purity trace identity #{i}")
    t.raises(ParameterError, lambda: DensityMatrix(1.2, 0.0), "w_plus above 1 rejected")
    t.raises(ParameterError, lambda: DensityMatrix(0.5, 0.6), "coherence above bound rejected")
    t.raises(
        ContractViolationError,
        lambda: DensityMatrix.from_matrix(np.array([[0.5, 0.1j], [0.1j, 0.5]])),
        "non-hermitian matrix rejected",
    )


def _suite_duality(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    # The corrupt switch flips the upper bound to an impossible one; it exists
    # so the harness can confirm failures are actually reported.
    limit = -1.0 if corrupt else 1.0 + 1e-12
    w, rho12, _, _ = _random_states(rng, size["duality"])
    try:
        p, v, sum_sq, pur = duality_arrays(w, rho12)
    except ContractViolationError as exc:
        t.check(False, f"duality report contract: {exc}")
        return
    pure = pur >= 1.0 - 1e-12
    s = sum_sq.tolist()
    t.check_batch(
        (sum_sq <= limit, lambda i: f"sum of squares bound #{i}: {s[i]!r}"),
        ((0.0 <= p) & (p <= 1.0) & (0.0 <= v) & (v <= 1.0), lambda i: f"P,V range #{i}"),
        (np.abs(sum_sq - 1.0) <= 1e-10, lambda i: f"pure saturation #{i}: {s[i]!r}", pure),
        (sum_sq < 1.0 - 1e-10, lambda i: f"mixed strict inequality #{i}: {s[i]!r}", ~pure),
    )


def _suite_complementary_family(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    w, rho12, theta, phases = _random_states(rng, 1000, phases=1)
    for i in range(1000):
        rho = DensityMatrix(w[i], rho12[i], theta[i])
        varrho = float(phases[i, 0])
        base = predictability(rho) ** 2 + visibility(rho) ** 2
        rotated = predictability_of_b(rho, varrho) ** 2 + visibility_of_b(rho, varrho) ** 2
        t.close(rotated, base, 1e-12, f"family invariance #{i}")
        t.close(predictability_of_b(rho, rho.theta), visibility(rho), 1e-12, f"proper choice swaps V into P_B #{i}")
        t.close(visibility_of_b(rho, rho.theta), predictability(rho), 1e-12, f"proper choice swaps P into V_B #{i}")
        t.close(predictability_of_b(rho, rho.theta + math.pi / 2.0), 0.0, 1e-12, f"erasure kills P_B #{i}")
        t.close(visibility_of_b(rho, rho.theta + math.pi / 2.0) ** 2, base, 1e-12, f"erasure moves everything into V_B #{i}")

    for i in range(50):
        varrho = rng.uniform(0.0, TWO_PI)
        fam = ComplementaryFamily(symmetric_observable(), varrho)
        vp, vm = fam.member_vectors()
        t.check(float(np.abs(np.abs(vp) - math.sqrt(0.5)).max()) <= 1e-12, f"unbiased member magnitudes #{i}")
        t.close(abs(np.vdot(vp, vm)), 0.0, 1e-12, f"member orthogonality #{i}")
        for handedness in (1, -1):
            a_obs, b_obs, c_obs = complementary_triplet(symmetric_observable(), varrho, handedness)
            comm = a_obs.matrix @ b_obs.matrix - b_obs.matrix @ a_obs.matrix
            target = 1j * handedness * c_obs.matrix
            t.check(
                float(np.abs(comm - target).max()) <= 1e-12,
                f"triplet commutator handedness={handedness} #{i}",
            )


def _suite_fringe_oracle(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    grid = size["fringe_grid"]
    tol = size["fringe_tol"]
    step = TWO_PI / grid
    states = [pure_state(0.9), pure_state(0.5), DensityMatrix(0.7, 0.0)]
    states += _random_density_matrices(rng, size["fringe_states"])
    frozen = {0: 0.6, 1: 1.0, 2: 0.0}
    for i, rho in enumerate(states):
        v_hat, xi_hat = visibility_oracle(rho, grid_n=grid)
        target = frozen.get(i, visibility(rho))
        t.close(v_hat, target, tol, f"oracle contrast state #{i}")
        if visibility(rho) > 1e-3:
            t.check(
                abs(xi_hat - math.pi / 4.0) <= step + 1e-9,
                f"oracle coupling angle state #{i}: {xi_hat!r}",
            )


def _suite_robertson(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    a_obs = symmetric_observable()
    w, rho12, theta, phases = _random_states(rng, size["robertson"], phases=1)
    b_m = complementary_matrices(a_obs, phases[:, 0])
    slack = robertson_slack(*robertson_arrays(density_matrix(w, rho12, theta), a_obs.matrix, b_m))
    # Slack has a closed form of its own for this pair: the coherence
    # deficit (w+ w- - rho12^2) / 4 at unit eigenvalue gaps.
    target = (w * (1.0 - w) - rho12 * rho12) / 4.0
    s, d = slack.tolist(), target.tolist()
    t.check_batch(
        (slack >= -1e-12, lambda i: f"robertson bound #{i}: {s[i]!r}"),
        (np.abs(slack - target) <= 1e-12, lambda i: f"robertson slack identity #{i}: {s[i]!r} vs {d[i]!r}"),
        (np.abs(slack) <= 1e-10, lambda i: f"pure state saturation #{i}: {s[i]!r}", purity(w, rho12) >= 1.0 - 1e-12),
    )


def _suite_intelligent_states(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    varrho = 0.9
    a_obs = symmetric_observable()
    b_obs = complementary_observable(ComplementaryFamily(a_obs, varrho))

    def common_checks(tag: str, st) -> None:
        rep = robertson(st.state, a_obs, b_obs)
        t.check(abs(rep.slack) <= 1e-10, f"{tag} saturates the bound: {rep.slack!r}")
        lam = st.lam
        if math.isinf(abs(lam)):
            t.check(True, f"{tag} infinite stretch accepted at singular point")
            return
        res = is_residual(st.state, lam, a_obs, b_obs)
        t.check(res <= 1e-10, f"{tag} eigen-equation residual: {res!r}")
        _, va_v = mean_var(st.state, a_obs)
        _, vb_v = mean_var(st.state, b_obs)
        lam_sq = abs(lam) ** 2
        t.check(
            abs(lam_sq * vb_v - va_v) <= 1e-10 * max(1.0, lam_sq),
            f"{tag} stretch matches variance ratio",
        )

    for branch in (1, -1):
        for w in np.linspace(0.0, 1.0, 21):
            st = intelligent_state("IS1", float(w), varrho, branch)
            if float(w) == 0.5:
                t.check(math.isinf(abs(st.lam)), "IS1 central point has infinite stretch")
            t.check(st.lam.real == 0.0, "IS1 stretch is imaginary")
            common_checks(f"IS1 w={w:.2f} br={branch}", st)
            _, va_v = mean_var(st.state, a_obs)
            _, vb_v = mean_var(st.state, b_obs)
            lo, hi = normalized_product_bounds(float(w))
            t.close(va_v * vb_v, lo, 1e-12, f"IS1 product sits on the floor w={w:.2f}")

        for beta in np.linspace(0.0, math.pi / 2.0, 21):
            st = intelligent_state("IS2a", float(beta), varrho, branch)
            if float(beta) == 0.0:
                t.check(math.isinf(abs(st.lam)), "IS2a zero offset has infinite stretch")
            t.check(st.lam.imag == 0.0, "IS2a stretch is real")
            common_checks(f"IS2a beta={beta:.2f} br={branch}", st)

        for w in np.linspace(0.0, 1.0, 21):
            st = intelligent_state("IS2b", float(w), varrho, branch)
            t.check(st.lam.imag == 0.0, "IS2b stretch is real")
            common_checks(f"IS2b w={w:.2f} br={branch}", st)
            _, va_v = mean_var(st.state, a_obs)
            _, vb_v = mean_var(st.state, b_obs)
            lo, hi = normalized_product_bounds(float(w))
            t.close(va_v * vb_v, hi, 1e-12, f"IS2b product sits on the ceiling w={w:.2f}")


def _suite_product_bounds(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    a_obs = symmetric_observable()
    for alpha in np.linspace(0.0, math.pi / 2.0, 201):
        w = math.sin(float(alpha)) ** 2
        k = w * (1.0 - w)
        lo, hi = normalized_product_bounds(w)
        p = abs(2.0 * w - 1.0)
        v = 2.0 * math.sqrt(k)
        t.close(lo, p * p * v * v / 16.0, 1e-12, f"floor matches P^2 V^2 / 16 at w={w:.4f}")
        t.close(hi, k / 4.0, 1e-12, f"ceiling matches K/4 at w={w:.4f}")

    for w in np.linspace(0.08, 0.92, size["extremality_w"]):
        rho = pure_state(float(w), theta=0.6)
        lo, hi = normalized_product_bounds(float(w))
        for delta in np.linspace(0.0, math.pi / 2.0, 33):
            b_obs = complementary_observable(ComplementaryFamily(a_obs, 0.6 - float(delta)))
            _, va = mean_var(rho, a_obs)
            _, vb = mean_var(rho, b_obs)
            prod = va * vb
            t.check(lo - 1e-12 <= prod <= hi + 1e-12, f"product within bounds w={w:.3f} d={delta:.3f}")
            if float(delta) == 0.0:
                t.close(prod, lo, 1e-12, f"proper choice reaches the floor w={w:.3f}")
        b_obs = complementary_observable(ComplementaryFamily(a_obs, 0.6 - math.pi / 2.0))
        _, vb = mean_var(rho, b_obs)
        _, va = mean_var(rho, a_obs)
        t.close(va * vb, hi, 1e-12, f"erasure choice reaches the ceiling w={w:.3f}")


def _suite_entangled_duality(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    theta = 0.7
    for w in np.linspace(0.0, 1.0, 51):
        for c in np.linspace(0.0, 1.0, 51):
            psi = entangle(float(w), theta, float(c))
            d = distinguishability(psi)
            ve = entangled_visibility(psi)
            t.close(d * d + ve * ve, 1.0, 1e-12, f"erasure-free duality w={w:.2f} c={c:.2f}")
            t.check(abs(2.0 * w - 1.0) <= d + 1e-12, f"predictability below distinguishability w={w:.2f} c={c:.2f}")
            marg = psi.marginal_system()
            t.close(marg.w_plus, float(w), 1e-12, f"marginal populations w={w:.2f} c={c:.2f}")
            t.close(marg.rho12, float(c) * math.sqrt(w * (1.0 - w)), 1e-12, f"marginal coherence w={w:.2f} c={c:.2f}")


def _suite_unbiasedness(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    varrho = math.pi / 5.0
    a_obs = symmetric_observable()
    b_obs = complementary_observable(ComplementaryFamily(a_obs, varrho))
    for w in (k / 10.0 for k in range(1, 10)):
        sharp_a = 0.5 * (2.0 * w - 1.0)
        for j in range(8):
            theta = TWO_PI * j / 8.0
            sharp_b, _ = mean_var(pure_state(w, theta), b_obs)
            for c in (k / 10.0 for k in range(1, 10)):
                psi = entangle(w, theta, c)
                at = f"w={w} theta={theta:.2f} c={c}"
                (mean_a, var_a), (mean_b, var_b) = estimate_a(psi), estimate_b(psi, varrho)
                (mean_ax, var_ax), (mean_bx, var_bx) = projected_readout_moments(psi, varrho)
                t.agree(mean_a, mean_ax, f"meter readout mean by projection {at}")
                t.agree(var_a, var_ax, f"meter readout variance by projection {at}")
                t.agree(mean_b, mean_bx, f"system readout mean by projection {at}")
                t.agree(var_b, var_bx, f"system readout variance by projection {at}")
                t.close(mean_a, sharp_a, 1e-12, f"meter readout unbiased {at}")
                t.close(mean_b, sharp_b, 1e-12, f"system readout unbiased {at}")

    # The meter outcome signs: the assignment of meter_projectors (-a' on m1)
    # reproduces the sharp mean on every probe state, and the flipped
    # assignment fails on at least one.
    for c in _PROBE_C:
        flipped_fails = False
        for w in _PROBE_W:
            for theta in _PROBE_THETA:
                (mean, _), _ = projected_readout_moments(entangle(w, theta, c), theta)
                sharp = 0.5 * (2.0 * w - 1.0)
                t.close(mean, sharp, 1e-12, f"meter signs reproduce the sharp mean w={w} theta={theta} c={c}")
                flipped_fails |= abs(-mean - sharp) > 1e-12
        t.check(flipped_fails, f"flipped meter signs rejected by some probe state at c={c}")


def _suite_minimum_product(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    for k in range(1, 52):
        w = k / 53.0
        try:
            rep = minimum_product_report(w)
        except ContractViolationError as exc:
            t.check(False, f"route disagreement at w={w:.4f}: {exc}")
            continue
        t.check(minimum_simultaneous_product(w) == rep.value, f"minimum equals the report value at w={w:.4f}")
        t.check(rep.matches_plus, f"compact plus form matches at w={w:.4f}")
        vp = abs(2.0 * w - 1.0) * 2.0 * math.sqrt(w * (1.0 - w))
        if vp > 1e-3:
            t.check(not rep.matches_minus, f"compact minus form rejected at w={w:.4f}")
        if math.isfinite(rep.long_form):
            t.check(
                abs(rep.long_form - rep.value) <= 1e-9 * max(1.0, abs(rep.value)),
                f"long route agrees at w={w:.4f}",
            )
    for w in (0.0, 0.5, 1.0):
        t.check(
            minimum_simultaneous_product(w) == 0.0625,
            f"limit value is exactly 1/16 at w={w}",
        )
        t.check(minimum_simultaneous_product(w) == minimum_product_report(w).value, f"limit equals the report value at w={w}")
    t.close(optimal_entanglement(0.9), math.sqrt(3.0 / 7.0), 1e-12, "optimal overlap at w=0.9")


def _suite_monte_carlo(t: _Tally, size: dict, rng: np.random.Generator, corrupt: bool, seed: int) -> None:
    n = size["mc_n"]
    theta = 0.3
    a_obs = symmetric_observable()
    b_obs = complementary_observable(ComplementaryFamily(a_obs, theta))
    rho = pure_state(0.9, theta)

    rep = montecarlo.sample_sharp(rho, a_obs, n, seed + 1)
    t.check(not rep.flagged and not rep.degenerate, f"sharp reference readout z=({rep.z_mean:.2f},{rep.z_variance:.2f})")
    rep = montecarlo.sample_sharp(rho, b_obs, n, seed + 2)
    t.check(not rep.flagged and not rep.degenerate, f"sharp complementary readout z=({rep.z_mean:.2f},{rep.z_variance:.2f})")

    psi = entangle(0.9, theta, math.sqrt(3.0 / 7.0))
    rep_a, rep_b = montecarlo.sample_simultaneous(psi, theta, n, seed + 3)
    t.check(not rep_a.flagged and not rep_a.degenerate, f"meter readout z=({rep_a.z_mean:.2f},{rep_a.z_variance:.2f})")
    t.check(not rep_b.flagged and not rep_b.degenerate, f"system readout z=({rep_b.z_mean:.2f},{rep_b.z_variance:.2f})")

    phi_grid = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    v_hat, _ = montecarlo.sample_fringe(pure_state(0.5), phi_grid, math.pi / 4.0, max(n // 20, 100), seed + 4)
    t.check(v_hat == 1.0, f"balanced pure state shows full contrast: {v_hat!r}")
    v_hat, _ = montecarlo.sample_fringe(pure_state(0.9, 0.7), phi_grid, math.pi / 4.0, max(n // 20, 100), seed + 5)
    tol = 0.1 if n < 100000 else 0.02
    t.close(v_hat, 0.6, tol, "sampled contrast tracks the coherence")

    rep = montecarlo.sample_sharp(DensityMatrix(1.0, 0.0), a_obs, 5, seed + 6)
    t.check(rep.degenerate and rep.empirical_variance == 0.0, "eigenstate sampling is degenerate")


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
    :func:`run_suites`.
    """
    if name not in _SUITES:
        raise ParameterError(f"suite must be one of {list(SUITE_NAMES)}, got {name!r}")
    if level not in _SIZES:
        raise ParameterError(f"level must be one of {sorted(_SIZES)}, got {level!r}")
    tally = _Tally(name)
    rng = montecarlo._generator(seed, stream=1000 + SUITE_NAMES.index(name))
    _SUITES[name](tally, _SIZES[level], rng, corrupt, seed)
    return tally.result()


def run_suites(level: str = "fast", seed: int = 42, corrupt: bool = False) -> list[SuiteResult]:
    """Run every suite at the given level, in the order of :data:`SUITE_NAMES`."""
    return [run_suite(name, level, seed, corrupt) for name in SUITE_NAMES]


def render_report(results: list[SuiteResult], level: str, seed: int) -> str:
    """Fixed-layout text report; byte-identical across runs with one seed."""
    lines = [f"self-check level={level} seed={seed}"]
    width = max(len(r.name) for r in results)
    for r in results:
        lines.append(f"  {r.name:<{width}}  checks={r.checks:<6d} failures={r.failures}")
        for note in r.notes:
            lines.append(f"    note: {note}")
    total_checks = sum(r.checks for r in results)
    total_failures = sum(r.failures for r in results)
    verdict = "PASS" if total_failures == 0 else "FAIL"
    lines.append(f"result: {verdict} checks={total_checks} failures={total_failures}")
    return "\n".join(lines) + "\n"
