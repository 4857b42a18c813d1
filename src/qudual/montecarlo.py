"""Sampling oracles that check the closed forms against simulated experiments.

Every sampler draws from a counter-based generator (Philox) keyed by a seed
and a stream index, so runs are reproducible bit for bit and shards drawn on
independent streams can be merged without coordination. Reports compare the
empirical mean and variance against the analytic values through z-scores
built from the exact sampling distribution of the estimator (two-outcome
distributions, so the fourth central moment entering the variance standard
error is available in closed form).

The sharp and joint samplers never hold all ``n`` shots: they draw and count
``_CHUNK`` uniforms at a time into buffers allocated once, so their memory
does not depend on ``n``. Chunking changes no bit, because ``random`` takes
one 64-bit Philox word per double whatever the request size. The joint
readout's system uniforms are the doubles that follow its ``n`` meter
uniforms on the same stream; they come from a second generator on the same
key whose counter is moved past them. Philox yields four words per counter
value and ``advance`` moves the counter directly (Salmon, Moraes, Dror and
Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11), so the skip is
``advance(n // 4)`` followed by ``n % 4`` discarded doubles, exact at any
``n``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .duality import fringe_probability
from .errors import ParameterError, check_scalar
from .simultaneous import EntangledState, estimate_a, estimate_b, meter_projectors
from .states import ComplementaryFamily, DensityMatrix, Observable, symmetric_observable
from .uncertainty import mean_var

Z_FLAG_THRESHOLD = 4.0

# Largest outcome magnitude whose spread to the mean, to the fourth power,
# is a finite double; the standard error of the sampled variance needs it.
MAX_SAMPLED_VALUE = sys.float_info.max ** 0.25 / 2.0

# Largest sample size: about a day of drawing at 10**7 shots per second.
MAX_SHOTS = 10**12

# Uniforms drawn and counted per step; sets the samplers' working memory.
_CHUNK = 1 << 16

_MASK64 = (1 << 64) - 1

__all__ = [
    "Z_FLAG_THRESHOLD",
    "MAX_SAMPLED_VALUE",
    "MAX_SHOTS",
    "SampleReport",
    "sample_sharp",
    "sample_fringe",
    "sample_simultaneous",
]


def _generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); counter-based and splittable."""
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _generator_after(seed: int, stream: int, n: int) -> np.random.Generator:
    """The (seed, stream) generator moved past its first ``n`` doubles.

    Philox gives four 64-bit words per counter value and ``random`` takes one
    word per double, so ``n // 4`` counter steps plus ``n % 4`` discarded
    doubles land exactly where ``n`` draws from a fresh generator end.
    """
    rng = _generator(seed, stream)
    rng.bit_generator.advance(n // 4)
    rng.random(n % 4)
    return rng


def _chunks(n: int):
    """Sizes of the successive draws that make up ``n`` shots."""
    for start in range(0, n, _CHUNK):
        yield min(_CHUNK, n - start)


def _count_below(rng: np.random.Generator, n: int, p: float) -> int:
    """How many of the next ``n`` uniforms of ``rng`` fall below ``p``.

    Equals ``count_nonzero(rng.random(n) < p)`` without holding the ``n`` draws.
    """
    u = np.empty(min(n, _CHUNK))
    hit = np.empty(u.size, dtype=bool)
    k = 0
    for m in _chunks(n):
        rng.random(out=u[:m])
        k += int(np.count_nonzero(np.less(u[:m], p, out=hit[:m])))
    return k


def _count_joint(seed: int, n: int, p1: float, q: np.ndarray) -> tuple[int, int]:
    """Counts of meter outcome 1 and of system outcome + over ``n`` sequential shots.

    Shot i takes meter outcome 1 when ``u_meter[i] < p1`` and system outcome +
    when ``u_system[i] < q[0]`` after outcome 1, ``< q[1]`` otherwise, where
    ``u_meter`` and ``u_system`` are the first and second ``n`` doubles of
    stream 0. The two runs are walked in step by two generators.
    """
    rng_meter = _generator(seed, stream=0)
    rng_system = _generator_after(seed, 0, n)
    u_meter = np.empty(min(n, _CHUNK))
    u_system = np.empty_like(u_meter)
    q_shot = np.empty_like(u_meter)
    took_m1 = np.empty(u_meter.size, dtype=bool)
    b_plus = np.empty_like(took_m1)
    n_m1 = n_b_plus = 0
    for m in _chunks(n):
        rng_meter.random(out=u_meter[:m])
        rng_system.random(out=u_system[:m])
        np.less(u_meter[:m], p1, out=took_m1[:m])
        # q_shot = np.where(took_m1, q[0], q[1]), written into the buffer
        np.copyto(q_shot[:m], q[1])
        np.copyto(q_shot[:m], q[0], where=took_m1[:m])
        np.less(u_system[:m], q_shot[:m], out=b_plus[:m])
        n_m1 += int(np.count_nonzero(took_m1[:m]))
        n_b_plus += int(np.count_nonzero(b_plus[:m]))
    return n_m1, n_b_plus


@dataclass(frozen=True)
class SampleReport:
    """Empirical versus analytic moments of one sampled estimator.

    ``z_mean`` and ``z_variance`` standardize the deviations from the
    analytic claims by the exact standard errors of the sampling
    distribution. ``degenerate`` marks distributions whose standard error
    vanishes (eigenstate inputs or a single shot); ``flagged`` is set when
    either z-score exceeds 4 in magnitude.
    """

    quantity: str
    n: int
    empirical_mean: float
    empirical_variance: float
    analytic_mean: float
    analytic_variance: float
    z_mean: float
    z_variance: float
    seed: int
    degenerate: bool

    @property
    def flagged(self) -> bool:
        return max(abs(self.z_mean), abs(self.z_variance)) > Z_FLAG_THRESHOLD


def _z(diff: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return math.copysign(abs(diff) / se, diff)


def _two_outcome_report(
    quantity: str,
    values: tuple[float, float],
    probs: tuple[float, float],
    counts: tuple[int, int],
    seed: int,
    analytic: tuple[float, float],
) -> SampleReport:
    """Report for a two-outcome estimator.

    ``probs`` are the explicit outcome probabilities that govern the sampling
    distribution and fix the standard errors (including the exact fourth
    central moment). ``analytic`` holds the closed-form mean and variance
    under test, which enter only the z numerators.
    """
    (v1, v2), (p1, p2) = values, probs
    top = max(abs(v1), abs(v2))
    if not top <= MAX_SAMPLED_VALUE:
        raise ParameterError(
            f"{quantity} outcome value magnitude {top!r} violates the bound |value| <= "
            f"{MAX_SAMPLED_VALUE:.6g}: the fourth central moment of the samples would not be finite"
        )
    n = counts[0] + counts[1]
    emp_mean = (counts[0] * v1 + counts[1] * v2) / n
    emp_second = (counts[0] * v1 * v1 + counts[1] * v2 * v2) / n
    emp_var = emp_second - emp_mean * emp_mean

    mean = p1 * v1 + p2 * v2
    var = p1 * (v1 - mean) ** 2 + p2 * (v2 - mean) ** 2
    mu4 = p1 * (v1 - mean) ** 4 + p2 * (v2 - mean) ** 4
    se_mean = math.sqrt(var / n)
    se_var = math.sqrt(max(mu4 - var * var, 0.0) / n)
    return SampleReport(
        quantity=quantity,
        n=n,
        empirical_mean=emp_mean,
        empirical_variance=emp_var,
        analytic_mean=analytic[0],
        analytic_variance=analytic[1],
        z_mean=_z(emp_mean - analytic[0], se_mean),
        z_variance=_z(emp_var - analytic[1], se_var),
        seed=int(seed),
        degenerate=(n < 2 or se_mean == 0.0 or se_var == 0.0),
    )


def _outcome_probability(rho: DensityMatrix, vec: np.ndarray) -> float:
    p = float(np.vdot(vec, rho.matrix @ vec).real)
    return min(max(p, 0.0), 1.0)


def sample_sharp(
    rho: DensityMatrix, obs: Observable, n: int, seed: int, stream: int = 0
) -> SampleReport:
    """Sample ``n`` projective outcomes of ``obs`` on ``rho``.

    The outcome probabilities come from explicit quadratic forms in the
    eigenvectors; the analytic claims under test come from the trace-based
    moments, so the two routes stay independent.
    """
    n = int(check_scalar(n, "n", 1, MAX_SHOTS))
    p_plus = _outcome_probability(rho, obs.vec_plus)
    k_plus = _count_below(_generator(seed, stream), n, p_plus)
    return _two_outcome_report(
        quantity="sharp",
        values=(obs.val_plus, obs.val_minus),
        probs=(p_plus, 1.0 - p_plus),
        counts=(k_plus, n - k_plus),
        seed=seed,
        analytic=mean_var(rho, obs),
    )


def sample_fringe(
    rho: DensityMatrix,
    phi_grid: np.ndarray,
    xi: float,
    n_per_point: int,
    seed: int,
) -> tuple[float, np.ndarray]:
    """Empirical fringe contrast from binomial counts along a phase scan.

    Each phase point is sampled on its own generator stream (indexed by grid
    position), so the scan can be sharded without changing the result.
    Returns the contrast ``(max - min) / (max + min)`` of the empirical
    probabilities together with the probabilities themselves.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.ndim != 1 or phi_grid.size < 2:
        raise ParameterError(f"phi_grid must hold at least 2 phases, got shape {phi_grid.shape}")
    n_per_point = int(check_scalar(n_per_point, "n_per_point", 1, MAX_SHOTS))
    xi = check_scalar(xi, "xi")
    p_hat = np.empty(phi_grid.size)
    for j, phi in enumerate(phi_grid):
        p = float(fringe_probability(rho, phi, xi))
        p = min(max(p, 0.0), 1.0)
        rng = _generator(seed, stream=j)
        p_hat[j] = rng.binomial(n_per_point, p) / n_per_point
    top = float(p_hat.max() - p_hat.min())
    bottom = float(p_hat.max() + p_hat.min())
    v_hat = top / bottom if bottom > 0.0 else 0.0
    return v_hat, p_hat


def sample_simultaneous(
    psi_e: EntangledState,
    varrho: float,
    n: int,
    seed: int,
    a_value: float = 0.5,
    b_value: float = 0.5,
) -> tuple[SampleReport, SampleReport]:
    """Sample the sequential meter-then-system readout ``n`` times.

    Per shot the meter outcome is drawn first, the system state is updated by
    projecting the composite state on that outcome, and the complementary
    basis outcome is drawn from the conditioned state. The reports compare
    the rescaled readout moments against :func:`estimate_a` and
    :func:`estimate_b`.
    """
    n = int(check_scalar(n, "n", 1, MAX_SHOTS))
    b = check_scalar(b_value, "b_value", 0.0, lo_open=True)
    mp = meter_projectors(psi_e.c, a_value)
    psi = psi_e.system_meter()

    # Meter stage: outcome probabilities and conditioned system vectors.
    cond = []
    for m_vec in (mp.m1, mp.m2):
        amp = psi @ m_vec.conj()
        p = float(np.vdot(amp, amp).real)
        cond.append((min(max(p, 0.0), 1.0), amp))
    p1 = cond[0][0]

    # System stage: conditional probability of the + outcome of the
    # complementary member, given each meter outcome.
    family = ComplementaryFamily(symmetric_observable(b), varrho, b, -b)
    vec_plus, _ = family.member_vectors()
    q = np.empty(2)
    for k, (p, amp) in enumerate(cond):
        overlap = float(abs(np.vdot(vec_plus, amp)) ** 2)
        q[k] = min(overlap / p, 1.0) if p > 0.0 else 0.0

    n_m1, n_b_plus = _count_joint(seed, n, p1, q)

    report_a = _two_outcome_report(
        quantity="readout_a",
        values=(mp.value_m1, mp.value_m2),
        probs=(p1, 1.0 - p1),
        counts=(n_m1, n - n_m1),
        seed=seed,
        analytic=estimate_a(psi_e, a_value),
    )
    p_b_plus = p1 * q[0] + (1.0 - p1) * q[1]
    value_b = b / psi_e.c
    report_b = _two_outcome_report(
        quantity="readout_b",
        values=(value_b, -value_b),
        probs=(p_b_plus, 1.0 - p_b_plus),
        counts=(n_b_plus, n - n_b_plus),
        seed=seed,
        analytic=estimate_b(psi_e, varrho, b),
    )
    return report_a, report_b
