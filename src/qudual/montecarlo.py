"""Sampling oracles that check the closed forms against simulated experiments.

Every sampler draws from one counter-based generator (Philox) keyed by a seed
and a stream index, so runs are reproducible bit for bit and samplers on
different streams draw independently of each other. Reports compare the
empirical mean and variance against the analytic values through z-scores
built from the exact sampling distribution of the estimator (two-outcome
distributions, so the fourth central moment entering the variance standard
error is available in closed form).

Each readout has two outcomes and its report uses only the count ``k`` of one
of them, so the samplers draw ``k`` itself, exactly: ``Generator.binomial``
uses BTPE (Kachitvichyanukul and Schmeiser, Commun. ACM 31, 216, 1988), with
inversion for small ``n p``. Their time and memory do not depend on ``n``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .duality import fringe_probability
from .errors import ParameterError, check_count
from .linalg import _one_value, _projector, _times_conj, _traces
from .simultaneous import EntangledState, estimate_a, estimate_b, meter_projectors
from .states import GAUGE, TWO_PI, DensityMatrix, Observable, complementary_observable
from .uncertainty import mean_var

Z_FLAG_THRESHOLD = 4.0

# Largest outcome magnitude whose spread to the mean, to the fourth power,
# is a finite double; the standard error of the sampled variance needs it.
MAX_SAMPLED_VALUE = sys.float_info.max ** 0.25 / 2.0

# Largest sample size, a round number below 2**53: check_count reads n as a
# float, so n is exact only below 2**53, and at 2**53 + 1 the int(float(n))
# round trip would silently sample a different n.
MAX_SHOTS = 10**12

_MASK64 = (1 << 64) - 1

# The phase scan of sample_fringe: 16 phases over [0, 2 pi) behind the
# balanced splitter.
_SCAN_PHI = np.linspace(0.0, TWO_PI, 16, endpoint=False)
_SCAN_XI = math.pi / 4.0

__all__ = [
    "SampleReport",
    "sample_sharp",
    "sample_fringe",
    "sample_simultaneous",
]


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands Philox its key as is.

    ``Philox(_PhiloxKey(key))`` has the state of ``Philox(key=key)``: that
    key, a zero counter and an empty buffer. ``Philox(key=key)`` also builds
    a ``SeedSequence`` from OS entropy, which the key then overrides; that
    costs more than the rest of the generator.
    """

    def __init__(self, key: np.ndarray) -> None:
        self._key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self._key[:n_words].astype(dtype, copy=False)  # Philox asks for its two uint64 key words


def _generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream), each an integer taken modulo 2**64; counter-based and splittable."""
    if not (isinstance(seed, (int, np.integer)) and isinstance(stream, (int, np.integer))):
        raise ParameterError(f"seed and stream must be integers, got seed = {seed!r}, stream = {stream!r}")
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


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
    d1, d2 = v1 - mean, v2 - mean
    sq1, sq2 = d1 * d1, d2 * d2
    var = p1 * sq1 + p2 * sq2
    mu4 = p1 * (sq1 * sq1) + p2 * (sq2 * sq2)
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
        degenerate=(n < 2 or se_mean == 0.0 or se_var == 0.0),
    )


def _outcome_probability(rho: DensityMatrix, column: tuple) -> float:
    """``tr(rho |vec><vec|)``, clipped to [0, 1], for an eigenbasis column ``vec`` given as parts: Python floats."""
    (p,) = _traces(rho._parts, _projector(*column))
    return min(max(p, 0.0), 1.0)


def sample_sharp(
    rho: DensityMatrix, obs: Observable, n: int, seed: int, stream: int = 0
) -> SampleReport:
    """Sample ``n`` projective outcomes of ``obs`` on ``rho``.

    The outcome probabilities come from explicit quadratic forms in the
    eigenvectors; the analytic claims under test come from the trace-based
    moments, so the two routes stay independent.
    """
    n = check_count(n, "n", 1, MAX_SHOTS)
    _one_value(rho.w_plus, "sample_sharp samples one state")
    p_plus = _outcome_probability(rho, obs._columns[0])
    k_plus = int(_generator(seed, stream).binomial(n, p_plus))
    return _two_outcome_report(
        quantity="sharp",
        values=(obs.val_plus, obs.val_minus),
        probs=(p_plus, 1.0 - p_plus),
        counts=(k_plus, n - k_plus),
        analytic=mean_var(rho, obs),
    )


def sample_fringe(rho: DensityMatrix, n_per_point: int, seed: int, stream: int = 0) -> float:
    """Empirical fringe contrast from binomial counts along the phase scan.

    The scan is 16 phases over [0, 2 pi) behind the balanced splitter,
    ``xi = pi/4``. Phase ``j`` gets one ``Bin(n_per_point, p_j)`` count, and
    the 16 counts are one draw from the (seed, stream) generator. Returns
    their contrast ``(max - min) / (max + min)``, 0 when every count is 0.
    """
    n_per_point = check_count(n_per_point, "n_per_point", 1, MAX_SHOTS)
    _one_value(rho.w_plus, "sample_fringe samples one state")
    p = np.clip(fringe_probability(rho, _SCAN_PHI, _SCAN_XI), 0.0, 1.0)
    k = _generator(seed, stream).binomial(n_per_point, p)
    top, bottom = int(k.max() - k.min()), int(k.max() + k.min())
    return top / bottom if bottom > 0 else 0.0


def sample_simultaneous(
    psi_e: EntangledState,
    varrho: float,
    n: int,
    seed: int,
    stream: int = 0,
) -> tuple[SampleReport, SampleReport]:
    """Sample the sequential meter-then-system readout ``n`` times.

    Per shot the meter outcome is drawn first, the system state is updated by
    projecting the composite state on that outcome, and the complementary
    basis outcome is drawn from the conditioned state. The two counts of
    those ``n`` shots are drawn stage by stage, with exactly their law, from
    the (seed, stream) generator: ``n_m1 ~ Bin(n, p1)`` meter outcomes 1, then
    ``Bin(n_m1, q0) + Bin(n - n_m1, q1)`` system outcomes +, where ``q`` is
    the + probability given each meter outcome. The reports compare the
    rescaled readout moments against :func:`estimate_a` and
    :func:`estimate_b`.
    """
    n = check_count(n, "n", 1, MAX_SHOTS)
    mp = meter_projectors(_one_value(psi_e.c, "sample_simultaneous takes one entangled state"))
    # (re, im) parts of Python floats: amplitude rows by system state, and the meter and member vectors.
    psi, meters = psi_e._rows, mp._columns
    v0, v1 = complementary_observable(varrho)._columns[0]

    # Meter stage: outcome probabilities and the conditioned system vectors
    # amp[s] = sum_m psi[s, m] conj(meter[m]).
    cond = []
    for m0, m1 in meters:
        amp = [[x + y for x, y in zip(_times_conj(s0, m0), _times_conj(s1, m1))] for s0, s1 in psi]
        p = sum(x * x + y * y for x, y in amp)
        cond.append((min(max(p, 0.0), 1.0), amp))
    p1 = cond[0][0]

    # System stage: conditional probability of the + outcome of the
    # complementary member, |<v|amp>|^2 / p, given each meter outcome.
    q = []
    for p, (a0, a1) in cond:
        x, y = (s + t for s, t in zip(_times_conj(a0, v0), _times_conj(a1, v1)))
        q.append(min((x * x + y * y) / p, 1.0) if p > 0.0 else 0.0)

    rng = _generator(seed, stream)
    n_m1 = int(rng.binomial(n, p1))
    n_b_plus = int(rng.binomial(n_m1, q[0])) + int(rng.binomial(n - n_m1, q[1]))

    report_a = _two_outcome_report(
        quantity="readout_a",
        values=(mp.val_plus, mp.val_minus),
        probs=(p1, 1.0 - p1),
        counts=(n_m1, n - n_m1),
        analytic=estimate_a(psi_e),
    )
    p_b_plus = p1 * q[0] + (1.0 - p1) * q[1]
    value_b = GAUGE / psi_e.c
    report_b = _two_outcome_report(
        quantity="readout_b",
        values=(value_b, -value_b),
        probs=(p_b_plus, 1.0 - p_b_plus),
        counts=(n_b_plus, n - n_b_plus),
        analytic=estimate_b(psi_e, varrho),
    )
    return report_a, report_b
