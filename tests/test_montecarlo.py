import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qudual import (
    REFERENCE,
    DensityMatrix,
    ParameterError,
    complementary_observable,
    entangle,
    mean_var,
    meter_projectors,
    pure_state,
    sample_fringe,
    sample_sharp,
    sample_simultaneous,
)
from qudual import duality, montecarlo, verify
from qudual.cli import main

A = REFERENCE


def test_same_seed_reproduces_bit_identical_reports():
    rho = DensityMatrix(0.7, 0.3, 1.1)
    r1 = sample_sharp(rho, A, 10000, seed=123)
    r2 = sample_sharp(rho, A, 10000, seed=123)
    assert r1 == r2
    r3 = sample_sharp(rho, A, 10000, seed=123, stream=1)
    assert r3.empirical_mean != r1.empirical_mean


def test_fringe_streams_are_reproducible():
    rho = pure_state(0.8, 0.4)
    assert sample_fringe(rho, 2000, seed=9) == sample_fringe(rho, 2000, seed=9)


def test_sharp_report_moments_and_z_definition():
    rho = pure_state(0.64, 0.9)
    rep = sample_sharp(rho, A, 100000, seed=42)
    mean, var = mean_var(rho, A)
    assert rep.analytic_mean == pytest.approx(mean, abs=1e-15)
    assert rep.analytic_variance == pytest.approx(var, abs=1e-15)
    # z-scores standardize by the exact binomial standard errors
    se_mean = math.sqrt(var / rep.n)
    assert rep.z_mean == pytest.approx((rep.empirical_mean - mean) / se_mean, rel=1e-12)
    assert abs(rep.z_mean) < 4.0 and abs(rep.z_variance) < 4.0
    assert not rep.flagged and not rep.degenerate


def test_eigenstate_sampling_is_degenerate():
    rep = sample_sharp(DensityMatrix(1.0, 0.0), A, 500, seed=1)
    assert rep.empirical_variance == 0.0
    assert rep.z_mean == 0.0 and rep.z_variance == 0.0
    assert rep.degenerate and not rep.flagged


def test_single_shot_is_degenerate():
    rep = sample_sharp(DensityMatrix(0.5, 0.0), A, 1, seed=1)
    assert rep.degenerate


def test_sample_size_validation():
    with pytest.raises(ParameterError, match=r"n = 0 violates the bound 1 <= n <= 1e\+12$"):
        sample_sharp(DensityMatrix(0.5, 0.0), A, 0, seed=1)
    with pytest.raises(ParameterError, match=r"n_per_point = 0 violates the bound 1 <= n_per_point"):
        sample_fringe(pure_state(0.5), 0, seed=1)


@pytest.mark.parametrize("seed", [math.inf, math.nan, 1.5])
def test_a_seed_that_is_not_an_integer_is_rejected(seed):
    with pytest.raises(ParameterError, match=f"seed and stream must be integers, got seed = {seed!r}"):
        verify.run_suite("duality", "fast", seed)
    with pytest.raises(ParameterError, match=f"seed and stream must be integers, got seed = {seed!r}"):
        sample_sharp(DensityMatrix(0.5, 0.0), A, 10, seed=seed)


def test_integer_seeds_keep_their_64_bit_keys():
    # numpy integers, negative seeds and seeds past 2**64 key the generator modulo 2**64, as before
    draw = montecarlo._generator(5, stream=7).random()
    assert montecarlo._generator(np.int64(5), stream=np.uint8(7)).random() == draw
    assert montecarlo._generator(5 + 2**64, stream=7 - 2**64).random() == draw
    assert montecarlo._generator(-1, 0).random() == montecarlo._generator(2**64 - 1, 0).random()


@pytest.mark.parametrize("stream", [0, 1000, 2**63])
@pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1, 343578368])
def test_generator_draws_the_bits_of_philox_keyed_directly(seed, stream):
    # the generator skips the entropy SeedSequence of Philox(key=...), not a bit of its stream
    ours = montecarlo._generator(seed, stream)
    theirs = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)))
    assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state)
    draws = [
        repr((rng.random(5), rng.binomial(10**6, 0.3, 16), rng.binomial(7, 0.5), rng.bit_generator.random_raw(9)))
        for rng in (ours, theirs)
    ]
    assert draws[0] == draws[1]


def test_balanced_pure_state_gives_exact_full_contrast():
    # the scan hits probabilities exactly 0 and 1, so the empirical contrast
    # is exactly 1 whatever the seed
    assert sample_fringe(pure_state(0.5), 400, seed=77) == 1.0


def test_fringe_contrast_tracks_coherence():
    assert sample_fringe(pure_state(0.9, 0.7), 50000, seed=5) == pytest.approx(0.6, abs=0.02)


def test_fringe_scan_is_one_draw_from_one_generator(count_calls):
    # the 16 counts are one Bin(n, p) vector draw from the (seed, stream) generator
    rho, n = pure_state(0.8, 0.4), 3000
    generators = count_calls(montecarlo, "_generator")
    scans = count_calls(montecarlo, "fringe_probability")
    v_hat = sample_fringe(rho, n, seed=9, stream=4)
    assert (len(generators), len(scans)) == (1, 1)
    phi = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    p = np.clip(duality.fringe_probability(rho, phi, math.pi / 4.0), 0.0, 1.0)
    k = montecarlo._generator(9, stream=4).binomial(n, p)
    assert v_hat == (k.max() - k.min()) / (k.max() + k.min())


def test_complementary_sharp_sampling():
    rho = pure_state(0.9, 0.3)
    b_obs = complementary_observable(0.3)
    rep = sample_sharp(rho, b_obs, 100000, seed=11)
    assert rep.analytic_variance == pytest.approx(0.16, abs=1e-15)
    assert not rep.flagged


def test_simultaneous_reports_match_closed_forms():
    psi = entangle(0.9, 0.3, math.sqrt(3.0 / 7.0))
    rep_a, rep_b = sample_simultaneous(psi, 0.3, 200000, seed=42)
    assert rep_a.quantity == "readout_a" and rep_b.quantity == "readout_b"
    assert rep_a.analytic_mean == pytest.approx(0.4, abs=1e-12)
    assert rep_a.analytic_variance == pytest.approx(0.2775, abs=1e-12)
    assert rep_b.analytic_mean == pytest.approx(0.3, abs=1e-12)
    assert not rep_a.flagged and not rep_b.flagged
    # same seed, same shots
    rep_a2, rep_b2 = sample_simultaneous(psi, 0.3, 200000, seed=42)
    assert rep_a == rep_a2 and rep_b == rep_b2


def test_simultaneous_multiple_seeds_stay_within_gates():
    psi = entangle(0.75, 1.0, 0.5)
    for seed in range(5):
        rep_a, rep_b = sample_simultaneous(psi, 1.0, 20000, seed=seed)
        assert not rep_a.flagged
        assert not rep_b.flagged


def _count(rep, v_plus, v_minus):
    """The count of outcome ``v_plus`` behind a report's empirical mean."""
    return round(rep.n * (rep.empirical_mean - v_minus) / (v_plus - v_minus))


def _chi_square_z(observed: Counter, pmf: dict) -> float:
    """Pearson's statistic of ``observed`` against ``pmf``, as a Wilson-Hilferty z.

    Outcomes expected fewer than 5 times are pooled into one cell, so the
    chi-square law holds; the cube-root transform makes the threshold the
    same whatever the number of cells.
    """
    assert set(observed) <= set(pmf), "a count outside the support"
    total = sum(observed.values())
    cells, rest_obs, rest_exp = [], 0, 0.0
    for outcome, p in pmf.items():
        if total * p >= 5.0:
            cells.append((observed[outcome], total * p))
        else:
            rest_obs, rest_exp = rest_obs + observed[outcome], rest_exp + total * p
    cells.append((rest_obs, rest_exp))
    stat = sum((o - e) ** 2 / e for o, e in cells if e > 0.0)
    df = len(cells) - 1
    return ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))


def _binomial_pmf(n: int, p: float) -> list:
    return [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]


DRAWS, SMALL_N = 4000, 20


def test_sharp_count_follows_the_binomial_law():
    rho = pure_state(0.64, 0.9)
    p_plus = float(np.vdot(A.vec_plus, rho.matrix @ A.vec_plus).real)
    counts = Counter(
        _count(sample_sharp(rho, A, SMALL_N, seed), A.val_plus, A.val_minus) for seed in range(DRAWS)
    )
    pmf = dict(enumerate(_binomial_pmf(SMALL_N, p_plus)))
    assert _chi_square_z(counts, pmf) < 4.0


def test_joint_counts_follow_the_meter_by_system_table():
    # (n_m1, n_b+) = (N11 + N12, N11 + N21) for the multinomial 2x2 table of
    # meter outcome by system outcome, with cell probabilities p1 q0, p1 (1 - q0),
    # (1 - p1) q1 and (1 - p1)(1 - q1) from explicit projections
    c, varrho, b = 0.5, 1.0, 0.5
    psi_e = entangle(0.7, 1.0, c)
    mp = meter_projectors(c)
    vec_plus = complementary_observable(varrho).vec_plus
    amps = [psi_e.amplitudes @ m.conj() for m in (mp.vec_plus, mp.vec_minus)]
    p1 = float(np.vdot(amps[0], amps[0]).real)
    q0, q1 = (abs(np.vdot(vec_plus, amp)) ** 2 / float(np.vdot(amp, amp).real) for amp in amps)
    counts = Counter()
    for seed in range(DRAWS):
        rep_a, rep_b = sample_simultaneous(psi_e, varrho, SMALL_N, seed)
        counts[_count(rep_a, mp.val_plus, mp.val_minus), _count(rep_b, b / c, -b / c)] += 1
    meter = _binomial_pmf(SMALL_N, p1)
    pmf = {}
    for m1 in range(SMALL_N + 1):
        from_m1, from_m2 = _binomial_pmf(m1, q0), _binomial_pmf(SMALL_N - m1, q1)
        for plus in range(SMALL_N + 1):
            pmf[m1, plus] = meter[m1] * sum(
                from_m1[j] * from_m2[plus - j] for j in range(max(0, plus - (SMALL_N - m1)), min(m1, plus) + 1)
            )
    assert math.isclose(sum(pmf.values()), 1.0, rel_tol=1e-12)
    assert _chi_square_z(counts, pmf) < 4.0


# Sizes on both sides of 2**16, the chunk the uniforms were once counted in,
# so the names and cases of these two tests carry over to the drawn counts.
COUNT_SIZES = [1, 5, 6, 7, 2**16 - 1, 2**16, 2**16 + 1, 2 * 2**16 + 3, 10**6 + 3]


@pytest.mark.parametrize("n", COUNT_SIZES)
def test_chunked_sharp_count_equals_one_shot_draw(n):
    # the count is one Bin(n, p+) draw from the (seed, stream) generator
    rho = pure_state(0.37, 1.1)
    p_plus = montecarlo._outcome_probability(rho, A._columns[0])
    reference = int(montecarlo._generator(11, stream=2).binomial(n, p_plus))
    rep = sample_sharp(rho, A, n, seed=11, stream=2)
    assert _count(rep, A.val_plus, A.val_minus) == reference


class _BinomialLog:
    """A generator that logs the (n, p) of each binomial draw it makes."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def binomial(self, n, p):
        self._log.append((int(n), float(p)))
        return self._rng.binomial(n, p)


@pytest.mark.parametrize("n", COUNT_SIZES)
def test_chunked_joint_counts_equal_one_shot_draws(n, monkeypatch):
    # the counts are Bin(n, p1), then Bin(n_m1, q0) + Bin(n - n_m1, q1), drawn
    # in that order from the one (seed, stream) generator
    c, varrho, b = 0.62, 1.3, 0.5
    psi_e = entangle(0.8, 0.4, c)
    log = []
    real = montecarlo._generator
    monkeypatch.setattr(montecarlo, "_generator", lambda seed, stream=0: _BinomialLog(real(seed, stream), log))
    rep_a, rep_b = sample_simultaneous(psi_e, varrho, n, seed=13, stream=4)
    mp = meter_projectors(c)
    n_m1 = _count(rep_a, mp.val_plus, mp.val_minus)
    n_b_plus = _count(rep_b, b / c, -b / c)
    assert [trials for trials, _ in log] == [n, n_m1, n - n_m1]

    # p1 and q from explicit projections, independent of the sampler's arithmetic
    vec_plus = complementary_observable(varrho).vec_plus
    amps = [psi_e.amplitudes @ m.conj() for m in (mp.vec_plus, mp.vec_minus)]
    p1 = float(np.vdot(amps[0], amps[0]).real)
    q = [abs(np.vdot(vec_plus, amp)) ** 2 / float(np.vdot(amp, amp).real) for amp in amps]
    np.testing.assert_allclose([p for _, p in log], [p1, *q], rtol=1e-12)

    rng = real(13, stream=4)
    reference = [int(rng.binomial(trials, p)) for trials, p in log]
    assert (n_m1, n_b_plus) == (reference[0], reference[1] + reference[2])


def _allocation_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sampler", ["sharp", "simultaneous"])
def test_sampler_memory_does_not_grow_with_n(sampler):
    # at the largest n the call takes milliseconds and little memory: its
    # cost is flat in n
    rho, psi = pure_state(0.9, 0.3), entangle(0.9, 0.3, 0.6)
    run = {
        "sharp": lambda n: sample_sharp(rho, A, n, seed=3),
        "simultaneous": lambda n: sample_simultaneous(psi, 0.3, n, seed=3),
    }[sampler]
    run(1)  # warm any lazy set-up outside the measurement
    start = time.perf_counter()
    run(montecarlo.MAX_SHOTS)
    assert time.perf_counter() - start < 0.05
    assert _allocation_peak(lambda: run(montecarlo.MAX_SHOTS)) < 2 * 2**20


def _generator_keys(monkeypatch, run) -> list:
    """The (seed, stream) keys of every generator that ``run`` makes."""
    keys = []
    real = montecarlo._generator

    def recording(seed, stream=0):
        keys.append((int(seed), int(stream)))
        return real(seed, stream)

    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_generator", recording)
        run()
    return keys


def test_runs_at_adjacent_seeds_share_no_generator_key(monkeypatch, capsys):
    monkeypatch.delenv("QUDUAL_SEED", raising=False)
    runs = [
        _generator_keys(monkeypatch, lambda: main(["mc", "--n", "1000", "--seed", "5"])),
        _generator_keys(monkeypatch, lambda: main(["mc", "--n", "1000", "--seed", "6"])),
        _generator_keys(monkeypatch, lambda: verify.run_suite("monte_carlo", "fast", 42)),
        _generator_keys(monkeypatch, lambda: verify.run_suite("monte_carlo", "fast", 43)),
    ]
    capsys.readouterr()
    assert [len(keys) for keys in runs] == [4, 4, 7, 7]
    for keys in runs:
        assert len(set(keys)) == len(keys)
    for i, j in itertools.combinations(range(len(runs)), 2):
        assert not set(runs[i]) & set(runs[j])
