import math
import tracemalloc

import numpy as np
import pytest

from qudual import (
    ComplementaryFamily,
    DensityMatrix,
    ParameterError,
    complementary_observable,
    entangle,
    mean_var,
    pure_state,
    sample_fringe,
    sample_sharp,
    sample_simultaneous,
    symmetric_observable,
)
from qudual.montecarlo import _CHUNK, _count_below, _count_joint, _generator, _generator_after

A = symmetric_observable()
PHI_GRID = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)


def test_same_seed_reproduces_bit_identical_reports():
    rho = DensityMatrix(0.7, 0.3, 1.1)
    r1 = sample_sharp(rho, A, 10000, seed=123)
    r2 = sample_sharp(rho, A, 10000, seed=123)
    assert r1 == r2
    r3 = sample_sharp(rho, A, 10000, seed=123, stream=1)
    assert r3.empirical_mean != r1.empirical_mean


def test_fringe_streams_are_reproducible():
    rho = pure_state(0.8, 0.4)
    v1, p1 = sample_fringe(rho, PHI_GRID, math.pi / 4.0, 2000, seed=9)
    v2, p2 = sample_fringe(rho, PHI_GRID, math.pi / 4.0, 2000, seed=9)
    assert v1 == v2
    np.testing.assert_array_equal(p1, p2)


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
        sample_fringe(pure_state(0.5), PHI_GRID, math.pi / 4.0, 0, seed=1)
    with pytest.raises(ParameterError, match="phi_grid"):
        sample_fringe(pure_state(0.5), np.array([0.0]), math.pi / 4.0, 10, seed=1)


def test_balanced_pure_state_gives_exact_full_contrast():
    # the scan hits probabilities exactly 0 and 1, so the empirical contrast
    # is exactly 1 whatever the seed
    v_hat, p_hat = sample_fringe(pure_state(0.5), PHI_GRID, math.pi / 4.0, 400, seed=77)
    assert v_hat == 1.0
    assert p_hat.min() == 0.0 and p_hat.max() == 1.0


def test_fringe_contrast_tracks_coherence():
    v_hat, _ = sample_fringe(pure_state(0.9, 0.7), PHI_GRID, math.pi / 4.0, 50000, seed=5)
    assert v_hat == pytest.approx(0.6, abs=0.02)


def test_complementary_sharp_sampling():
    rho = pure_state(0.9, 0.3)
    b_obs = complementary_observable(ComplementaryFamily(A, 0.3))
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


COUNT_SIZES = [1, 5, 6, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3, 10**6 + 3]


@pytest.mark.parametrize("n", COUNT_SIZES)
def test_chunked_sharp_count_equals_one_shot_draw(n):
    p = 0.37
    reference = int(np.count_nonzero(_generator(11, stream=2).random(n) < p))
    assert _count_below(_generator(11, stream=2), n, p) == reference


@pytest.mark.parametrize("n", COUNT_SIZES)
def test_chunked_joint_counts_equal_one_shot_draws(n):
    p1, q = 0.62, np.array([0.81, 0.23])
    # the one-shot route: n meter uniforms, then n system uniforms, on stream 0
    rng = _generator(13, stream=0)
    u_meter = rng.random(n)
    u_system = rng.random(n)
    took_m1 = u_meter < p1
    b_plus = u_system < np.where(took_m1, q[0], q[1])
    reference = (int(np.count_nonzero(took_m1)), int(np.count_nonzero(b_plus)))
    assert _count_joint(13, n, p1, q) == reference


@pytest.mark.parametrize("n", [0, 4, 5, 6, 7, 1001, _CHUNK + 1, 10**6 + 3])
def test_skipped_generator_continues_where_n_draws_end(n):
    # the skip counts four doubles per Philox counter step, so it breaks if a
    # double ever takes other than one 64-bit word
    tail = _generator(17, stream=3).random(2 * n)[n:]
    np.testing.assert_array_equal(_generator_after(17, 3, n).random(n), tail)


def _allocation_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sampler", ["sharp", "simultaneous"])
def test_sampler_memory_does_not_grow_with_n(sampler):
    rho, psi = pure_state(0.9, 0.3), entangle(0.9, 0.3, 0.6)
    run = {
        "sharp": lambda n: sample_sharp(rho, A, n, seed=3),
        "simultaneous": lambda n: sample_simultaneous(psi, 0.3, n, seed=3),
    }[sampler]
    run(1)  # warm any lazy set-up outside the measurement
    small = _allocation_peak(lambda: run(2 * 10**5))
    large = _allocation_peak(lambda: run(2 * 10**6))
    assert large <= small
    assert large < 2 * 2**20
