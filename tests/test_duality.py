import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qudual import (
    MAX_GRID_N,
    ContractViolationError,
    DensityMatrix,
    ParameterError,
    duality_arrays,
    duality_report,
    family_arrays,
    fringe_probability,
    predictability,
    pure_state,
    validate_density,
    visibility,
    visibility_oracle,
)

w_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)


def draw_state(w, u, theta):
    return DensityMatrix(w, u * math.sqrt(w * (1.0 - w)), theta)


def test_frozen_duality_values():
    rho = pure_state(0.9)
    assert predictability(rho) == pytest.approx(0.8, abs=1e-15)
    assert visibility(rho) == pytest.approx(0.6, abs=1e-15)
    rep = duality_report(rho)
    assert rep.sum_sq == pytest.approx(1.0, abs=1e-15)


def test_fringe_probability_frozen_points():
    # without the mixing stage the + detector sees the + population
    rho = DensityMatrix(0.7, 0.2, 0.4)
    assert fringe_probability(rho, 1.3, 0.0) == pytest.approx(0.7, abs=1e-15)
    # balanced pure state nulls completely at the balanced mixer
    assert fringe_probability(pure_state(0.5), math.pi / 2.0, math.pi / 4.0) == pytest.approx(0.0, abs=1e-15)
    assert fringe_probability(pure_state(0.5), 3.0 * math.pi / 2.0, math.pi / 4.0) == pytest.approx(1.0, abs=1e-15)


def test_fringe_probability_broadcasts():
    rho = pure_state(0.8, 0.2)
    phi = np.linspace(0.0, 2.0 * math.pi, 7)
    xi = np.linspace(0.0, math.pi, 5)
    p = fringe_probability(rho, phi[None, :], xi[:, None])
    assert p.shape == (5, 7)
    assert np.all(p >= -1e-15) and np.all(p <= 1.0 + 1e-15)


@given(w=w_values, u=fractions, theta=angles, phi=angles, xi=angles)
def test_fringe_probability_matches_closed_form(w, u, theta, phi, xi):
    rho = draw_state(w, u, theta)
    direct = (
        rho.w_plus * math.cos(xi) ** 2
        + rho.w_minus * math.sin(xi) ** 2
        - rho.rho12 * math.sin(2.0 * xi) * math.sin(rho.theta + phi)
    )
    assert fringe_probability(rho, phi, xi) == pytest.approx(direct, abs=1e-12)


def interferometer(phi, xi):
    """The two-arm unitary: a relative phase ``phi`` on ``|minus>``, then a beam splitter of angle ``xi``."""
    c, s = math.cos(xi), math.sin(xi)
    return np.array([[c, 1j * s], [1j * s, c]]) @ np.diag([1.0, np.exp(1j * phi)])


@given(w=w_values, u=fractions, theta=angles, phi=angles, xi=angles)
def test_fringe_probability_matches_full_unitaries(w, u, theta, phi, xi):
    rho = draw_state(w, u, theta)
    unitary = interferometer(phi, xi)
    full = (unitary @ rho.matrix @ unitary.conj().T)[0, 0].real
    assert fringe_probability(rho, phi, xi) == pytest.approx(full, abs=1e-15)


@given(w=w_values, theta=angles, phi=angles, xi=angles)
def test_diagonal_states_show_no_fringes(w, theta, phi, xi):
    rho = DensityMatrix(w, 0.0, theta)
    assert fringe_probability(rho, phi, xi) == pytest.approx(fringe_probability(rho, 0.0, xi), abs=1e-12)


def test_oracle_frozen_cases():
    v_hat, xi_hat = visibility_oracle(pure_state(0.9), grid_n=512)
    assert v_hat == pytest.approx(0.6, abs=1e-3)
    assert xi_hat == pytest.approx(math.pi / 4.0, abs=2.0 * math.pi / 512 + 1e-9)
    v_hat, _ = visibility_oracle(pure_state(0.5), grid_n=512)
    assert v_hat == pytest.approx(1.0, abs=1e-3)
    # diagonal state: the scan sees only float noise, far below any fringe
    v_hat, _ = visibility_oracle(DensityMatrix(0.7, 0.0), grid_n=64)
    assert v_hat == pytest.approx(0.0, abs=1e-12)


def test_oracle_rejects_tiny_grid():
    with pytest.raises(ParameterError, match="grid_n"):
        visibility_oracle(pure_state(0.5), grid_n=4)


def full_grid_oracle(rho, grid_n):
    """The oracle as a scan of every grid point: the reference for the two-phase scan."""
    phi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    xi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    p = fringe_probability(rho, phi[None, :], xi[:, None])
    p_max = p.max(axis=1)
    p_min = p.min(axis=1)
    amplitude = p_max - p_min
    k = int(np.argmax(amplitude))
    xi_hat = float(xi[k] % (math.pi / 2.0))
    if amplitude[k] <= 0.0:
        return 0.0, xi_hat
    return float((p_max[k] - p_min[k]) / (p_max[k] + p_min[k])), xi_hat


@given(
    kind=st.sampled_from(["pure", "mixed", "diagonal"]),
    w=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), w_values),
    u=fractions,
    theta=angles,
    grid_n=st.sampled_from([8, 97, 96, 512]),
)
def test_oracle_matches_the_full_grid_scan_bit_for_bit(kind, w, u, theta, grid_n):
    fraction = {"pure": 1.0, "mixed": u, "diagonal": 0.0}[kind]
    rho = draw_state(w, fraction, theta)
    got = np.array(visibility_oracle(rho, grid_n))
    want = np.array(full_grid_oracle(rho, grid_n))
    # the bytes compare the sign of a zero too
    assert got.tobytes() == want.tobytes(), (got, want)


def test_oracle_memory_stays_linear_in_the_grid():
    rho = pure_state(0.9, 0.3)
    visibility_oracle(rho, MAX_GRID_N)  # first call: caches the state's matrix
    tracemalloc.start()
    try:
        visibility_oracle(rho, MAX_GRID_N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full MAX_GRID_N**2 grid alone would take 32 MiB
    assert peak < 1_000_000


@given(w=w_values, u=fractions, theta=angles)
def test_oracle_tracks_coherence(w, u, theta):
    rho = draw_state(w, u, theta)
    # below ~1e-9 the fringe signal drowns in float noise of the grid scan
    assume(rho.rho12 == 0.0 or rho.rho12 > 1e-9)
    v_hat, _ = visibility_oracle(rho, grid_n=96)
    assert v_hat == pytest.approx(visibility(rho), abs=5e-3)


def test_family_frozen_values():
    rho = pure_state(0.9, 0.3)
    # proper phase choice swaps the roles of P and V
    p_b, v_b = family_arrays(rho.w_plus, rho.rho12, rho.theta, 0.3)
    assert p_b == pytest.approx(0.6, abs=1e-15)
    assert v_b == pytest.approx(0.8, abs=1e-15)
    # erasure choice erases all predictability of the member outcome
    p_b, v_b = family_arrays(rho.w_plus, rho.rho12, rho.theta, 0.3 + math.pi / 2.0)
    assert p_b == pytest.approx(0.0, abs=1e-15)
    assert v_b == pytest.approx(1.0, abs=1e-15)


@given(w=w_values, u=fractions, theta=angles, varrho=angles)
def test_family_rotation_preserves_the_sum(w, u, theta, varrho):
    rho = draw_state(w, u, theta)
    base = predictability(rho) ** 2 + visibility(rho) ** 2
    p_b, v_b = family_arrays(rho.w_plus, rho.rho12, rho.theta, varrho)
    assert p_b**2 + v_b**2 == pytest.approx(base, abs=1e-12)


def test_family_stack_matches_each_state_alone():
    rng = np.random.default_rng(4)
    w = rng.uniform(0.0, 1.0, 300)
    w, rho12, theta = validate_density(w, rng.uniform(0.0, 1.0, 300) * np.sqrt(w * (1.0 - w)), rng.uniform(0.0, 7.0, 300))
    varrho = rng.uniform(-20.0, 20.0, 300)
    stack = [x.tolist() for x in family_arrays(w, rho12, theta, varrho)]
    for i in range(w.size):
        alone = family_arrays(float(w[i]), float(rho12[i]), float(theta[i]), float(varrho[i]))
        assert tuple(float(x) for x in alone) == (stack[0][i], stack[1][i])


@pytest.mark.parametrize("varrho", [math.nan, math.inf, -math.inf])
def test_family_rejects_a_non_finite_phase(varrho):
    with pytest.raises(ParameterError, match="varrho = "):
        family_arrays(0.9, 0.3, 0.3, varrho)
    with pytest.raises(ParameterError, match="varrho = "):
        family_arrays([0.9, 0.5], [0.3, 0.5], [0.3, 1.0], [0.2, varrho])


@given(w=w_values, u=fractions, theta=angles)
def test_report_bounds_and_purity_link(w, u, theta):
    rho = draw_state(w, u, theta)
    rep = duality_report(rho)
    assert rep.sum_sq <= 1.0 + 1e-12
    assert rep.sum_sq == pytest.approx(2.0 * rho.purity - 1.0, abs=1e-12)


def test_equality_exactly_for_pure_states():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = rng.uniform()
        rho = pure_state(w, rng.uniform(0.0, 2.0 * math.pi))
        assert abs(duality_report(rho).sum_sq - 1.0) <= 1e-10
    for _ in range(200):
        w = rng.uniform(0.05, 0.95)
        rho = DensityMatrix(w, rng.uniform(0.0, 0.99) * math.sqrt(w * (1.0 - w)), 0.0)
        assert duality_report(rho).sum_sq < 1.0 - 1e-10


def test_kernel_on_a_stack_matches_the_scalar_report():
    rng = np.random.default_rng(17)
    w = rng.uniform(0.0, 1.0, 500)
    rho12 = rng.uniform(0.0, 1.0, 500) * np.sqrt(w * (1.0 - w))
    p, v, sum_sq, purity = duality_arrays(w, rho12)
    for i in range(w.size):
        rho = DensityMatrix(w[i], rho12[i])
        rep = duality_report(rho)
        assert (rep.p, rep.v, rep.sum_sq) == (p[i], v[i], sum_sq[i])
        assert (rep.p, rep.v, purity[i]) == (predictability(rho), visibility(rho), rho.purity)


def test_kernel_keeps_the_report_contract():
    # rho12 = 0.9 at w_plus = 1/2 is past the positivity bound: P**2 + V**2 = 3.24.
    with pytest.raises(ContractViolationError, match=r"P\*\*2 \+ V\*\*2 = 3.24 exceeds 1"):
        duality_arrays([0.5, 0.5, 0.3], [0.1, 0.9, 0.0])
