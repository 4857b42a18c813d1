import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qudual import (
    DensityMatrix,
    ParameterError,
    family_duality,
    fringe_probability,
    predictability,
    pure_state,
    visibility,
    visibility_oracle,
)
from qudual.duality import MAX_GRID_N

w_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)


def draw_state(w, u, theta):
    return DensityMatrix(w, u * math.sqrt(w * (1.0 - w)), theta)


def sum_of_squares(rho):
    """``P**2 + V**2`` of one state or a stack."""
    p, v = predictability(rho), visibility(rho)
    return p * p + v * v


def test_frozen_duality_values():
    rho = pure_state(0.9)
    assert predictability(rho) == pytest.approx(0.8, abs=1e-15)
    assert visibility(rho) == pytest.approx(0.6, abs=1e-15)
    assert sum_of_squares(rho) == pytest.approx(1.0, abs=1e-15)


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


_KINDS = st.sampled_from(["pure", "mixed", "diagonal"])
_ORACLE_ROWS = st.tuples(_KINDS, st.one_of(st.sampled_from([0.0, 0.5, 1.0]), w_values), fractions, angles)


@given(
    rows=st.lists(_ORACLE_ROWS, min_size=6, max_size=6),
    shape=st.sampled_from([(1,), (3,), (6,), (2, 3)]),
    grid_n=st.sampled_from([8, 96, 97, 512]),
)
def test_oracle_of_a_stack_has_the_bits_of_each_state_alone(rows, shape, grid_n):
    states = [draw_state(w, {"pure": 1.0, "mixed": u, "diagonal": 0.0}[kind], theta) for kind, w, u, theta in rows]
    states = states[: math.prod(shape)]
    fields = ("w_plus", "rho12", "theta")
    stack = DensityMatrix(*(np.reshape([getattr(rho, f) for rho in states], shape) for f in fields))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v_hat, xi_hat = visibility_oracle(stack, grid_n)
        alone = [visibility_oracle(rho, grid_n) for rho in states]
    assert all(type(x) is float for pair in alone for x in pair)
    assert v_hat.shape == xi_hat.shape == shape
    # the bytes compare the sign of a zero too
    assert np.stack([v_hat.ravel(), xi_hat.ravel()], axis=-1).tobytes() == np.array(alone).tobytes()


def _oracle_peak(rho) -> int:
    """The tracemalloc peak of a ``MAX_GRID_N`` scan of ``rho``, after a first scan has cached what the state caches."""
    visibility_oracle(rho, MAX_GRID_N)
    tracemalloc.start()
    try:
        visibility_oracle(rho, MAX_GRID_N)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_stays_linear_in_the_grid():
    # the full MAX_GRID_N**2 grid alone would take 32 MiB
    assert _oracle_peak(pure_state(0.9, 0.3)) < 1_000_000
    # a stack scans every state in one call, and holds no more than 23 scans of one state would
    w = np.linspace(0.05, 0.95, 23)
    assert _oracle_peak(DensityMatrix(w, 0.5 * np.sqrt(w * (1.0 - w)), np.linspace(0.0, 6.0, 23))) < 23 * 1_000_000


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
    p_b, v_b = family_duality(rho, 0.3)
    assert p_b == pytest.approx(0.6, abs=1e-15)
    assert v_b == pytest.approx(0.8, abs=1e-15)
    # erasure choice erases all predictability of the member outcome
    p_b, v_b = family_duality(rho, 0.3 + math.pi / 2.0)
    assert p_b == pytest.approx(0.0, abs=1e-15)
    assert v_b == pytest.approx(1.0, abs=1e-15)


@given(w=w_values, u=fractions, theta=angles, varrho=angles)
def test_family_rotation_preserves_the_sum(w, u, theta, varrho):
    rho = draw_state(w, u, theta)
    base = predictability(rho) ** 2 + visibility(rho) ** 2
    p_b, v_b = family_duality(rho, varrho)
    assert p_b**2 + v_b**2 == pytest.approx(base, abs=1e-12)


def test_family_stack_matches_each_state_alone():
    rng = np.random.default_rng(4)
    w = rng.uniform(0.0, 1.0, 300)
    rho = DensityMatrix(w, rng.uniform(0.0, 1.0, 300) * np.sqrt(w * (1.0 - w)), rng.uniform(0.0, 7.0, 300))
    varrho = rng.uniform(-20.0, 20.0, 300)
    varrho[:3] = 1e308, -1e308, -1.5e308  # a stored theta is wrapped, so theta - varrho stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = [x.tolist() for x in family_duality(rho, varrho)]
    for i in range(w.size):
        alone = family_duality(DensityMatrix(rho.w_plus[i], rho.rho12[i], rho.theta[i]), float(varrho[i]))
        assert alone == (stack[0][i], stack[1][i])


@pytest.mark.parametrize("varrho", [math.nan, math.inf, -math.inf])
def test_family_rejects_a_non_finite_phase(varrho):
    with pytest.raises(ParameterError, match="varrho = "):
        family_duality(DensityMatrix(0.9, 0.3, 0.3), varrho)
    with pytest.raises(ParameterError, match="varrho = "):
        family_duality(DensityMatrix([0.9, 0.5], [0.3, 0.5], [0.3, 1.0]), [0.2, varrho])


W_PLUS_BOUND = "violates the bound 0 <= w_plus <= 1"
RHO12_BOUND = "violates the positivity bound 0 <= rho12 <= sqrt(w_plus * w_minus)"


@pytest.mark.parametrize(
    "w_plus, rho12, shown", [(math.nan, 0.1, "nan"), (2.0, 0.1, "2.0"), (0.3, 10**400, "inf"), (0.5, -0.3, "-0.3")]
)
def test_family_checks_its_state(w_plus, rho12, shown):
    # the state is checked where it is built: NaN, a population past 1, an overflow and a negative coherence each
    # raise the error of the bound they violate, not a raw error or a negative P_B; only one input can show `shown`
    for state in (lambda: DensityMatrix(w_plus, rho12), lambda: DensityMatrix([0.5, w_plus], [0.1, rho12])):
        with pytest.raises(ParameterError) as error:
            family_duality(state(), 0.0)
        assert str(error.value).startswith((f"w_plus = {shown} {W_PLUS_BOUND}", f"rho12 = {shown} {RHO12_BOUND}"))


@given(w=w_values, u=fractions, theta=angles)
def test_report_bounds_and_purity_link(w, u, theta):
    rho = draw_state(w, u, theta)
    sum_sq = sum_of_squares(rho)
    assert sum_sq <= 1.0 + 1e-12
    assert sum_sq == pytest.approx(2.0 * rho.purity - 1.0, abs=1e-12)


def test_equality_exactly_for_pure_states():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = rng.uniform()
        rho = pure_state(w, rng.uniform(0.0, 2.0 * math.pi))
        assert abs(sum_of_squares(rho) - 1.0) <= 1e-10
    for _ in range(200):
        w = rng.uniform(0.05, 0.95)
        rho = DensityMatrix(w, rng.uniform(0.0, 0.99) * math.sqrt(w * (1.0 - w)), 0.0)
        assert sum_of_squares(rho) < 1.0 - 1e-10


def test_kernel_on_a_stack_matches_the_scalar_report():
    rng = np.random.default_rng(17)
    w = rng.uniform(0.0, 1.0, 500)
    stack = DensityMatrix(w, rng.uniform(0.0, 1.0, 500) * np.sqrt(w * (1.0 - w)))
    p, v, sum_sq, pur = predictability(stack), visibility(stack), sum_of_squares(stack), stack.purity
    for i in range(w.size):
        rho = DensityMatrix(stack.w_plus[i], stack.rho12[i])
        assert (predictability(rho), visibility(rho), sum_of_squares(rho), rho.purity) == (p[i], v[i], sum_sq[i], pur[i])


def test_kernel_keeps_the_report_contract():
    # P**2 + V**2 = 1 - 4 w+ w- + 4 rho12**2 exceeds 1 only past the positivity bound, which a state refuses where it
    # is built: rho12 = 0.9 at w_plus = 1/2, alone or in a stack, where P**2 + V**2 would be 3.24
    for rho12 in (0.9, [0.1, 0.9, 0.0]):
        with pytest.raises(ParameterError, match=re.escape(f"rho12 = 0.9 {RHO12_BOUND} = 0.5") + "$"):
            DensityMatrix(0.5, rho12)
    # a NaN, an integer past the double range and a negative coherence fail their input bound rather than leak out,
    # overflow or return a negative V
    for w_plus, rho12, message in (
        (math.nan, 0.1, f"w_plus = nan {W_PLUS_BOUND}"),
        (0.3, 10**400, f"rho12 = inf {RHO12_BOUND}"),
        ([0.3, 10**400], 0.0, f"w_plus = inf {W_PLUS_BOUND}"),
        ([0.5, 0.5], [0.1, -0.3], f"rho12 = -0.3 {RHO12_BOUND}"),
    ):
        with pytest.raises(ParameterError, match=re.escape(message)):
            DensityMatrix(w_plus, rho12)


@pytest.mark.parametrize("w_plus", [1.0 + 2e-12, -2e-12], ids=["above-1", "below-0"])
def test_a_population_just_outside_its_range_raises(w_plus):
    # A state clamps a population within its slack of 1e-12 onto [0, 1], and refuses one just past the slack, alone
    # or in a stack: P and V never read a population outside [0, 1].
    message = re.escape(f"w_plus = {w_plus!r} {W_PLUS_BOUND}") + "$"
    for w in (w_plus, [0.5, w_plus]):
        with pytest.raises(ParameterError, match=message):
            DensityMatrix(w, 0.0)
    inside = math.copysign(5e-13, w_plus) + (w_plus > 0.5)
    assert predictability(DensityMatrix(inside, 0.0)) == 1.0
    assert predictability(DensityMatrix([0.5, inside], 0.0)).tolist() == [0.0, 1.0]
