import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qudual import (
    ComplementaryFamily,
    ContractViolationError,
    DensityMatrix,
    Observable,
    ParameterError,
    beam_splitter,
    complementary_matrices,
    complementary_observable,
    complementary_triplet,
    density_matrix,
    phase_difference_realization,
    phase_shift,
    pure_state,
    symmetric_observable,
    validate_density,
)

w_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)


def test_purity_frozen_value():
    rho = DensityMatrix(0.9, 0.15, math.pi / 3.0)
    assert rho.purity == pytest.approx(0.865, abs=1e-15)
    assert not rho.is_pure()


def test_matrix_layout_and_phase_convention():
    rho = DensityMatrix(0.7, 0.2, 0.5)
    m = rho.matrix
    assert m[0, 0] == pytest.approx(0.7)
    assert m[1, 1] == pytest.approx(0.3)
    # upper off-diagonal carries exp(-i theta)
    assert m[0, 1] == pytest.approx(0.2 * np.exp(-0.5j))
    assert m[1, 0] == pytest.approx(0.2 * np.exp(+0.5j))


def test_positivity_bound_named_in_error():
    with pytest.raises(ParameterError, match=r"sqrt\(w_plus \* w_minus\)"):
        DensityMatrix(0.5, 0.6)
    with pytest.raises(ParameterError, match="w_plus"):
        DensityMatrix(1.0001, 0.0)
    with pytest.raises(ParameterError, match="rho12"):
        DensityMatrix(0.5, -0.1)


def test_theta_canonical_without_coherence():
    assert DensityMatrix(0.3, 0.0, 1.234).theta == 0.0
    assert DensityMatrix(0.3, 0.1, 2.0 * math.pi + 0.5).theta == pytest.approx(0.5, abs=1e-12)


def test_pure_state_vector():
    rho = pure_state(0.9, 0.3)
    vec = rho.state_vector()
    np.testing.assert_allclose(vec, [math.sqrt(0.9), np.exp(0.3j) * math.sqrt(0.1)], atol=1e-15)
    with pytest.raises(ParameterError, match="pure"):
        DensityMatrix(0.9, 0.0).state_vector()


@given(w=w_values, u=fractions, theta=angles)
def test_matrix_round_trip(w, u, theta):
    rho = DensityMatrix(w, u * math.sqrt(w * (1.0 - w)), theta)
    back = DensityMatrix.from_matrix(rho.matrix)
    assert back.w_plus == pytest.approx(rho.w_plus, abs=1e-12)
    assert back.rho12 == pytest.approx(rho.rho12, abs=1e-12)
    if rho.rho12 > 1e-9:
        assert abs(np.exp(1j * back.theta) - np.exp(1j * rho.theta)) < 1e-9


@given(w=w_values, u=fractions, theta=angles)
def test_purity_matches_trace_of_square(w, u, theta):
    rho = DensityMatrix(w, u * math.sqrt(w * (1.0 - w)), theta)
    m = rho.matrix
    assert rho.purity == pytest.approx(float(np.trace(m @ m).real), abs=1e-12)


@pytest.mark.parametrize(
    "make",
    [lambda: DensityMatrix(0.7, 0.2, 0.5), lambda: complementary_observable(ComplementaryFamily(symmetric_observable(), 0.9))],
    ids=["state", "observable"],
)
def test_matrix_is_computed_once_and_read_only(make):
    obj = make()
    m = obj.matrix
    before = m.copy()
    assert obj.matrix is m
    with pytest.raises(ValueError):
        m[0, 1] = 7.0
    with pytest.raises(ValueError):
        m += 1.0
    np.testing.assert_array_equal(obj.matrix, before)


def test_stacked_states_follow_the_scalar_rules():
    rng = np.random.default_rng(5)
    w = np.append(rng.uniform(0.0, 1.0, 200), [1.0 + 5e-13, -5e-13, 0.3])
    rho12 = np.append(rng.uniform(0.0, 1.0, 200) * np.sqrt(w[:200] * (1.0 - w[:200])), [0.0, 1e-13, -1e-13])
    theta = np.append(rng.uniform(-10.0, 10.0, 200), [3.0, 8.0, 2.0])
    stored = validate_density(w, rho12, theta)
    stack = density_matrix(*stored)
    for i in range(w.size):
        rho = DensityMatrix(w[i], rho12[i], theta[i])
        assert (rho.w_plus, rho.rho12, rho.theta) == tuple(float(x[i]) for x in stored)
        np.testing.assert_array_equal(stack[i], rho.matrix)


@pytest.mark.parametrize(
    "w, rho12, theta, match",
    [
        ([0.5, 1.5], [0.1, 0.0], [0.0, 0.0], "w_plus = 1.5 violates the bound 0 <= w_plus <= 1"),
        ([0.5, 0.5], [0.1, 0.6], [0.0, 0.0], r"rho12 = 0.6 violates the positivity bound"),
        ([0.5, 0.5], [0.1, np.nan], [0.0, 0.0], r"rho12 = nan violates the positivity bound"),
        ([0.5, 0.5], [0.1, 0.1], [0.0, np.inf], "theta = inf violates the bound"),
    ],
)
def test_stacked_states_raise_the_scalar_errors(w, rho12, theta, match):
    with pytest.raises(ParameterError, match=match):
        validate_density(w, rho12, theta)


def test_stacked_family_members_match_the_scalar_observables():
    a_obs = symmetric_observable()
    varrho = np.linspace(-7.0, 13.0, 101)
    stack = complementary_matrices(a_obs, varrho)
    for i, phase in enumerate(varrho):
        np.testing.assert_array_equal(stack[i], complementary_observable(ComplementaryFamily(a_obs, phase)).matrix)
    with pytest.raises(ParameterError, match="varrho = nan"):
        complementary_matrices(a_obs, [0.0, np.nan])


def test_from_matrix_rejects_bad_input():
    with pytest.raises(ContractViolationError, match="Hermitian"):
        DensityMatrix.from_matrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]))
    with pytest.raises(ContractViolationError, match="trace"):
        DensityMatrix.from_matrix(np.eye(2, dtype=complex))


def test_symmetric_observable_matrix():
    obs = symmetric_observable()
    np.testing.assert_allclose(obs.matrix, np.diag([0.5, -0.5]), atol=1e-15)
    assert obs.val_plus == 0.5 and obs.val_minus == -0.5


def test_observable_rejects_equal_values_and_bad_basis():
    with pytest.raises(ParameterError, match="distinct"):
        Observable(1.0, 1.0)
    with pytest.raises(ContractViolationError, match="unitary"):
        Observable(1.0, -1.0, basis=np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_family_members_are_unbiased_superpositions():
    fam = ComplementaryFamily(symmetric_observable(), 0.9)
    vp, vm = fam.member_vectors()
    np.testing.assert_allclose(vp, np.array([1.0, np.exp(0.9j)]) / math.sqrt(2.0), atol=1e-15)
    np.testing.assert_allclose(vm, np.array([1.0, -np.exp(0.9j)]) / math.sqrt(2.0), atol=1e-15)
    assert abs(np.vdot(vp, vm)) < 1e-15
    # every member overlaps both reference states with probability 1/2
    for vec in (vp, vm):
        assert abs(vec[0]) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert abs(vec[1]) ** 2 == pytest.approx(0.5, abs=1e-15)


def test_complementary_observable_matrix():
    obs = complementary_observable(ComplementaryFamily(symmetric_observable(), 0.9))
    target = 0.5 * np.array([[0.0, np.exp(-0.9j)], [np.exp(0.9j), 0.0]])
    np.testing.assert_allclose(obs.matrix, target, atol=1e-15)


@given(varrho=angles)
def test_triplet_commutators_close(varrho):
    for handedness in (1, -1):
        a_obs, b_obs, c_obs = complementary_triplet(symmetric_observable(), varrho, handedness)
        comm = a_obs.matrix @ b_obs.matrix - b_obs.matrix @ a_obs.matrix
        np.testing.assert_allclose(comm, 1j * handedness * c_obs.matrix, atol=1e-14)


def test_triplet_rejects_bad_handedness():
    with pytest.raises(ParameterError, match="handedness"):
        complementary_triplet(symmetric_observable(), 0.0, 2)


def test_interferometer_elements():
    np.testing.assert_allclose(phase_shift(0.7), np.diag([1.0, np.exp(0.7j)]), atol=1e-15)
    half = beam_splitter(math.pi / 4.0)
    r = math.sqrt(0.5)
    np.testing.assert_allclose(half, np.array([[r, 1j * r], [1j * r, r]]), atol=1e-15)


def test_phase_difference_realization_frozen_matrix():
    obs = phase_difference_realization(0.0, 0.0)
    assert obs.val_plus == pytest.approx(0.0)
    assert obs.val_minus == pytest.approx(math.pi)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(obs.matrix, math.pi * (np.eye(2) - sigma_x) / 2.0, atol=1e-14)
    # mutually unbiased with the reference basis: every squared overlap is 1/2
    for varrho in (0.0, 1.3, 4.0):
        basis = phase_difference_realization(0.7, varrho).basis
        np.testing.assert_allclose(np.abs(basis) ** 2, 0.5, atol=1e-12)
