import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qudual import (
    REFERENCE,
    ContractViolationError,
    DensityMatrix,
    Observable,
    ParameterError,
    complementary_observable,
    pure_state,
)
from qudual.verify import _density_params as density_params

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
    back = DensityMatrix(*(float(x) for x in density_params(rho.matrix)))
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
    [lambda: DensityMatrix(0.7, 0.2, 0.5), lambda: complementary_observable(0.9), lambda: REFERENCE],
    ids=["state", "observable", "reference"],
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
    # the appended states lie inside the positivity slack, each in one direction
    w = np.append(rng.uniform(0.0, 1.0, 200), [1.0 + 5e-13, -5e-13, 0.3, 0.5])
    rho12 = np.append(rng.uniform(0.0, 1.0, 200) * np.sqrt(w[:200] * (1.0 - w[:200])), [0.0, 1e-13, -1e-13, 0.5 + 5e-13])
    theta = np.append(rng.uniform(-10.0, 10.0, 200), [3.0, 8.0, 2.0, 1.0])
    states = DensityMatrix(w, rho12, theta)
    stored = states.w_plus, states.rho12, states.theta
    assert stored[1][-4:].tolist() == [0.0, 0.0, 0.0, 0.5]
    stack = states.matrix
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
        ([0.5, 10**400], [0.1, 0.0], [0.0, 0.0], "w_plus = inf violates the bound 0 <= w_plus <= 1"),
        ([0.5, 0.5], [0.1, 10**400], [0.0, 0.0], r"rho12 = inf violates the positivity bound"),
        ([0.5, 0.5], [0.1, 0.1], [0.0, -(10**400)], "theta = -inf violates the bound"),
        # an array of Python objects is read element by element: a complex one is not real, whatever its neighbours
        ([np.complex128(0.5 + 1j), Fraction(1, 2)], 0.0, 0.0, r"w_plus = np.complex128\(0.5\+1j\) violates the bound"),
    ],
)
def test_stacked_states_raise_the_scalar_errors(w, rho12, theta, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=match):
            DensityMatrix(w, rho12, theta)


def test_stacked_family_members_match_the_scalar_observables():
    varrho = np.linspace(-7.0, 13.0, 101)
    # members carry the outcome values of the reference
    stack = complementary_observable(varrho).matrix
    for i, phase in enumerate(varrho):
        np.testing.assert_array_equal(stack[i], complementary_observable(phase).matrix)
    np.testing.assert_allclose(np.linalg.eigvalsh(stack), np.tile([REFERENCE.val_minus, REFERENCE.val_plus], (varrho.size, 1)))
    with pytest.raises(ParameterError, match="varrho = nan"):
        complementary_observable([0.0, np.nan])
    with pytest.raises(ParameterError, match="varrho = inf"):
        complementary_observable([0.0, 10**400])


def test_density_params_rejects_bad_input():
    with pytest.raises(ContractViolationError, match="Hermitian"):
        density_params(np.array([[0.5, 0.1j], [0.1j, 0.5]]))
    with pytest.raises(ContractViolationError, match="trace"):
        density_params(np.eye(2, dtype=complex))
    for bad in (np.nan, np.inf):
        with pytest.raises(ContractViolationError):
            density_params(np.array([[bad, 0.0], [0.0, 0.5]]))


def test_density_params_read_stacks_as_single_matrices():
    rng = np.random.default_rng(9)
    w = rng.uniform(0.0, 1.0, 100)
    rho12 = rng.uniform(0.0, 1.0, 100) * np.sqrt(w * (1.0 - w))
    stack = DensityMatrix(w, rho12, rng.uniform(-9.0, 9.0, 100)).matrix.copy()
    states = DensityMatrix(*density_params(stack))
    stored = [x.tolist() for x in (states.w_plus, states.rho12, states.theta)]
    for i, m in enumerate(stack):
        rho = DensityMatrix(*(float(x) for x in density_params(m)))
        assert (rho.w_plus, rho.rho12, rho.theta) == tuple(x[i] for x in stored)
    stack[3] *= 1.5
    with pytest.raises(ContractViolationError, match=r"trace = 1.5 differs from 1"):
        density_params(stack)
    stack[3] = [[0.5, 0.1j], [0.1j, 0.5]]
    with pytest.raises(ContractViolationError, match="Hermitian"):
        density_params(stack)


def test_density_params_of_one_matrix_are_floats_with_the_bits_of_their_stack_element():
    rng = np.random.default_rng(27)
    w = np.concatenate([[0.0, 1.0, 0.5, 0.5], rng.uniform(0.0, 1.0, 200)])
    rho12 = np.concatenate([[0.0, 0.0, 0.5, 0.0], rng.uniform(0.0, 1.0, 200) * np.sqrt(w[4:] * (1.0 - w[4:]))])
    theta = np.concatenate([[0.0, 0.0, math.pi, 0.0], rng.uniform(0.0, 2.0 * math.pi, 200)])
    stack = DensityMatrix(w, rho12, theta).matrix.copy()
    stack[-1, 1, 0] += 1e-13  # nearly Hermitian: the lower entry is the one read
    params = density_params(stack)
    for i, m in enumerate(stack):
        alone = density_params(m)
        assert [type(x) for x in alone] == [float, float, float]
        element = np.array([x[i] for x in params])
        assert np.array(alone).view(np.uint64).tolist() == element.view(np.uint64).tolist()
    assert density_params(stack[-1])[1] == abs(stack[-1, 1, 0]) != abs(stack[-1, 0, 1])


def test_reference_matrix():
    obs = REFERENCE
    np.testing.assert_allclose(obs.matrix, np.diag([0.5, -0.5]), atol=1e-15)
    assert obs.val_plus == 0.5 and obs.val_minus == -0.5


def test_observable_rejects_equal_values_and_bad_basis():
    with pytest.raises(ParameterError, match="distinct"):
        Observable(1.0, 1.0)
    # equal values past the finite range name the bound, not the distinctness
    for value, shown in ((math.inf, "inf"), (-math.inf, "-inf"), (10**400, "inf"), (math.nan, "nan")):
        bound = r"-1\.80925e\+75 <= val_plus <= 1\.80925e\+75"  # 2**250
        with pytest.raises(ParameterError, match=f"^val_plus = {shown} violates the bound {bound}$"):
            Observable(value, value)
    with pytest.raises(ContractViolationError, match="unitary"):
        Observable(1.0, -1.0, basis=np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    for bad in (np.nan, np.inf):
        with pytest.raises(ContractViolationError, match="unitary"):
            Observable(0.5, -0.5, np.full((2, 2), bad))
        with pytest.raises(ContractViolationError, match="unitary"):
            Observable(0.5, -0.5, np.array([[1.0, 0.0], [0.0, bad]]))
    stack = np.array([np.eye(2), complementary_observable(0.3).basis])  # unitary matrix by matrix
    message = r"^eigenbasis must be one matrix, not a stack, got shape \(2, 2, 2\)$"
    with pytest.raises(ContractViolationError, match=message):
        Observable(0.5, -0.5, stack)


def test_family_members_are_unbiased_superpositions():
    obs = complementary_observable(0.9)
    vp, vm = obs.vec_plus, obs.vec_minus
    np.testing.assert_allclose(vp, np.array([1.0, np.exp(0.9j)]) / math.sqrt(2.0), atol=1e-15)
    np.testing.assert_allclose(vm, np.array([1.0, -np.exp(0.9j)]) / math.sqrt(2.0), atol=1e-15)
    assert abs(np.vdot(vp, vm)) < 1e-15
    # every member overlaps both reference states with probability 1/2
    for vec in (vp, vm):
        assert abs(vec[0]) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert abs(vec[1]) ** 2 == pytest.approx(0.5, abs=1e-15)


def test_complementary_observable_matrix():
    obs = complementary_observable(0.9)
    target = 0.5 * np.array([[0.0, np.exp(-0.9j)], [np.exp(0.9j), 0.0]])
    np.testing.assert_allclose(obs.matrix, target, atol=1e-15)


@given(varrho=angles)
def test_triplet_commutators_close(varrho):
    # With A = REFERENCE, [A, B(varrho)] = +-i B(varrho +- pi/2): the quarter-turn partners close su(2).
    b_obs = complementary_observable(varrho)
    comm = REFERENCE.matrix @ b_obs.matrix - b_obs.matrix @ REFERENCE.matrix
    for sign in (1, -1):
        partner = complementary_observable(varrho + sign * math.pi / 2.0)
        np.testing.assert_allclose(comm, 1j * sign * partner.matrix, atol=1e-14)
        # both partners carry the reference's outcome values
        assert (partner.val_plus, partner.val_minus) == (REFERENCE.val_plus, REFERENCE.val_minus)
