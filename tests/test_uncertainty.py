import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qudual import (
    REFERENCE,
    ContractViolationError,
    DensityMatrix,
    ParameterError,
    complementary_matrices,
    complementary_observable,
    density_matrix,
    intelligent_state,
    is_residual,
    mean_var,
    normalized_product_bounds,
    predictability,
    pure_state,
    robertson,
    robertson_arrays,
    visibility,
)
from qudual.states import _pure_amplitudes
from qudual.uncertainty import _eigen_residuals

w_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)

A = REFERENCE


def b_at(varrho):
    return complementary_observable(varrho)


def test_moments_frozen_values():
    rho = DensityMatrix(0.75, 0.2, 0.9)
    assert mean_var(rho, A) == pytest.approx((0.25, 0.1875), abs=1e-15)
    # proper member of the pure 0.9 state: variance (1 - V^2)/4 = 0.16
    rho = pure_state(0.9, 0.3)
    mean_b, var_b = mean_var(rho, b_at(0.3))
    assert mean_b == pytest.approx(0.3, abs=1e-15)
    assert var_b == pytest.approx(0.16, abs=1e-15)


@given(w=w_values, u=fractions, theta=angles, varrho=angles)
def test_moment_closed_forms(w, u, theta, varrho):
    rho = DensityMatrix(w, u * math.sqrt(w * (1.0 - w)), theta)
    mean_a, var_a = mean_var(rho, A)
    assert mean_a == pytest.approx(0.5 * (2.0 * rho.w_plus - 1.0), abs=1e-12)
    assert var_a == pytest.approx(rho.w_plus * rho.w_minus, abs=1e-12)
    mean_b, var_b = mean_var(rho, b_at(varrho))
    delta = rho.theta - varrho
    assert mean_b == pytest.approx(rho.rho12 * math.cos(delta), abs=1e-12)
    assert var_b == pytest.approx((1.0 - 4.0 * rho.rho12**2 * math.cos(delta) ** 2) / 4.0, abs=1e-12)


def test_bound_on_special_states():
    # eigenstate: both sides vanish
    rep = robertson(DensityMatrix(1.0, 0.0), A, b_at(0.0))
    assert rep.lhs == pytest.approx(0.0, abs=1e-15)
    assert rep.rhs == pytest.approx(0.0, abs=1e-15)
    # maximally mixed state: maximal slack 1/16
    rep = robertson(DensityMatrix(0.5, 0.0), A, b_at(0.0))
    assert rep.lhs == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert rep.rhs == pytest.approx(0.0, abs=1e-15)
    assert rep.slack == pytest.approx(1.0 / 16.0, abs=1e-15)


@given(w=w_values, u=fractions, theta=angles, varrho=angles)
def test_bound_holds_with_closed_form_slack(w, u, theta, varrho):
    rho = DensityMatrix(w, u * math.sqrt(w * (1.0 - w)), theta)
    rep = robertson(rho, A, b_at(varrho))
    assert rep.slack >= -1e-12
    deficit = rho.w_plus * rho.w_minus - rho.rho12**2
    assert rep.slack == pytest.approx(deficit / 4.0, abs=1e-12)


@given(w=w_values, theta=angles, varrho=angles)
def test_every_pure_state_saturates_the_bound(w, theta, varrho):
    rep = robertson(pure_state(w, theta), A, b_at(varrho))
    assert abs(rep.slack) <= 1e-10


def test_kernel_on_a_stack_matches_the_scalar_route():
    rng = np.random.default_rng(20261018)
    n = 1000
    w = rng.uniform(0.0, 1.0, n)
    # even rows mixed, odd rows pure
    rho12 = np.sqrt(w * (1.0 - w)) * np.where(np.arange(n) % 2, 1.0, rng.uniform(0.0, 0.99, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    varrho = rng.uniform(0.0, 2.0 * math.pi, n)
    stack = robertson_arrays(density_matrix(w, rho12, theta), A.matrix, complementary_matrices(varrho))
    for i in range(n):
        rep = robertson(DensityMatrix(w[i], rho12[i], theta[i]), A, b_at(varrho[i]))
        for value, x in zip(stack, (rep.var_a, rep.var_b, rep.c_mean, rep.f_mean, rep.slack)):
            assert abs(value[i] - x) <= 1e-15 * max(1.0, abs(x))
        # the slack field is the report's own lhs - rhs, bit for bit
        assert rep.lhs - rep.rhs == rep.slack


def _loop_reference(rho, a_obs, b_obs):
    """The explicit route for one state as a plain loop in Python floats: the reference arithmetic."""

    def real_trace(op):
        return float(np.trace(rho.matrix @ op).real)

    a_m, b_m = a_obs.matrix, b_obs.matrix
    mean_a, mean_b = real_trace(a_m), real_trace(b_m)
    var_a = max(real_trace(a_m @ a_m) - mean_a**2, 0.0)
    var_b = max(real_trace(b_m @ b_m) - mean_b**2, 0.0)
    c_mean = real_trace(-1j * (a_m @ b_m - b_m @ a_m))
    f_mean = real_trace(a_m @ b_m + b_m @ a_m) - 2.0 * mean_a * mean_b
    return var_a, var_b, c_mean, f_mean, var_a * var_b - 0.25 * (c_mean**2 + f_mean**2)


def test_scalar_route_keeps_the_loop_arithmetic():
    rng = np.random.default_rng(7)
    for _ in range(1500):
        w = rng.uniform()
        rho = DensityMatrix(w, rng.uniform() * math.sqrt(w * (1.0 - w)), rng.uniform(0.0, 7.0))
        # a random member, and the proper one, whose mean is largest
        for b_obs in (b_at(rng.uniform(0.0, 7.0)), b_at(rho.theta)):
            rep = robertson(rho, A, b_obs)
            assert (rep.var_a, rep.var_b, rep.c_mean, rep.f_mean, rep.slack) == _loop_reference(rho, A, b_obs)


def test_robertson_variances_are_the_mean_var_variances():
    # Both read the one moments routine, so the report's lhs is var_A * var_B of the same bits.
    rng = np.random.default_rng(20261018)
    for w, theta in zip(rng.uniform(0.0, 1.0, 20000), rng.uniform(0.0, 2.0 * math.pi, 20000)):
        rho = pure_state(w, theta)
        b_obs = b_at(rho.theta)
        rep = robertson(rho, A, b_obs)
        assert (rep.var_a, rep.var_b) == (mean_var(rho, A)[1], mean_var(rho, b_obs)[1])


def test_kernel_keeps_the_report_contract():
    # A unit-trace Hermitian matrix with a negative eigenvalue is no state.
    bad = np.array([[0.5, 0.9], [0.9, 0.5]], dtype=complex)
    b_m = b_at(math.pi / 2.0).matrix
    with pytest.raises(ContractViolationError) as single:
        robertson_arrays(bad, A.matrix, b_m)
    stack = np.stack([pure_state(0.3).matrix, bad, bad])
    with pytest.raises(ContractViolationError) as stacked:
        robertson_arrays(stack, A.matrix, b_m)
    assert str(stacked.value) == str(single.value)
    assert str(single.value).startswith("uncertainty bound violated: lhs - rhs = -0.1399")


def test_product_bounds_frozen_values():
    assert normalized_product_bounds(0.9) == pytest.approx((0.0144, 0.0225), abs=1e-15)
    assert normalized_product_bounds(0.5) == pytest.approx((0.0, 0.0625), abs=1e-15)
    assert normalized_product_bounds(1.0) == pytest.approx((0.0, 0.0), abs=1e-15)


@given(w=w_values)
def test_product_bounds_from_the_pure_state_duality_quantities(w):
    rho = pure_state(w)
    p, v = predictability(rho), visibility(rho)
    lo, hi = normalized_product_bounds(w)
    assert lo == pytest.approx(p * p * v * v / 16.0, abs=1e-12)
    assert hi == pytest.approx(w * (1.0 - w) / 4.0, abs=1e-12)


def test_intelligent_state_frozen_stretches():
    st1 = intelligent_state("IS1", 0.9, 0.4)
    assert st1.lam == pytest.approx(-0.75j, abs=1e-12)
    assert intelligent_state("IS1", 0.9, 0.4, branch=-1).lam == pytest.approx(0.75j, abs=1e-12)
    st2a = intelligent_state("IS2a", math.pi / 6.0, 0.4)
    assert st2a.lam == pytest.approx(2.0, abs=1e-12)
    st2b = intelligent_state("IS2b", 0.3, 0.4)
    assert st2b.lam == pytest.approx(2.0 * math.sqrt(0.21), abs=1e-12)


def test_intelligent_state_singular_points():
    assert math.isinf(abs(intelligent_state("IS1", 0.5, 0.0).lam))
    assert math.isinf(abs(intelligent_state("IS2a", 0.0, 0.0).lam))
    # the smallest offset, where sin(beta) is subnormal, stretches to infinity too
    assert intelligent_state("IS2a", 5e-324, 0.0).lam == complex(math.inf, 0.0)
    with pytest.raises(ParameterError, match="family"):
        intelligent_state("IS9", 0.5, 0.0)


def _assert_intelligent(st_obj, varrho):
    b_obs = b_at(varrho)
    res = is_residual(st_obj.state, st_obj.lam, A, b_obs)
    assert res <= 1e-10
    _, var_a = mean_var(st_obj.state, A)
    _, var_b = mean_var(st_obj.state, b_obs)
    lam_sq = abs(st_obj.lam) ** 2
    assert abs(lam_sq * var_b - var_a) <= 1e-10 * max(1.0, lam_sq)
    rep = robertson(st_obj.state, A, b_obs)
    assert abs(rep.slack) <= 1e-10


@given(w=w_values, varrho=angles, branch=st.sampled_from([1, -1]))
def test_population_family_is_intelligent(w, varrho, branch):
    # the stretch diverges at w = 1/2 and amplifies float noise nearby
    assume(abs(w - 0.5) > 1e-4)
    _assert_intelligent(intelligent_state("IS1", w, varrho, branch), varrho)


@given(beta=st.floats(min_value=1e-3, max_value=math.pi / 2.0), varrho=angles, branch=st.sampled_from([1, -1]))
def test_balanced_family_is_intelligent(beta, varrho, branch):
    _assert_intelligent(intelligent_state("IS2a", beta, varrho, branch), varrho)


@given(w=w_values, varrho=angles, branch=st.sampled_from([1, -1]))
def test_quarter_phase_family_is_intelligent(w, varrho, branch):
    _assert_intelligent(intelligent_state("IS2b", w, varrho, branch), varrho)


def test_families_pin_the_product_extremes():
    for w in np.linspace(0.0, 1.0, 11):
        lo, hi = normalized_product_bounds(float(w))
        st1 = intelligent_state("IS1", float(w), 0.7)
        _, va = mean_var(st1.state, A)
        _, vb = mean_var(st1.state, b_at(0.7))
        assert va * vb == pytest.approx(lo, abs=1e-12)
        st2 = intelligent_state("IS2b", float(w), 0.7)
        _, va = mean_var(st2.state, A)
        _, vb = mean_var(st2.state, b_at(0.7))
        assert va * vb == pytest.approx(hi, abs=1e-12)


def _residual_reference(rho, lam, a_obs, b_obs):
    """The eigen-equation defect's norm for one state as a plain computation: the reference arithmetic."""
    psi = np.array([math.sqrt(rho.w_plus), np.exp(1j * rho.theta) * math.sqrt(rho.w_minus)])
    mean_a, mean_b = mean_var(rho, a_obs)[0], mean_var(rho, b_obs)[0]
    defect = (a_obs.matrix + 1j * lam * b_obs.matrix) @ psi - (mean_a + 1j * lam * mean_b) * psi
    return float(np.linalg.norm(defect))


def test_residual_keeps_the_loop_arithmetic():
    # is_residual on each state, and the stacked pass of the intelligent-states suite, bit for bit
    rng = np.random.default_rng(11)
    cases = []
    for i in range(600):
        w = [0.0, 0.5, 1.0][i % 3] if i % 7 == 0 else rng.uniform()
        lam = complex(*(rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0, size=2)))
        cases.append((pure_state(w, rng.uniform(0.0, 7.0)), lam, b_at(rng.uniform(0.0, 7.0))))
    for family, grid in (("IS1", np.linspace(0.0, 1.0, 21)), ("IS2a", np.linspace(0.0, math.pi / 2.0, 21))):
        for param in grid:
            st_obj = intelligent_state(family, float(param), 0.9)
            if math.isfinite(abs(st_obj.lam)):
                cases += [(st_obj.state, st_obj.lam, b_at(0.9)), (st_obj.state, st_obj.lam + 1e-9, b_at(0.9))]
    want = [_residual_reference(rho, lam, A, b_obs) for rho, lam, b_obs in cases]
    assert [is_residual(rho, lam, A, b_obs) for rho, lam, b_obs in cases] == want
    rhos, lams, members = zip(*cases)
    stacked = _eigen_residuals(
        np.stack([rho.matrix for rho in rhos]),
        _pure_amplitudes(np.array([rho.w_plus for rho in rhos]), np.array([rho.theta for rho in rhos])),
        np.array(lams),
        A.matrix,
        np.stack([b_obs.matrix for b_obs in members]),
    )
    assert stacked.tolist() == want


def test_residual_rejects_bad_inputs():
    with pytest.raises(ParameterError, match="finite"):
        is_residual(pure_state(0.5), complex(0.0, math.inf), A, b_at(0.0))
    with pytest.raises(ParameterError, match="pure"):
        is_residual(DensityMatrix(0.5, 0.0), 1.0, A, b_at(0.0))
