import dataclasses
import itertools
import math
import re
import warnings
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qudual import (
    REFERENCE,
    DensityMatrix,
    Observable,
    ParameterError,
    complementary_observable,
    intelligent_state,
    is_residual,
    mean_var,
    normalized_product_bounds,
    predictability,
    pure_state,
    robertson,
    visibility,
)
from qudual.uncertainty import _robertson

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
    stack = dataclasses.astuple(robertson(DensityMatrix(w, rho12, theta), A, b_at(varrho)))
    for i in range(n):
        rep = robertson(DensityMatrix(w[i], rho12[i], theta[i]), A, b_at(varrho[i]))
        # one state runs the stack's expression on Python floats: the same bits
        fields = [rep.var_a, rep.var_b, rep.c_mean, rep.f_mean, rep.slack, rep.mean_a, rep.mean_b]
        assert [value[i] for value in stack] == fields
        # the slack field is the report's own lhs - rhs, bit for bit
        assert rep.lhs - rep.rhs == rep.slack
    # States of shape (25, 1) against members of shape (40,): each field takes the shape of what it reads, and
    # each element the bits of its state and member alone.
    rho, b_obs = DensityMatrix(w[:25, None], rho12[:25, None], theta[:25, None]), b_at(varrho[:40])
    stack = dataclasses.astuple(robertson(rho, A, b_obs))
    assert [np.shape(value) for value in stack] == [(25, 1)] + [(25, 40)] * 4 + [(25, 1), (25, 40)]
    moments = mean_var(rho, b_obs)
    for i, j in itertools.product(range(25), range(0, 40, 3)):
        state, member = DensityMatrix(w[i], rho12[i], theta[i]), b_at(varrho[j])
        fields = list(dataclasses.astuple(robertson(state, A, member)))
        assert [np.broadcast_to(value, (25, 40))[i, j] for value in stack] == fields
        assert (moments[0][i, j], moments[1][i, j]) == mean_var(state, member)


def _product(x, y):
    """The 2x2 matrix product of nested lists, entry by entry."""
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]


def _loop_reference(rho, a_obs, b_obs):
    """The explicit route for one state as plain Python complex arithmetic on the matrix entries: the reference.

    No NumPy product: the matrices, products and traces of the textbook
    formula, entry by entry, in Python's complex numbers.
    """
    r, a_m, b_m = rho.matrix.tolist(), a_obs.matrix.tolist(), b_obs.matrix.tolist()

    def real_trace(op):
        m = _product(r, op)
        return (m[0][0] + m[1][1]).real

    ab, ba = _product(a_m, b_m), _product(b_m, a_m)
    mean_a, mean_b = real_trace(a_m), real_trace(b_m)
    var_a = max(real_trace(_product(a_m, a_m)) - mean_a * mean_a, 0.0)
    var_b = max(real_trace(_product(b_m, b_m)) - mean_b * mean_b, 0.0)
    c_mean = real_trace([[-1j * (ab[i][j] - ba[i][j]) for j in range(2)] for i in range(2)])
    f_mean = real_trace([[ab[i][j] + ba[i][j] for j in range(2)] for i in range(2)]) - 2.0 * mean_a * mean_b
    return var_a, var_b, c_mean, f_mean, var_a * var_b - 0.25 * (c_mean * c_mean + f_mean * f_mean)


def test_scalar_route_keeps_the_loop_arithmetic():
    rng = np.random.default_rng(7)
    for _ in range(1500):
        w = rng.uniform()
        rho = DensityMatrix(w, rng.uniform() * math.sqrt(w * (1.0 - w)), rng.uniform(0.0, 7.0))
        # a random member, and the proper one, whose mean is largest
        for b_obs in (b_at(rng.uniform(0.0, 7.0)), b_at(rho.theta)):
            rep = robertson(rho, A, b_obs)
            # The kernel's traces are compensated dot products, the loop's are
            # not: each route rounds a few values of magnitude at most 1/2, so
            # they agree within 4 ulps of 1/4, the scale of every field.
            for x, y in zip((rep.var_a, rep.var_b, rep.c_mean, rep.f_mean, rep.slack), _loop_reference(rho, A, b_obs)):
                assert abs(x - y) <= 4.0 * math.ulp(0.25)


def test_robertson_variances_are_the_mean_var_variances():
    # Both read the one moments routine, so the report's lhs is var_A * var_B of the same bits, and its means and
    # variances are mean_var's, which compute prints from the report.
    rng = np.random.default_rng(20261018)
    for w, theta in zip(rng.uniform(0.0, 1.0, 20000), rng.uniform(0.0, 2.0 * math.pi, 20000)):
        rho = pure_state(w, theta)
        b_obs = b_at(rho.theta)
        rep = robertson(rho, A, b_obs)
        assert (rep.mean_a, rep.var_a, rep.mean_b, rep.var_b) == (*mean_var(rho, A), *mean_var(rho, b_obs))


def test_checked_inputs_never_raise_at_large_outcome_values():
    """Rounding noise in a variance, and in lhs - rhs, grows with the squared outcome values; it raises nothing."""
    rng = np.random.default_rng(20261020)
    for w, theta, varrho in rng.uniform(0.0, [1.0, 2.0 * math.pi, 2.0 * math.pi], (2000, 3)).tolist():
        basis = b_at(varrho).basis
        rep = robertson(pure_state(w, theta), Observable(10.0, -10.0), Observable(10.0, -10.0, basis))
        mean, var = mean_var(pure_state(0.5, varrho), Observable(1e3, -300.0, basis))  # an eigenstate: var = 0
        assert all(math.isfinite(x) for x in (*dataclasses.astuple(rep), mean, var))


def test_kernel_keeps_the_report_contract():
    # A unit-trace Hermitian matrix with a negative eigenvalue is no state: a state refuses it where it is built, alone
    # or in a stack, and on its parts the kernel shows why, a negative slack, which the robertson suite checks for.
    with pytest.raises(ParameterError, match="rho12 = 0.9 violates the positivity bound"):
        DensityMatrix(0.5, 0.9)
    with pytest.raises(ParameterError, match="rho12 = 0.9 violates the positivity bound"):
        DensityMatrix([0.3, 0.5, 0.5], [0.0, 0.9, 0.9])
    slack = _robertson((0.5, 0.5, 0.9, 0.0), A._parts, b_at(math.pi / 2.0)._parts)[4]
    assert repr(slack).startswith("-0.1399")


def _bits(fields) -> list[int]:
    return np.asarray(fields, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("near", [False, True], ids=["opposite", "near-equal"])
@pytest.mark.parametrize("gauge", [1e3, 1e6, 2.0**100], ids=["1e3", "1e6", "2**100"])
def test_kernel_accepts_valid_matrices_at_large_outcome_values(gauge, near):
    # The rounding noise of lhs - rhs grows as the squared outcome magnitudes, which robertson reports as it is.
    # Near-equal outcome values make lhs + rhs tiny and leave that noise as it is.
    second = gauge * (1.0 - 1e-9) if near else -gauge
    a_obs, b_obs = Observable(gauge, second), Observable(gauge, -gauge, b_at(0.7).basis)
    rng = np.random.default_rng(20261019)
    w, theta = np.concatenate([[[0.3, 0.4]], rng.uniform(0.0, [1.0, 2.0 * math.pi], (200, 2))]).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = dataclasses.astuple(robertson(DensityMatrix(w, np.sqrt(w * (1.0 - w)), theta), a_obs, b_obs))
    assert all(np.isfinite(field).all() for field in stack)
    for i in range(w.size):
        alone = robertson(pure_state(w[i], theta[i]), a_obs, b_obs)
        assert _bits([field[i] for field in stack]) == _bits(dataclasses.astuple(alone))


# The largest entry part of each value the kernel reads, with room: a state's parts are at most 1, an observable's
# 2 * 2**250.
_ROBERTSON_BOUNDS = {"rho_m": 2.0, "a_m": 2.0**251, "b_m": 2.0**251}

# The kernel reads values checked where they were built. Each case plants a bad parameter in the value of one
# argument, alone or in a stack: NaN, an infinity, a complex number (a non-real entry, so a non-Hermitian matrix)
# and a value past the builder's bound. A stacked observable is a stack of family members, whose phase is checked.
_BAD_PARAMETERS = {"nan": math.nan, "inf": math.inf, "non-hermitian": 0.5 + 0.5j}
_PAST_OUTCOME = math.nextafter(2.0**250, math.inf)
_MEMBERS = (lambda x: complementary_observable([0.7, x]), "varrho", 10**400)
_BUILDERS = {
    "rho_m": ((lambda x: DensityMatrix(x, 0.0), "w_plus", 1.5), (lambda x: DensityMatrix([0.3, x], 0), "w_plus", 1.5)),
    "a_m": ((lambda x: Observable(x, -0.5), "val_plus", _PAST_OUTCOME), _MEMBERS),
    "b_m": ((lambda x: Observable(0.5, x, b_at(0.7).basis), "val_minus", _PAST_OUTCOME), _MEMBERS),
}


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
@pytest.mark.parametrize("arg", list(_ROBERTSON_BOUNDS))
@pytest.mark.parametrize("case", ["nan", "inf", "non-hermitian", "past-bound"])
def test_kernel_checks_each_matrix_it_takes(arg, case, stacked):
    """Every value robertson takes refuses, where it is built, what a raw matrix could carry, and warns of nothing."""
    build, name, past = _BUILDERS[arg][stacked]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f"^{name} = "):
            build(past if case == "past-bound" else _BAD_PARAMETERS[case])


def test_kernel_fields_stay_finite_at_the_entry_bounds():
    # every sign of every entry part of the three matrices at their bounds, in one stack through the kernel
    signs = list(itertools.product((-1.0, 1.0), repeat=4))
    rows = list(itertools.product(signs, repeat=3))
    rho, a, b = (
        tuple(np.array([row[k][j] for row in rows]) * bound for j in range(4))
        for k, bound in enumerate(_ROBERTSON_BOUNDS.values())
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fields = _robertson(rho, a, b)
    assert all(np.isfinite(field).all() for field in fields)


def test_outcome_values_at_their_bound_keep_every_moment_finite():
    bound = 2.0**250
    rho = DensityMatrix(0.3, 0.2, 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_obs, b_obs = Observable(bound, -bound), Observable(-bound, bound, b_at(0.4).basis)
        values = [*mean_var(rho, a_obs), *mean_var(rho, b_obs)]
        for first, second in ((a_obs, a_obs), (a_obs, b_obs), (b_obs, b_obs)):
            rep = robertson(rho, first, second)
            values += [*dataclasses.astuple(rep), rep.lhs, rep.rhs]
    assert all(math.isfinite(v) for v in values)
    past = math.nextafter(bound, math.inf)
    for outcomes, name in (((past, 0.0), "val_plus"), ((0.0, -past), "val_minus")):
        with pytest.raises(ParameterError, match=re.escape(f"violates the bound -{bound:g} <= {name} <= {bound:g}")):
            Observable(*outcomes)


def test_product_bounds_frozen_values():
    assert normalized_product_bounds(0.9) == pytest.approx((0.0144, 0.0225), abs=1e-15)
    assert normalized_product_bounds(0.5) == pytest.approx((0.0, 0.0625), abs=1e-15)
    assert normalized_product_bounds(1.0) == pytest.approx((0.0, 0.0), abs=1e-15)


def floor_ulps(w: float, floor: float) -> float:
    """The error of ``floor`` in ulps of the exact floor ``(1 - 2 w)**2 w (1 - w) / 4`` of the double ``w``."""
    exact = (1 - 2 * Fraction(w)) ** 2 * Fraction(w) * (1 - Fraction(w)) / 4
    return float(abs(Fraction(floor) - exact) / Fraction(math.ulp(float(exact))))


def test_product_floor_is_within_an_ulp_near_half_and_everywhere():
    # k (1 - 4 k) / 4 gave a floor of 0 at 1/2 + 2**-30, where it is 2.2e-19, and the plain product of the rounded
    # factors (1 - 2 w)**2 and w (1 - w) was up to 3.6 ulps off near w = 0.18.
    rng = np.random.default_rng(22)
    near_half = [0.5 + k * math.ulp(0.5) for k in range(-64, 65)] + [0.5 + 2.0**-30, 0.499999999]
    grid = near_half + [0.0, 1.0, 5e-324, 1e-300] + rng.random(3000).tolist() + (0.25 * rng.random(3000)).tolist()
    floors, _ = normalized_product_bounds(np.array(grid))
    assert floors.tolist() == [normalized_product_bounds(w)[0] for w in grid]
    assert max(floor_ulps(w, floor) for w, floor in zip(grid, floors.tolist())) <= 1.0
    assert normalized_product_bounds(0.499999999)[0] == pytest.approx(2.5e-19, rel=1e-6)


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
    for branch in (0, 2, "1"):
        with pytest.raises(ParameterError, match=f"^branch must be \\+1 or -1, got {branch!r}$"):
            intelligent_state("IS1", 0.5, 0.0, branch)


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
    """The eigen-equation defect's norm for one state in plain Python complex arithmetic: the reference.

    ``K = (A - <A>) + i lam (B - <B>)`` entry by entry, the defect ``K psi``
    and the square root of its squared real and imaginary parts.
    """
    a_m, b_m, psi = a_obs.matrix.tolist(), b_obs.matrix.tolist(), rho.state_vector().tolist()
    shift = mean_var(rho, a_obs)[0], mean_var(rho, b_obs)[0]
    k = [[a_m[i][j] + 1j * lam * b_m[i][j] for j in range(2)] for i in range(2)]
    for i in range(2):
        k[i][i] = (a_m[i][i] - shift[0]) + 1j * lam * (b_m[i][i] - shift[1])
    d0, d1 = (k[i][0] * psi[0] + k[i][1] * psi[1] for i in range(2))
    return math.sqrt((d0.real * d0.real + d1.real * d1.real) + (d0.imag * d0.imag + d1.imag * d1.imag))


def test_residual_keeps_the_loop_arithmetic():
    # is_residual on each state, and the stacked pass of the intelligent-states suite, bit for bit
    rng = np.random.default_rng(11)
    cases = []
    for i in range(600):
        w = [0.0, 0.5, 1.0][i % 3] if i % 7 == 0 else rng.uniform()
        lam = complex(*(rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0, size=2)))
        cases.append((pure_state(w, rng.uniform(0.0, 7.0)), lam, rng.uniform(0.0, 7.0)))
    for family, grid in (("IS1", np.linspace(0.0, 1.0, 21)), ("IS2a", np.linspace(0.0, math.pi / 2.0, 21))):
        for param in grid:
            st_obj = intelligent_state(family, float(param), 0.9)
            if math.isfinite(abs(st_obj.lam)):
                cases += [(st_obj.state, st_obj.lam, 0.9), (st_obj.state, st_obj.lam + 1e-9, 0.9)]
    want = [_residual_reference(rho, lam, A, b_at(varrho)) for rho, lam, varrho in cases]
    assert [is_residual(rho, lam, A, b_at(varrho)) for rho, lam, varrho in cases] == want
    rhos, lams, phases = zip(*cases)
    w, rho12, theta = (np.array(axis) for axis in zip(*((rho.w_plus, rho.rho12, rho.theta) for rho in rhos)))
    stacked = is_residual(DensityMatrix(w, rho12, theta), np.array(lams), A, b_at(np.array(phases)))
    assert stacked.tolist() == want


def test_residual_rejects_bad_inputs():
    with pytest.raises(ParameterError, match="finite"):
        is_residual(pure_state(0.5), complex(0.0, math.inf), A, b_at(0.0))
    with pytest.raises(ParameterError, match="pure"):
        is_residual(DensityMatrix(0.5, 0.0), 1.0, A, b_at(0.0))


def test_residual_of_a_finite_lam_is_finite_or_names_the_bound():
    # the defect at lam = 1e155 is about 1e154, and its squares overflow: past the bound lam raises
    message = re.escape("|lam| = 1e+155 violates the bound |lam| <= 1.8092513943330656e+75")
    with pytest.raises(ParameterError, match=message):
        is_residual(pure_state(0.3, 0.5), 1e155 + 0j, A, b_at(0.5))
    # within it the norm is finite, even for the largest outcome values an Observable takes
    bound = 2.0**250
    pairs = [(A, b_at(0.5)), (Observable(bound, -bound), Observable(-bound, bound, b_at(0.4).basis))]
    for lam in (complex(bound, 0.0), complex(0.0, -bound), complex(-0.5 * bound, 0.5 * bound)):
        for a_obs, b_obs in pairs:
            for rho in (pure_state(0.3, 0.5), pure_state(1.0), pure_state(0.5, 2.0)):
                assert math.isfinite(is_residual(rho, lam, a_obs, b_obs)), (lam, rho)


def _decimal_product(x, y):
    """The product of 2x2 matrices of ``(re, im)`` Decimal pairs."""

    def times(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    return [
        [tuple(s + t for s, t in zip(times(x[i][0], y[0][j]), times(x[i][1], y[1][j]))) for j in range(2)]
        for i in range(2)
    ]


def _exact_fields(rho_m, a_m, b_m):
    """Every output of the Robertson route from the float entries, in 50-digit decimal matrix algebra.

    Returns ``{var_a, var_b, c_mean, f_mean, slack, mean_a, mean_b}``; each is
    exact to about 1e-48 relative to the entries, which only ``+ - *`` touch.
    """
    r, a, b = ([[(Decimal(z.real), Decimal(z.imag)) for z in row] for row in m.tolist()] for m in (rho_m, a_m, b_m))

    def trace(op):
        m = _decimal_product(r, op)
        return m[0][0][0] + m[1][1][0]

    ab, ba = _decimal_product(a, b), _decimal_product(b, a)
    mean_a, mean_b = trace(a), trace(b)
    var_a = max(trace(_decimal_product(a, a)) - mean_a * mean_a, Decimal(0))
    var_b = max(trace(_decimal_product(b, b)) - mean_b * mean_b, Decimal(0))
    c_mean = trace([[(ab[i][j][1] - ba[i][j][1], ba[i][j][0] - ab[i][j][0]) for j in range(2)] for i in range(2)])
    f_mean = trace([[(ab[i][j][0] + ba[i][j][0], ab[i][j][1] + ba[i][j][1]) for j in range(2)] for i in range(2)])
    f_mean -= 2 * mean_a * mean_b
    slack = var_a * var_b - (c_mean * c_mean + f_mean * f_mean) / 4
    return dict(var_a=var_a, var_b=var_b, c_mean=c_mean, f_mean=f_mean, slack=slack, mean_a=mean_a, mean_b=mean_b)


def _ulps(x: float, exact: Decimal) -> float:
    """``|x - exact|`` in ulps of the exact value, counted no finer than the ulp of 1/16, the largest slack."""
    return float(abs(Decimal(x) - exact)) / math.ulp(max(float(abs(exact)), 0.0625))


# Worst error in ulps of each output over the grid of the accuracy test below,
# as measured and rounded up to a hundredth: a change that loses accuracy on
# one of them fails. With plain sums in place of the compensated trace, mean,
# c_mean, f_mean and slack measure 1.41, 1.28, 1.85 and 1.88.
ACCURACY_ULPS = {
    "var_a": 0.98,
    "var_b": 3.27,
    "c_mean": 0.5,
    "f_mean": 0.99,
    "slack": 0.94,
    "mean_var mean": 0.5,
    "mean_var var": 3.27,
}


def test_robertson_and_mean_var_are_accurate_to_pinned_ulps():
    """Every field of robertson on a stack, and mean_var, within its pinned ulps of a 50-digit reference.

    200 random states, alternately mixed and pure, with random members, then
    the edges: w_plus in {0, 1/2 - ulp, 1/2, 1/2 + ulp, 1} at zero, full and
    tiny coherence, and coherences down to the smallest subnormal, each with
    the proper member, the erasure member and one more.
    """
    rng = np.random.default_rng(20261019)
    n = 200
    w = rng.uniform(0.0, 1.0, n)
    rho12 = np.sqrt(w * (1.0 - w)) * np.where(np.arange(n) % 2, 1.0, rng.uniform(0.0, 0.99, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    varrho = rng.uniform(0.0, 2.0 * math.pi, n)
    half_ulp = (math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0))
    edges = [(x, f * math.sqrt(x * (1.0 - x))) for x in (0.0, *half_ulp, 1.0) for f in (0.0, 1e-12, 1.0)]
    edges += [(0.3, r) for r in (5e-324, 1e-300, 1e-150, 1e-20)]
    for x, r in edges:
        for phase in (0.3, 0.3 + math.pi / 2.0, 2.0):
            w, rho12 = np.append(w, x), np.append(rho12, r)
            theta, varrho = np.append(theta, 0.3), np.append(varrho, phase)
    states, members = DensityMatrix(w, rho12, theta), b_at(varrho)
    rho_m, b_m = states.matrix, members.matrix
    fields = dataclasses.astuple(robertson(states, A, members))
    stack = dict(zip(("var_a", "var_b", "c_mean", "f_mean", "slack"), fields))
    worst = dict.fromkeys(ACCURACY_ULPS, 0.0)
    with localcontext(Context(prec=50)):
        for i in range(w.size):
            exact = _exact_fields(rho_m[i], A.matrix, b_m[i])
            for name, values in stack.items():
                worst[name] = max(worst[name], _ulps(float(values[i]), exact[name]))
            rho = DensityMatrix(w[i], rho12[i], theta[i])
            for obs, key in ((A, "a"), (b_at(varrho[i]), "b")):
                exact = _exact_fields(rho.matrix, A.matrix, obs.matrix)
                mean, var = mean_var(rho, obs)
                worst["mean_var mean"] = max(worst["mean_var mean"], _ulps(mean, exact[f"mean_{key}"]))
                worst["mean_var var"] = max(worst["mean_var var"], _ulps(var, exact[f"var_{key}"]))
    assert all(worst[name] <= bound for name, bound in ACCURACY_ULPS.items()), worst
