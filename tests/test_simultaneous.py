import math
import re
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qudual import (
    DensityMatrix,
    EntangledState,
    Observable,
    ParameterError,
    SingularConfigurationError,
    complementary_observable,
    density_params,
    distinguishability,
    entangled_arrays,
    entangled_visibility,
    estimate_a,
    estimate_b,
    mean_var,
    meter_projectors,
    optimal_entanglement,
    pure_state,
    simultaneous_product,
)
from qudual.verify import ROUTE_AGREEMENT_TOL, minimum_product_routes, projected_readout_moments

w_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
overlaps = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
interior = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)

C_OPT_09 = math.sqrt(3.0 / 7.0)


def test_entangled_amplitudes():
    psi = EntangledState(0.9, 0.3, 0.6)
    phase = np.exp(0.3j)
    # psi[system, meter]
    target = np.array(
        [[math.sqrt(0.9), 0.0], [phase * math.sqrt(0.1) * 0.6, phase * math.sqrt(0.1) * 0.8]]
    )
    np.testing.assert_allclose(psi.amplitudes, target, atol=1e-15)
    assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0, abs=1e-14)
    assert not psi.amplitudes.flags.writeable


def test_entangle_rejects_bad_parameters():
    with pytest.raises(ParameterError, match=r"c = 1\.2 violates"):
        EntangledState(0.5, 0.0, 1.2)
    with pytest.raises(ParameterError, match=r"w_plus = -0\.1 violates"):
        EntangledState(-0.1, 0.0, 0.5)


def test_entangled_state_checks_its_parameters_and_computes_its_amplitudes():
    # a state is checked where it is built; its amplitudes are computed, never passed in
    with pytest.raises(ParameterError, match=r"w_plus = nan violates"):
        EntangledState(math.nan, 0.0, 0.5)
    with pytest.raises(TypeError):
        EntangledState(0.5, 0.0, 0.5, np.eye(2))
    assert EntangledState(0.9, -1.0, 0.6).theta == -1.0 % (2.0 * math.pi)
    psi = EntangledState(0.9, 0.3, 0.6)
    minus = np.exp(0.3j) * math.sqrt(0.1)  # the system state's second amplitude, split over m+ and m_perp
    np.testing.assert_allclose(psi.amplitudes, [[math.sqrt(0.9), 0.0], [0.6 * minus, 0.8 * minus]], rtol=0, atol=1e-15)
    assert not psi.amplitudes.flags.writeable


@given(w=w_values, theta=angles, c=overlaps)
def test_marginal_coherence_is_scaled_by_overlap(w, theta, c):
    w_marg, rho12_marg, theta_marg = (float(x) for x in entangled_arrays(w, theta, c)[2:])
    assert w_marg == pytest.approx(w, abs=1e-12)
    assert rho12_marg == pytest.approx(c * math.sqrt(w * (1.0 - w)), abs=1e-12)
    if rho12_marg > 1e-9:
        assert abs(np.exp(1j * theta_marg) - np.exp(1j * theta)) < 1e-9


def test_which_path_frozen_values():
    psi = EntangledState(0.5, 0.0, 0.6)
    assert distinguishability(psi) == pytest.approx(0.8, abs=1e-12)
    assert entangled_visibility(psi) == pytest.approx(0.6, abs=1e-12)


@given(w=w_values, theta=angles, c=overlaps)
def test_which_path_duality_is_tight(w, theta, c):
    psi = EntangledState(w, theta, c)
    d = distinguishability(psi)
    ve = entangled_visibility(psi)
    assert d * d + ve * ve == pytest.approx(1.0, abs=1e-12)
    assert abs(2.0 * w - 1.0) <= d + 1e-12


def _scalar_which_way(w, theta, c):
    psi = EntangledState(w, theta, c)
    marginal = (float(x) for x in entangled_arrays(w, theta, c)[2:])
    return distinguishability(psi), entangled_visibility(psi), *marginal


def assert_stack_matches_scalars(w, theta, c):
    """Every element of ``entangled_arrays`` equals the scalar functions, and the kernel, on that one state, bit for bit."""
    w, theta, c = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (w, theta, c)))
    stacked = [x.ravel().tolist() for x in entangled_arrays(w, theta, c)]
    for i, args in enumerate(zip(w.ravel().tolist(), theta.ravel().tolist(), c.ravel().tolist())):
        assert tuple(x[i] for x in stacked) == _scalar_which_way(*args), args


def test_stacked_which_way_matches_scalars_on_the_suite_grid():
    grid = np.linspace(0.0, 1.0, 51)
    assert_stack_matches_scalars(grid[:, None], 0.7, grid[None, :])


def test_stacked_which_way_matches_scalars_on_the_optimal_overlap_sweep():
    w = [math.sin(float(alpha)) ** 2 for alpha in np.linspace(0.0, math.pi / 2.0, 2001)]
    assert_stack_matches_scalars(w, 0.0, [optimal_entanglement(x) for x in w])


@given(st.lists(st.tuples(w_values, st.floats(min_value=-1e3, max_value=1e3), overlaps), min_size=1, max_size=16))
def test_stacked_which_way_matches_scalars(states):
    assert_stack_matches_scalars(*zip(*states))


# (argument slot, value): non-finite values everywhere, out-of-range ones where a range applies.
REJECTED = [(slot, bad) for slot in (0, 1, 2) for bad in (math.nan, math.inf, -math.inf, 10**400)]
REJECTED += [(slot, bad) for slot in (0, 2) for bad in (-0.1, 1.2)]


@pytest.mark.parametrize(
    "slot, bad", REJECTED, ids=[f"{('w_plus', 'theta', 'c')[k]}={'1e400' if v == 10**400 else v}" for k, v in REJECTED]
)
def test_stacked_which_way_rejects_as_entangle(slot, bad):
    args = [[0.3, 0.5, 0.7], [0.1, 0.2, 0.3], [0.2, 0.4, 0.6]]
    args[slot][1] = bad
    with pytest.raises(ParameterError) as scalar:
        EntangledState(*(a[1] for a in args))
    with pytest.raises(ParameterError, match=re.escape(str(scalar.value)) + "$"):
        entangled_arrays(*args)


def test_meter_projector_geometry():
    mp = meter_projectors(0.6)
    assert isinstance(mp, Observable)
    # column m1 = (cos gamma, sin gamma), column m2 = (-sin gamma, cos gamma)
    (cos, sin), m2 = mp.vec_plus.real, mp.vec_minus
    assert not mp.basis.imag.any()
    np.testing.assert_array_equal(m2, [-sin, cos])
    assert cos * cos - sin * sin == pytest.approx(-0.8, abs=1e-12)
    assert 2.0 * cos * sin == pytest.approx(0.6, abs=1e-12)
    # pi/4 < gamma < pi/2
    assert 0.0 < cos < sin
    assert mp.val_plus == -mp.val_minus == pytest.approx(-0.625, abs=1e-12)
    # analysis vectors form an orthonormal pair
    np.testing.assert_allclose(mp.basis.conj().T @ mp.basis, np.eye(2), atol=1e-14)


def test_meter_projectors_weak_coupling_limit():
    mp = meter_projectors(1e-6)
    # gamma approaches pi/2 from below, so cos gamma = sin(pi/2 - gamma) -> 0+,
    # and the outcome values stay finite
    cos, sin = mp.vec_plus.real
    assert 0.0 < cos < sin
    assert cos == pytest.approx(5e-7, rel=1e-3)
    assert mp.val_plus == -mp.val_minus == pytest.approx(-0.5, rel=1e-9)


def test_meter_marginal_moments_match_estimate_a():
    # The meter readout is an observable on the meter: its moments in the
    # meter state left by tracing out the system are the readout moments.
    rng = np.random.default_rng(14)
    for w, theta, c in zip(rng.uniform(0.0, 1.0, 200), rng.uniform(0.0, 2.0 * math.pi, 200), rng.uniform(0.01, 0.99, 200)):
        psi_e = EntangledState(w, theta, c)
        psi = psi_e.amplitudes
        meter = DensityMatrix(*(float(x) for x in density_params(np.einsum("sm,sn->mn", psi, psi.conj()))))
        obs = meter_projectors(c)
        mean, var = mean_var(meter, obs)
        mean_a, var_a = estimate_a(psi_e)
        # relative to the outcome magnitude a_prime, since the mean may vanish
        a_prime = obs.val_minus
        assert abs(mean - mean_a) <= 1e-12 * a_prime
        assert abs(var - var_a) <= 1e-12 * a_prime * a_prime


def test_meter_projectors_singular_endpoints():
    with pytest.raises(SingularConfigurationError):
        meter_projectors(0.0)
    with pytest.raises(SingularConfigurationError):
        meter_projectors(1.0)


def assert_matches_projection(psi, varrho):
    """The closed-form readout moments agree with explicit projection."""
    closed = (estimate_a(psi), estimate_b(psi, varrho))
    for moments, projected in zip(closed, projected_readout_moments(psi.amplitudes, psi.c, varrho)):
        for x, y in zip(moments, projected):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))
    return closed


def test_readout_frozen_values():
    psi = EntangledState(0.9, 0.3, C_OPT_09)
    (mean_a, var_a), (mean_b, var_b) = assert_matches_projection(psi, 0.3)
    assert mean_a == pytest.approx(0.4, abs=1e-12)
    assert var_a == pytest.approx(0.2775, abs=1e-12)
    assert mean_b == pytest.approx(0.3, abs=1e-12)
    assert var_b == pytest.approx(0.1369 / 0.2775, abs=1e-12)
    assert var_a * var_b == pytest.approx(0.1369, abs=1e-12)


def test_readout_erasure_phase_variance():
    # erasure phase choice: zero mean and variance (b / c)^2
    psi = EntangledState(0.5, 0.0, 0.6)
    mean_b, var_b = estimate_b(psi, math.pi / 2.0)
    assert mean_b == pytest.approx(0.0, abs=1e-12)
    assert var_b == pytest.approx((0.5 / 0.6) ** 2, abs=1e-12)


@given(w=interior, theta=angles, c=st.floats(min_value=0.05, max_value=0.95), varrho=angles)
def test_readouts_are_unbiased(w, theta, c, varrho):
    psi = EntangledState(w, theta, c)
    (mean_a, _), (mean_b, _) = assert_matches_projection(psi, varrho)
    assert mean_a == pytest.approx(0.5 * (2.0 * w - 1.0), abs=1e-12)
    b_obs = complementary_observable(varrho)
    sharp_b, _ = mean_var(pure_state(w, theta), b_obs)
    assert mean_b == pytest.approx(sharp_b, abs=1e-12)


def test_readout_requires_interior_overlap():
    with pytest.raises(SingularConfigurationError):
        estimate_a(EntangledState(0.5, 0.0, 0.0))
    with pytest.raises(SingularConfigurationError):
        estimate_b(EntangledState(0.5, 0.0, 0.0), 0.0)


def test_product_frozen_values():
    assert simultaneous_product(0.9, C_OPT_09) == pytest.approx(0.1369, abs=1e-12)
    assert simultaneous_product(0.9, 1.0) == math.inf
    assert simultaneous_product(0.5, 1.0) == pytest.approx(0.0625, abs=0.0)
    assert simultaneous_product(1.0, 0.0) == pytest.approx(0.0625, abs=0.0)
    assert simultaneous_product(0.9, 0.0) == math.inf
    # One part in 1e9 below c = 1, where 1 - c*c keeps only about half its digits.
    psi = EntangledState(0.9, 0.3, 0.999999999)
    readouts = estimate_a(psi)[1] * estimate_b(psi, 0.3)[1]
    assert simultaneous_product(0.9, 0.999999999) == pytest.approx(readouts, rel=1e-15, abs=0.0)


@given(w=interior, c=st.floats(min_value=0.05, max_value=0.95))
def test_product_matches_readout_variances(w, c):
    psi = EntangledState(w, 0.7, c)
    (_, var_a), (_, var_b) = assert_matches_projection(psi, 0.7)
    assert simultaneous_product(w, c) == pytest.approx(var_a * var_b, rel=1e-12)


def test_optimal_overlap_frozen_values():
    assert optimal_entanglement(0.9) == pytest.approx(C_OPT_09, abs=1e-15)
    assert optimal_entanglement(0.5) == 1.0
    assert optimal_entanglement(0.0) == 0.0
    assert optimal_entanglement(1.0) == 0.0
    # populations with w+ w- = 1/8: the direct minimization is 0/0 there,
    # the regularized form gives overlap 1/sqrt(2)
    w_eighth = (1.0 + math.sqrt(0.5)) / 2.0
    assert optimal_entanglement(w_eighth) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def c_opt_reference(w):
    """``sqrt(V / (P + V))`` at the double ``w``, to 50 digits."""
    with localcontext(Context(prec=50)):
        x = Decimal(w)
        v = 2 * (x * (1 - x)).sqrt()
        return (v / (abs(2 * x - 1) + v)).sqrt()


def test_optimal_overlap_to_the_last_digit():
    sweep_grid = [math.sin(float(alpha)) ** 2 for alpha in np.linspace(0.0, math.pi / 2.0, 2001)]
    # Next to 1/2, sqrt(1 - 4 w+ w-) would lose half the digits of P = |2 w+ - 1|.
    near_half = [0.5 + sign * k * 2.0**-53 for k in range(1, 9) for sign in (1, -1)]
    for w in sweep_grid + near_half:
        assert abs(Decimal(optimal_entanglement(w)) - c_opt_reference(w)) <= Decimal("2e-16"), w


@given(w=st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
def test_optimal_overlap_minimizes_the_product(w):
    c_opt = optimal_entanglement(w)
    best = simultaneous_product(w, c_opt)
    for c in np.linspace(0.02, 0.98, 25):
        assert best <= simultaneous_product(w, float(c)) + 1e-12


def test_minimum_routes_frozen_values():
    value, long_form, numeric_min, compact_plus, compact_minus = minimum_product_routes(0.9)
    assert value == pytest.approx(0.1369, abs=1e-12)
    assert value == simultaneous_product(0.9, optimal_entanglement(0.9))
    assert numeric_min == pytest.approx(0.1369, abs=1e-9)
    # the messy closed expression evaluates to the same number
    assert long_form == pytest.approx(0.02102784 / 0.1536, abs=1e-12)
    assert compact_plus == pytest.approx(0.1369, abs=1e-15)
    assert compact_minus == pytest.approx(0.0169, abs=1e-15)
    assert abs(value - compact_plus) <= ROUTE_AGREEMENT_TOL < abs(value - compact_minus)


def test_minimum_routes_limits_are_exact():
    for w in (0.0, 0.5, 1.0):
        value, _, numeric_min, compact_plus, _ = minimum_product_routes(w)
        assert value == numeric_min == compact_plus == 0.0625


def _vp(w):
    return abs(2.0 * w - 1.0) * 2.0 * math.sqrt(w * (1.0 - w))


def test_minimum_report_conditioning_guard():
    # at w+ w- = 1/8 the messy expression is 0/0 and must be reported as nan
    w_eighth = (1.0 + math.sqrt(0.5)) / 2.0
    value, long_form, _, _, _ = minimum_product_routes(w_eighth)
    assert math.isnan(long_form)
    assert value == pytest.approx((1.0 + _vp(w_eighth)) ** 2 / 16.0, abs=1e-12)


@given(w=st.floats(min_value=0.02, max_value=0.98, allow_nan=False))
def test_minimum_matches_compact_plus_form(w):
    value, _, _, compact_plus, compact_minus = minimum_product_routes(w)
    assert value == pytest.approx((1.0 + _vp(w)) ** 2 / 16.0, rel=1e-9)
    assert abs(value - compact_plus) <= ROUTE_AGREEMENT_TOL
    if _vp(w) > 1e-3:
        assert abs(value - compact_minus) > ROUTE_AGREEMENT_TOL
