import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qudual import (
    ComplementaryFamily,
    ParameterError,
    SingularConfigurationError,
    complementary_observable,
    distinguishability,
    entangle,
    entangled_visibility,
    estimate_a,
    estimate_b,
    mean_var,
    meter_projectors,
    minimum_simultaneous_product,
    optimal_entanglement,
    pure_state,
    simultaneous_product,
    symmetric_observable,
)
from qudual.verify import minimum_product_report, projected_readout_moments

w_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
overlaps = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
interior = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)

C_OPT_09 = math.sqrt(3.0 / 7.0)


def test_entangled_amplitudes():
    psi = entangle(0.9, 0.3, 0.6)
    phase = np.exp(0.3j)
    target = np.array(
        [math.sqrt(0.9), 0.0, phase * math.sqrt(0.1) * 0.6, phase * math.sqrt(0.1) * 0.8]
    )
    np.testing.assert_allclose(psi.amplitudes, target, atol=1e-15)
    assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0, abs=1e-14)


def test_entangle_rejects_bad_parameters():
    with pytest.raises(ParameterError, match=r"c = 1\.2 violates"):
        entangle(0.5, 0.0, 1.2)
    with pytest.raises(ParameterError, match=r"w_plus = -0\.1 violates"):
        entangle(-0.1, 0.0, 0.5)


@given(w=w_values, theta=angles, c=overlaps)
def test_marginal_coherence_is_scaled_by_overlap(w, theta, c):
    psi = entangle(w, theta, c)
    marg = psi.marginal_system()
    assert marg.w_plus == pytest.approx(w, abs=1e-12)
    assert marg.rho12 == pytest.approx(c * math.sqrt(w * (1.0 - w)), abs=1e-12)
    if marg.rho12 > 1e-9:
        assert abs(np.exp(1j * marg.theta) - np.exp(1j * theta)) < 1e-9


def test_which_path_frozen_values():
    psi = entangle(0.5, 0.0, 0.6)
    assert distinguishability(psi) == pytest.approx(0.8, abs=1e-12)
    assert entangled_visibility(psi) == pytest.approx(0.6, abs=1e-12)


@given(w=w_values, theta=angles, c=overlaps)
def test_which_path_duality_is_tight(w, theta, c):
    psi = entangle(w, theta, c)
    d = distinguishability(psi)
    ve = entangled_visibility(psi)
    assert d * d + ve * ve == pytest.approx(1.0, abs=1e-12)
    assert abs(2.0 * w - 1.0) <= d + 1e-12


def test_meter_projector_geometry():
    mp = meter_projectors(0.6)
    assert math.cos(2.0 * mp.gamma) == pytest.approx(-0.8, abs=1e-12)
    assert math.sin(2.0 * mp.gamma) == pytest.approx(0.6, abs=1e-12)
    assert math.pi / 4.0 < mp.gamma < math.pi / 2.0
    assert mp.a_prime == pytest.approx(0.625, abs=1e-12)
    assert (mp.value_m1, mp.value_m2) == (-mp.a_prime, mp.a_prime)
    # analysis vectors form an orthonormal pair
    assert np.vdot(mp.m1, mp.m1).real == pytest.approx(1.0, abs=1e-14)
    assert np.vdot(mp.m2, mp.m2).real == pytest.approx(1.0, abs=1e-14)
    assert abs(np.vdot(mp.m1, mp.m2)) < 1e-14


def test_meter_projectors_weak_coupling_limit():
    mp = meter_projectors(1e-6)
    # gamma approaches pi/2 from below and the outcome values stay finite
    assert mp.gamma < math.pi / 2.0
    assert math.pi / 2.0 - mp.gamma == pytest.approx(5e-7, rel=1e-3)
    assert mp.a_prime == pytest.approx(0.5, rel=1e-9)


def test_meter_projectors_singular_endpoints():
    with pytest.raises(SingularConfigurationError):
        meter_projectors(0.0)
    with pytest.raises(SingularConfigurationError):
        meter_projectors(1.0)


def assert_matches_projection(psi, varrho):
    """The closed-form readout moments agree with explicit projection."""
    closed = (estimate_a(psi), estimate_b(psi, varrho))
    for moments, projected in zip(closed, projected_readout_moments(psi, varrho)):
        for x, y in zip(moments, projected):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))
    return closed


def test_readout_frozen_values():
    psi = entangle(0.9, 0.3, C_OPT_09)
    (mean_a, var_a), (mean_b, var_b) = assert_matches_projection(psi, 0.3)
    assert mean_a == pytest.approx(0.4, abs=1e-12)
    assert var_a == pytest.approx(0.2775, abs=1e-12)
    assert mean_b == pytest.approx(0.3, abs=1e-12)
    assert var_b == pytest.approx(0.1369 / 0.2775, abs=1e-12)
    assert var_a * var_b == pytest.approx(0.1369, abs=1e-12)


def test_readout_erasure_phase_variance():
    # erasure phase choice: zero mean and variance (b / c)^2
    psi = entangle(0.5, 0.0, 0.6)
    mean_b, var_b = estimate_b(psi, math.pi / 2.0)
    assert mean_b == pytest.approx(0.0, abs=1e-12)
    assert var_b == pytest.approx((0.5 / 0.6) ** 2, abs=1e-12)


@given(w=interior, theta=angles, c=st.floats(min_value=0.05, max_value=0.95), varrho=angles)
def test_readouts_are_unbiased(w, theta, c, varrho):
    psi = entangle(w, theta, c)
    (mean_a, _), (mean_b, _) = assert_matches_projection(psi, varrho)
    assert mean_a == pytest.approx(0.5 * (2.0 * w - 1.0), abs=1e-12)
    b_obs = complementary_observable(ComplementaryFamily(symmetric_observable(), varrho))
    sharp_b, _ = mean_var(pure_state(w, theta), b_obs)
    assert mean_b == pytest.approx(sharp_b, abs=1e-12)


def test_readout_requires_interior_overlap():
    with pytest.raises(SingularConfigurationError):
        estimate_a(entangle(0.5, 0.0, 0.0))
    with pytest.raises(SingularConfigurationError):
        estimate_b(entangle(0.5, 0.0, 0.0), 0.0)


def test_product_frozen_values():
    assert simultaneous_product(0.9, C_OPT_09) == pytest.approx(0.1369, abs=1e-12)
    assert simultaneous_product(0.9, 1.0) == math.inf
    assert simultaneous_product(0.5, 1.0) == pytest.approx(0.0625, abs=0.0)
    assert simultaneous_product(1.0, 0.0) == pytest.approx(0.0625, abs=0.0)
    assert simultaneous_product(0.9, 0.0) == math.inf


@given(w=interior, c=st.floats(min_value=0.05, max_value=0.95))
def test_product_matches_readout_variances(w, c):
    psi = entangle(w, 0.7, c)
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


@given(w=st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
def test_optimal_overlap_minimizes_the_product(w):
    c_opt = optimal_entanglement(w)
    best = simultaneous_product(w, c_opt)
    for c in np.linspace(0.02, 0.98, 25):
        assert best <= simultaneous_product(w, float(c)) + 1e-12


def test_minimum_report_frozen_values():
    rep = minimum_product_report(0.9)
    assert rep.value == pytest.approx(0.1369, abs=1e-12)
    assert rep.numeric_min == pytest.approx(0.1369, abs=1e-9)
    # the messy closed expression evaluates to the same number
    assert rep.long_form == pytest.approx(0.02102784 / 0.1536, abs=1e-12)
    assert rep.compact_plus == pytest.approx(0.1369, abs=1e-15)
    assert rep.compact_minus == pytest.approx(0.0169, abs=1e-15)
    assert rep.matches_plus and not rep.matches_minus
    assert rep.c_opt == pytest.approx(C_OPT_09, abs=1e-12)
    assert abs(rep.c_numeric - rep.c_opt) < 1e-3


def test_minimum_report_limits_are_exact():
    for w in (0.0, 0.5, 1.0):
        assert minimum_simultaneous_product(w) == 0.0625


def _vp(w):
    return abs(2.0 * w - 1.0) * 2.0 * math.sqrt(w * (1.0 - w))


def test_minimum_report_conditioning_guard():
    # at w+ w- = 1/8 the messy expression is 0/0 and must be reported as nan
    w_eighth = (1.0 + math.sqrt(0.5)) / 2.0
    rep = minimum_product_report(w_eighth)
    assert math.isnan(rep.long_form)
    assert rep.value == pytest.approx((1.0 + _vp(w_eighth)) ** 2 / 16.0, abs=1e-12)


@given(w=st.floats(min_value=0.02, max_value=0.98, allow_nan=False))
def test_minimum_matches_compact_plus_form(w):
    rep = minimum_product_report(w)
    assert rep.value == pytest.approx((1.0 + _vp(w)) ** 2 / 16.0, rel=1e-9)
    assert rep.matches_plus
    if _vp(w) > 1e-3:
        assert not rep.matches_minus
