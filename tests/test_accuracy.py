"""Forward errors of closed forms in ulps, against mpmath at 50 digits: the first rows of an accuracy ledger.

Each row takes the worst error of a closed form over the edges of its arguments and over a seeded random grid,
and pins it as a bound: what the grid measured, so that a change which rounds worse fails here. An error is
``|value - exact|`` in units of the last place of the exact value rounded to a double; where the exact value is 0,
only 0 passes.
"""

import math

import numpy as np
import pytest

from qudual import EntangledState, distinguishability, entangled_visibility

mpmath = pytest.importorskip("mpmath")

# The which-way edges: populations at 0, 1/4, 1/2 and 1 and near them, overlaps at 0, 1/2 and 1 and near them.
W_EDGES = [0.0, 1e-12, 0.25, 0.5 - 1e-9, 0.5, 1.0 - 1e-9, 1.0]
C_EDGES = [0.0, 1e-6, 1e-3, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0]
_RNG = np.random.default_rng(20)
RANDOM = _RNG.uniform(0.0, 1.0, (3, 3000)) * np.array([[1.0], [2.0 * math.pi], [1.0]])  # rows w_plus, theta, c


def _ulps(value: float, exact) -> float:
    return float(abs(mpmath.mpf(value) - exact) / math.ulp(float(exact)))


def which_way_errors(w, theta, c) -> tuple[float, float]:
    """The worst errors in ulps of :func:`distinguishability` and :func:`entangled_visibility` over the states."""
    psi = EntangledState(np.atleast_1d(w), theta, c)
    d, ve = distinguishability(psi).tolist(), entangled_visibility(psi).tolist()
    errors = []
    with mpmath.workdps(50):
        for w_i, c_i, d_i, ve_i in zip(psi.w_plus.tolist(), psi.c.tolist(), d, ve):
            w_mp, c_mp = mpmath.mpf(w_i), mpmath.mpf(c_i)  # exact: every double is an mpf
            k = w_mp * (1 - w_mp)
            errors.append((_ulps(d_i, mpmath.sqrt(1 - 4 * c_mp * c_mp * k)), _ulps(ve_i, 2 * c_mp * mpmath.sqrt(k))))
    return tuple(max(column) for column in zip(*errors))


def test_which_way_closed_forms_are_accurate_to_pinned_ulps_at_the_edges():
    w, c = (x.ravel() for x in np.meshgrid(W_EDGES, C_EDGES, indexing="ij"))
    worst_d, worst_ve = which_way_errors(w, 0.7, c)
    assert worst_d <= 1.31 and worst_ve <= 0.72, (worst_d, worst_ve)


def test_which_way_closed_forms_are_accurate_to_pinned_ulps_on_a_random_grid():
    worst_d, worst_ve = which_way_errors(*RANDOM)
    assert worst_d <= 2.07 and worst_ve <= 1.47, (worst_d, worst_ve)


def test_distinguishability_keeps_its_digits_where_the_trace_norm_cancelled():
    # At w_plus = 1/2 - 1e-9, D is about 1.4e-6 at c = 1 - 1e-12 and 2e-9 at c = 1. The trace norm of the meter
    # blocks (verify.which_way_routes) cancels there: at theta = 0.7 it is off by 742 and 2**28 ulps.
    w = 0.5 - 1e-9
    assert which_way_errors([w, w], 0.7, [1.0 - 1e-12, 1.0])[0] <= 0.74
