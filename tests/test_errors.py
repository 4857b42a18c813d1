"""``qudual.errors``: the scalar validation that every public float passes through."""

import itertools
import math
import numbers

import numpy as np
import pytest

from qudual.errors import ParameterError, as_float, as_float_array, check_array, check_scalar


def full_path(value, name, lo=-math.inf, hi=math.inf, *, slack=0.0):
    """``check_scalar`` with no fast path: every input converted, bounded and clamped."""
    v = as_float(value, name)
    if not math.isfinite(v) or v < lo - slack or v > hi + slack:
        left = "-inf <" if lo == -math.inf else f"{lo:g} <="
        right = "< inf" if hi == math.inf else f"<= {hi:g}"
        shown = int(value) if isinstance(value, numbers.Integral) and math.isfinite(v) else v
        raise ParameterError(f"{name} = {shown!r} violates the bound {left} {name} {right}")
    return min(max(v, lo), hi)


def outcome(check, value, lo, hi, slack):
    """The result's value, type and zero sign, or the raised error's type and message."""
    try:
        r = check(value, "x", lo, hi, slack=slack)
    except ParameterError as exc:
        return "raises", str(exc)
    return repr(r), type(r), math.copysign(1.0, r)


BOUNDS = [(-math.inf, math.inf), (0.0, 1.0), (-1.0, 0.0), (-0.0, 0.0), (0.0, math.inf), (2, 10**6), (-math.inf, 0.5)]
SLACKS = [0.0, 1e-12]


def edge_values(lo, hi, slack):
    """The inputs compared at bounds ``[lo, hi]`` widened by ``slack``: floats and their NumPy twins, ints and bools."""
    finite = [x for x in (float(lo), float(hi)) if math.isfinite(x)]
    values = [0.0, -0.0, 0.5, -0.5, 1.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300]
    values += [math.inf, -math.inf, math.nan, -math.nan, math.nextafter(0.0, 1.0), math.nextafter(-0.0, -1.0)]
    for x in finite:
        values += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        values += [x - slack / 2, x + slack / 2, x - 2 * slack, x + 2 * slack, x - 1e-13, x + 1e-13]
    values += [0, 1, -1, 2, 3, 10**6, 10**6 + 1, 10**400, -(10**400), True, False]
    return values + [np.float64(v) for v in values if isinstance(v, float)] + [np.float32(0.25), np.int64(2)]


CASES = [(lo, hi, slack) for (lo, hi), slack in itertools.product(BOUNDS, SLACKS)]


@pytest.mark.parametrize("lo, hi, slack", CASES, ids=[f"[{lo},{hi}]+{slack}" for lo, hi, slack in CASES])
def test_check_scalar_returns_and_raises_what_the_full_path_does(lo, hi, slack):
    for value in edge_values(lo, hi, slack):
        assert outcome(check_scalar, value, lo, hi, slack) == outcome(full_path, value, lo, hi, slack), repr(value)


def clip_path(values, name, lo=-math.inf, hi=math.inf, *, slack=0.0):
    """``check_array`` in three passes: every value checked for NaN, infinity and both bounds, then ``np.clip``."""
    v = as_float_array(values, name)
    bad = ~np.isfinite(v) | (v < lo - slack) | (v > hi + slack)
    if bad.any():
        check_scalar(v[bad].flat[0], name, lo, hi, slack=slack)
    return np.clip(v, lo, hi)


def array_outcome(check, values, lo, hi, slack):
    """The result's type, dtype, shape and bytes, or the raised error's type and message."""
    try:
        r = check(values, "x", lo, hi, slack=slack)
    except ParameterError as exc:
        return "raises", str(exc)
    return type(r), r.dtype, r.shape, r.tobytes()


@pytest.mark.parametrize("lo, hi, slack", CASES, ids=[f"[{lo},{hi}]+{slack}" for lo, hi, slack in CASES])
def test_check_array_returns_and_raises_what_the_clip_path_does(lo, hi, slack):
    values = edge_values(lo, hi, slack)
    accepted = [v for v in values if outcome(check_scalar, v, lo, hi, slack)[0] != "raises"]
    # each value alone, as a 0-d array and in a list, then every value and the accepted ones, each as one array
    inputs = [(v,) for v in values] + [(np.array(v, dtype=object),) for v in values] + [([v],) for v in values]
    inputs += [(values,), (accepted,), (np.array(accepted, dtype=float).reshape(-1, 1),)]
    for (value,) in inputs:
        assert array_outcome(check_array, value, lo, hi, slack) == array_outcome(clip_path, value, lo, hi, slack), value
    # the result is a fresh array: writing to the input afterwards leaves it as it was
    given = np.array(accepted, dtype=float)
    result = check_array(given, "x", lo, hi, slack=slack)
    before = result.tobytes()
    given[:] = 0.25
    assert result.tobytes() == before
