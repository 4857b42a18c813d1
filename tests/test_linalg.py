"""The kernels of ``qudual.linalg``, and the two contracts on a raw matrix that start from its ``_finite_2x2``.

The Hermitian contract and the trace norm live in ``qudual.verify``, the unitary one in ``Observable``'s
``qudual.states._unitary_columns``.
"""

import math
import re
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qudual import ContractViolationError, Observable
from qudual.linalg import _dot, _eigenvalues, _halves, _hypot, _parts, _traces
from qudual.states import _unitary_columns
from qudual.verify import _assert_hermitian, _trace_norm

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def hermitian(a, d, br, bi):
    return np.array([[a, br - 1j * bi], [br + 1j * bi, d]], dtype=complex)


def trace_norm(m):
    """The trace norm of a Hermitian matrix or stack: ``verify``'s contract on it, then its route on the parts."""
    return _trace_norm(*_parts(_assert_hermitian(m)))


# Dot2 as one trace at a time: each call splits both factors of each product and sums out of place. The kernels
# that split a state's parts once for all its traces, and sum in place, must give these bytes.
_SPLITTER = 134217729.0


def reference_two_product(a, b):
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def reference_dot(*pairs):
    s, c = reference_two_product(*pairs[0])
    for a, b in pairs[1:]:
        p, q = reference_two_product(a, b)
        t = s + p
        z = t - s
        c = c + (q + ((s - (t - z)) + (p - z)))
        s = t
    return s + c


def reference_trace(h, k):
    a, d, x, y = h
    p, s, u, v = k
    return reference_dot((a, p), (d, s), (2.0 * x, u), (2.0 * y, v))


# Parts of every kind: ordinary, +-0.0, subnormal, near 2**996, where a split overflows and the error term is NaN.
part_values = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 2.0**996, -(2.0**996) * 1.5, 2.0**1000, 1e308]),
)
# Shapes of the parts of a state and of an operand: None is a Python float; the others broadcast, (3, 1) with (4,)
# too, and each part of one value draws its own, so that floats and arrays of several shapes mix in one trace.
SHAPES = [None, (), (5,), (3, 1), (4,), (1,), (2, 5)]


def draw_part(data, shape):
    """A part of ``shape``, or a Python float where it is None."""
    if shape is None:
        return data.draw(part_values)
    size = math.prod(shape)
    return np.array(data.draw(st.lists(part_values, min_size=size, max_size=size))).reshape(shape)


def broadcast(*shapes):
    try:
        return np.broadcast_shapes(*(s for s in shapes if s is not None))
    except ValueError:
        return None


def draw_parts(data, n, *parts):
    """``n`` parts, each of its own shape, that broadcast with one another and with ``parts``."""
    drawn = []
    for _ in range(n):
        shapes = [np.shape(part) if isinstance(part, np.ndarray) else None for part in (*parts, *drawn)]
        shape = data.draw(st.sampled_from([s for s in SHAPES if broadcast(*shapes, s) is not None]))
        drawn.append(draw_part(data, shape))
    return tuple(drawn)


def same_bytes(x, y):
    return type(x) is type(y) and np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


def array_bytes(*parts):
    return [part.tobytes() for part in parts if isinstance(part, np.ndarray)]


@given(data=st.data(), n=st.integers(1, 6))
def test_traces_keep_the_bytes_of_one_trace_at_a_time(data, n):
    # one state or a stack, and operands each of whose parts is a float or a stack that broadcasts with the others
    h = draw_parts(data, 4)
    ks = [draw_parts(data, 4, *h) for _ in range(n)]
    before = array_bytes(*h, *(part for k in ks for part in k))
    with np.errstate(all="ignore"):
        expected = [reference_trace(h, k) for k in ks]
        traces = _traces(h, *ks)
    assert len(traces) == n
    assert all(same_bytes(t, e) for t, e in zip(traces, expected)), (traces, expected)
    # the sums ran in place on the kernel's own arrays only
    assert array_bytes(*h, *(part for k in ks for part in k)) == before


@given(data=st.data(), n=st.integers(1, 5))
def test_dot_keeps_the_bytes_of_a_dot_of_two_products(data, n):
    # _hypot's residual, among others: each factor a float or a stack that broadcasts with the others
    factors = draw_parts(data, 2 * n)
    left, right = factors[:n], factors[n:]
    before = array_bytes(*factors)
    with np.errstate(all="ignore"):
        expected = reference_dot(*zip(left, right))
        got = _dot(_halves(*left), right)
    assert same_bytes(got, expected), (got, expected)
    assert array_bytes(*factors) == before


def test_trace_norm_frozen_values():
    assert trace_norm(np.diag([0.5, -0.5]).astype(complex)) == pytest.approx(1.0, abs=1e-14)
    # projectors onto states with overlap 0.6: norm is 2 sqrt(1 - 0.36)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    psi1 = np.array([0.6, 0.8], dtype=complex)
    diff = np.outer(psi0, psi0.conj()) - np.outer(psi1, psi1.conj())
    assert trace_norm(diff) == pytest.approx(1.6, abs=1e-12)


@given(a=finite, d=finite, br=finite, bi=finite)
def test_eigenvalues_match_lapack(a, d, br, bi):
    m = hermitian(a, d, br, bi)
    w = list(_eigenvalues(*_parts(m)))
    scale = max(1.0, float(np.abs(m).max()))
    np.testing.assert_allclose(w, np.linalg.eigvalsh(m)[::-1], atol=1e-12 * scale)


def test_hypot_rounds_as_math_hypot():
    # A random grid across exponents, legs up to 60 binades apart or unrelated, then the edges:
    # 0, the smallest subnormal and normal, 1, max / 8, each scaling threshold and one ulp either
    # side, each of these again 1e-8 larger, and every pair of them, equal legs included.
    rng = np.random.default_rng(22)
    exp_x = rng.integers(-1074, 1021, 20000)
    exp_y = np.where(rng.random(20000) < 0.5, exp_x + rng.integers(-60, 61, 20000), rng.integers(-1074, 1021, 20000))
    x = np.ldexp(rng.uniform(-1.0, 1.0, 20000), exp_x)
    y = np.ldexp(rng.uniform(-1.0, 1.0, 20000), np.clip(exp_y, -1074, 1020))
    edges = [0.0, 5e-324, sys.float_info.min, 1.0, sys.float_info.max / 8.0]
    for limit in (2.0**-300, 2.0**500):
        edges += [math.nextafter(limit, 0.0), limit, math.nextafter(limit, math.inf)]
    edges += [e * (1.0 + 1e-8) for e in edges]
    grid = np.array([(a, sign * b) for a in edges for b in edges for sign in (1.0, -1.0)]).T
    # last, a pair whose subnormal modulus rounds one ulp away from math.hypot's
    x, y = np.concatenate([x, grid[0], [-3.66544787819615e-309]]), np.concatenate([y, grid[1], [-5.9929995458e-313]])

    stack = _hypot(x, y).tolist()
    one = [_hypot(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert all(type(h) is float for h in one)
    assert stack == one  # a stack rounds as its scalar
    reference = [math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())]  # the loop the kernel replaced
    normal = [h for h, r in zip(one, reference) if r == 0.0 or r >= sys.float_info.min]
    assert normal == [r for r in reference if r == 0.0 or r >= sys.float_info.min]
    # A subnormal result rounds twice, so it is held to one ulp of the exact modulus instead.
    with localcontext() as ctx:
        ctx.prec = 60
        for a, b, h, r in zip(x.tolist(), y.tolist(), one, reference):
            if 0.0 < r < sys.float_info.min:
                assert abs(h - float((Decimal(a) ** 2 + Decimal(b) ** 2).sqrt())) <= 5e-324


def test_subnormal_coherence_keeps_finite_trace_norm():
    # purely imaginary off-diagonal at the smallest subnormal magnitude
    m = hermitian(0.0, 0.0, 0.0, 5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = trace_norm(m)
    assert norm == 1e-323


@given(a=finite, d=finite, br=finite, bi=finite)
def test_trace_norm_matches_singular_values(a, d, br, bi):
    m = hermitian(a, d, br, bi)
    scale = max(1.0, float(np.abs(m).max()))
    sv = float(np.linalg.svd(m, compute_uv=False).sum())
    assert trace_norm(m) == pytest.approx(sv, abs=1e-12 * scale)


def test_trace_norm_takes_stacks():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2))
    m = m + m.conj().swapaxes(-1, -2)
    norms = trace_norm(m.reshape(5, 8, 2, 2))
    assert norms.shape == (5, 8)
    # one matrix at a time bit for bit, and the absolute eigenvalues of LAPACK
    assert norms.ravel().tolist() == [trace_norm(x) for x in m]
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    assert np.all(np.abs(norms.ravel() - np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)) <= 1e-12 * scale)
    m[17, 0, 1] += 1e-9
    with pytest.raises(ContractViolationError, match="not Hermitian: max .* = 1.000e-09"):
        trace_norm(m)
    with pytest.raises(ContractViolationError, match="2x2"):
        trace_norm(np.eye(3, dtype=complex))


def test_contract_guards_raise_with_deviation():
    with pytest.raises(ContractViolationError, match="Hermitian"):
        _assert_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), name="probe")
    with pytest.raises(ContractViolationError, match="unitary"):
        _unitary_columns(2.0 * np.eye(2, dtype=complex))
    # a non-finite entry fails the contract before any arithmetic, so NumPy warns of nothing
    for bad in (np.nan, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="probe is not Hermitian: it has a NaN or infinite entry"):
                _assert_hermitian(np.array([[bad, 0.0], [0.0, 0.5]]), name="probe")
            with pytest.raises(ContractViolationError, match="Hermitian"):
                trace_norm(np.full((2, 2), bad))
            with pytest.raises(ContractViolationError, match="eigenbasis is not unitary: it has a NaN or infinite entry"):
                _unitary_columns(np.array([[1.0, 0.0], [0.0, bad]]))


def test_trace_norm_rejects_entries_past_its_overflow_bound():
    # every part at the bound still gives a finite norm; one part past it raises before any arithmetic
    bound = sys.float_info.max / 8.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trace_norm(hermitian(bound, bound, bound, bound)) == pytest.approx(2.0 * math.sqrt(2.0) * bound, rel=1e-15)
        assert trace_norm(hermitian(bound, -bound, bound, bound)) == pytest.approx(2.0 * math.sqrt(3.0) * bound, rel=1e-15)
        for m in (
            [[1e308, -1.0], [-1.0, -1e308]],
            hermitian(0.0, 0.0, 0.0, math.nextafter(bound, math.inf)),
            np.stack([hermitian(1.0, 0.0, 0.0, 0.0), hermitian(0.0, 0.0, -1e308, 0.0)]),
        ):
            with pytest.raises(ContractViolationError, match=re.escape(f"past the bound |Re m|, |Im m| <= {bound!r}")):
                trace_norm(m)


def test_contract_guards_reject_entries_past_their_overflow_bounds():
    # a finite entry whose check would overflow raises, naming the bound, before any arithmetic
    hermitian_bound = sys.float_info.max / 8.0
    unitary_bound = math.sqrt(sys.float_info.max) / 2.0**17
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check, m, bound in (
            (_assert_hermitian, [[0.0, 1e308], [-1e308, 0.0]], hermitian_bound),
            (_assert_hermitian, hermitian(0.0, 0.0, 0.0, math.nextafter(hermitian_bound, math.inf)), hermitian_bound),
            (_unitary_columns, np.diag([1e200, 1.0]), unitary_bound),
            (_unitary_columns, np.diag([1.0, 1j * math.nextafter(unitary_bound, math.inf)]), unitary_bound),
            (lambda m: Observable(1.0, -1.0, m), np.diag([1e200, 1.0]), unitary_bound),
        ):
            with pytest.raises(ContractViolationError, match=re.escape(f"past the bound |Re m|, |Im m| <= {bound!r}")):
                check(m)
        # at the bound each check runs its arithmetic to a finite deviation, and fails on it
        with pytest.raises(ContractViolationError, match=re.escape(f"= {math.sqrt(8.0) * hermitian_bound:.3e} exceeds")):
            _assert_hermitian(hermitian_bound * np.array([[0.0, 1.0 + 1j], [-1.0 + 1j, 0.0]]))
        with pytest.raises(ContractViolationError, match=re.escape(f"= {4.0 * unitary_bound**2:.3e} exceeds")):
            _unitary_columns(np.full((2, 2), unitary_bound * (1.0 - 1j)))


def test_unitarity_guard_checks_one_matrix_and_refuses_a_stack():
    stack = np.stack([np.eye(2, dtype=complex), np.array([[0.0, 1j], [1j, 0.0]])] * 3)
    # each matrix alone passes, and comes back as the parts of its columns
    identity = (((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 0.0)))
    flip = (((0.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 0.0)))
    assert [_unitary_columns(m) for m in stack] == [identity, flip] * 3
    stack[4, 0, 0] = 1.0 + 1e-9
    with pytest.raises(ContractViolationError, match="not unitary: max .* = 2.000e-09"):
        _unitary_columns(stack[4])
    # a stack is refused whole, each matrix unitary or not, before any arithmetic
    with pytest.raises(ContractViolationError, match=r"must be one matrix, not a stack, got shape \(6, 2, 2\)"):
        _unitary_columns(stack)
    with pytest.raises(ContractViolationError, match="eigenbasis must be a 2x2 matrix or a stack of them"):
        _unitary_columns(np.ones((3, 2, 4)))
