"""Small dense linear algebra for two-level problems.

Every operator in this package is 2x2, so its two eigenvalues come in
closed form from the quadratic formula, as ``mean +- half_gap``. No
iterative solver is used anywhere; results are reproducible to the last bit
across runs.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import sys
from types import SimpleNamespace

import numpy as np

from .errors import ContractViolationError, ParameterError, as_float, as_float_array, check_array, check_scalar

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-12

# Largest real or imaginary part of an entry that each contract accepts: past
# it, the arithmetic of the check could overflow before it could fail.
# Hermitian (and trace_norm): with every part at most B, m - m^dagger has parts
# at most 2 B and entries of magnitude at most 2 sqrt(2) B; the largest
# intermediate of trace_norm is an eigenvalue magnitude
# |mean| + half_gap <= B + hypot(B, sqrt(2) B) = (1 + sqrt(3)) B, and
# |l1| + |l2| <= 2 (1 + sqrt(3)) B < 8 B.
_HERMITIAN_MAX_PART = sys.float_info.max / 8.0
# Unitary: every part of m^dagger m is a sum of two products of parts, at most
# 4 B**2 = max / 2**32 here; subtracting the identity and taking magnitudes stay
# far below max.
_UNITARY_MAX_PART = math.sqrt(sys.float_info.max) / 2.0**17

__all__ = [
    "assert_hermitian",
    "assert_unitary",
    "trace_norm",
]


def _finite_2x2(m: np.ndarray, name: str, contract: str, max_part: float) -> np.ndarray:
    """``m`` as a complex array, raising before any arithmetic unless it is ``(..., 2, 2)`` with bounded entries.

    Every entry must be finite, and its real and imaginary part at most
    ``max_part`` in magnitude; one pass over the parts reads both.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ContractViolationError(f"{name} must be a 2x2 matrix or a stack of them, got shape {m.shape}")
    peak = float(np.abs(np.ascontiguousarray(m).view(float)).max(initial=0.0))  # NaN propagates
    if not math.isfinite(peak):
        raise ContractViolationError(f"{name} is not {contract}: it has a NaN or infinite entry")
    if peak > max_part:
        raise ContractViolationError(
            f"{name} has an entry part of magnitude {peak!r}, past the bound "
            f"|Re m|, |Im m| <= {max_part!r} beyond which arithmetic on it overflows"
        )
    return m


def assert_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex array, raising if it is not Hermitian within :data:`HERMITICITY_TOL`.

    A stack of shape ``(..., 2, 2)`` is checked matrix by matrix; the message
    reports the largest deviation in the stack. An entry part past
    ``sys.float_info.max / 8`` in magnitude raises before any arithmetic.
    """
    m = _finite_2x2(m, name, "Hermitian", _HERMITIAN_MAX_PART)
    dev = float(np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0))
    if not dev <= HERMITICITY_TOL:  # NaN fails too
        raise ContractViolationError(
            f"{name} is not Hermitian: max |m - m^dagger| = {dev:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    return m


def assert_unitary(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex array, raising if it is not unitary within :data:`UNITARITY_TOL`.

    A stack of shape ``(..., 2, 2)`` is checked matrix by matrix; the message
    reports the largest deviation in the stack. An entry part past
    ``sqrt(sys.float_info.max) / 2**17`` in magnitude raises before any arithmetic.
    """
    m = _finite_2x2(m, name, "unitary", _UNITARY_MAX_PART)
    dev = float(np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(2)), initial=0.0))
    if not dev <= UNITARITY_TOL:  # NaN fails too
        raise ContractViolationError(
            f"{name} is not unitary: max |m^dagger m - 1| = {dev:.3e} exceeds {UNITARITY_TOL:.1e}"
        )
    return m


# The stacked kernels of this package work on the entry parts of 2x2 matrices, in ``+ - * /`` and ``sqrt``
# alone, with no BLAS product and no complex multiply: IEEE 754 rounds those operations correctly, so a kernel
# gives the same bits on every host, whatever its BLAS kernel or SIMD level, and on a Python float as on each
# element of an array. A Hermitian 2x2 is four reals ``(a, d, x, y)``: the diagonal ``a``, ``d`` and
# the upper off-diagonal entry ``b = x + i y``. A state or observable keeps those parts as Python floats and lays
# out its matrix when first read; an explicit matrix or stack is read through :func:`_parts`. Every modulus is
# :func:`_hypot`, the one kernel that rounds as ``math.hypot`` on a float and on each element of an array alike.


def _quiet_divide(a, b):
    """``a / b`` of arrays, with no NumPy warning where the quotient overflows to an infinity."""
    with np.errstate(over="ignore"):
        return a / b


# A kernel writes each expression once and takes its elementary functions from the table that :func:`_ops` picks:
# ``cmath``, ``math`` and builtins for one state's Python floats, which read nothing of NumPy, and NumPy's for a
# stack. Which of the two a value takes is decided there and nowhere else. A validator writes each rule once too, in
# the table's terms: ``real`` reads a value as floats and ``check`` bounds it too (:func:`~qudual.errors.check_scalar`
# for one value, its elementwise :func:`~qudual.errors.check_array` for a stack), ``broadcast`` gives stacked values
# one shape, or names their shapes in a ParameterError, before any rule compares them, ``fits`` raises NumPy's
# ValueError where they would not, with no array made, and ``require`` raises where a rule fails. Rules run in the
# order one value takes them, so a stack raises the first rule that any element breaks, at the first element that
# breaks it, with that element's own message. ``any`` tells whether a condition holds at some element: a loop over
# a stack runs while one element is left.
# ``divide`` is ``/``, whose quotient past the doubles is an infinity without a word, for a stack as for floats.


def _require(ok, error, *values) -> None:
    """Raise ``error(*values)`` unless ``ok``: a rule of one value, ``ok`` true where it holds, so NaN fails it."""
    if not ok:
        raise error(*values)


def _require_each(ok, error, *values) -> None:
    """:func:`_require` elementwise: raise ``error`` on the values of the first element where ``ok`` fails.

    ``ok`` and ``values`` broadcast, and ``error`` takes that element's values as Python floats, so a stack raises
    the error, message and all, of its first failing element alone. ``ok`` may be a Python bool, where only a
    partner of the values is a stack.
    """
    bad = np.logical_not(ok)
    if bad.any():
        bad, *values = np.broadcast_arrays(bad, *values)
        i = np.flatnonzero(bad)[0]
        raise error(*(float(value.flat[i]) for value in values))


def _broadcast_each(*values) -> list:
    """``np.broadcast_arrays`` of stacked values, or a :class:`ParameterError` that names their shapes."""
    try:
        return np.broadcast_arrays(*values)
    except ValueError:
        shapes = ", ".join(str(np.shape(value)) for value in values)
        raise ParameterError(f"stacked values of shapes {shapes} do not broadcast together") from None


def _broadcastable(*values) -> None:
    """Raise :func:`_broadcast_each`'s :class:`ParameterError` unless stacked ``values`` broadcast together.

    The table's ``fits`` checks: nothing for Python floats, and ``np.broadcast`` for arrays, which reads their
    shapes and makes no array.
    """
    try:
        _ops(*values).fits(*values)
    except ValueError:
        _broadcast_each(*values)


_FLOAT_OPS = SimpleNamespace(exp=cmath.exp, sqrt=math.sqrt, sin=math.sin, cos=math.cos, maximum=max,
                             where=lambda c, a, b: a if c else b, divide=operator.truediv, isfinite=math.isfinite,
                             clip=lambda x, lo, hi: min(max(x, lo), hi), real=as_float, check=check_scalar,
                             broadcast=lambda *values: values, fits=lambda *values: values, require=_require,
                             any=bool)
_ARRAY_OPS = SimpleNamespace(exp=np.exp, sqrt=np.sqrt, sin=np.sin, cos=np.cos, maximum=np.maximum, where=np.where,
                             divide=_quiet_divide, isfinite=np.isfinite, clip=np.clip, real=as_float_array,
                             check=check_array, broadcast=_broadcast_each, fits=np.broadcast, require=_require_each,
                             any=operator.methodcaller("any"))


def _ops(*values):
    """The table of elementary functions for ``values``: :data:`_FLOAT_OPS` if each is one real number, else arrays'.

    An int or a float, NumPy's float64 among them, is told at once; any other real scalar, such as a NumPy
    ``float32`` or ``int64`` or a ``Fraction``, is one value too, which a constructor stores as a Python float.
    Any other value, an array among floats too, makes the values a stack.
    """
    for value in values:
        if type(value) is not float and not isinstance(value, (int, float, numbers.Real)):  # a Python float first
            return _ARRAY_OPS
    return _FLOAT_OPS


def _one_value(value, what: str):
    """``value`` if it is one value: an array of one or more dimensions, a stack, raises a :class:`ParameterError`.

    ``what`` names the call that takes one value, and the message adds the shape of the stack.
    """
    if getattr(value, "ndim", 0) > 0:
        raise ParameterError(f"{what}, not a stack of shape {value.shape}")
    return value


def _entries(m: np.ndarray):
    """Entries ``((m00, m01), (m10, m11))`` of a 2x2 matrix as Python numbers, or of a stack as arrays."""
    if m.ndim == 2:
        return m.tolist()
    return (m[..., 0, 0], m[..., 0, 1]), (m[..., 1, 0], m[..., 1, 1])


def _parts(m: np.ndarray):
    """Parts ``(a, d, x, y)`` of Hermitian 2x2 matrices: floats for one matrix, arrays for a stack."""
    (a, b), (_, d) = _entries(m)
    return a.real, d.real, b.real, b.imag


def _from_parts(a, d, x, y) -> np.ndarray:
    """Hermitian matrices ``(..., 2, 2)`` with parts ``(a, d, x, y)``, which broadcast; no complex arithmetic."""
    return _from_entries((a, 0.0), (x, y), (x, -y), (d, 0.0))


def _from_entries(m00, m01, m10, m11) -> np.ndarray:
    """Complex matrices ``(..., 2, 2)`` with entries ``((m00, m01), (m10, m11))``, each given as parts ``(re, im)``.

    :func:`_entries` and :func:`_split` in reverse, with no complex arithmetic: the eight parts are laid out
    as the floats of the matrix, one matrix from Python floats and a stack from parts that broadcast.
    """
    parts = (*m00, *m01, *m10, *m11)
    parts = np.stack(_ops(*parts).broadcast(*parts), axis=-1)
    return parts.view(complex).reshape(parts.shape[:-1] + (2, 2))


def _read_only(m: np.ndarray) -> np.ndarray:
    """``m``, made read-only in place: an array that a value lays out from its parts when first read."""
    m.setflags(write=False)
    return m


def _split(z):
    """``(z.real, z.imag)``: a complex number or array as the pair of parts that the kernels take."""
    return z.real, z.imag


def _times_conj(z, w):
    """Parts ``(re, im)`` of ``z * conj(w)`` from the parts of ``z`` and ``w``, for floats or arrays alike."""
    (zr, zi), (wr, wi) = z, w
    return zr * wr + zi * wi, zi * wr - zr * wi


def _times(z, w):
    """Parts ``(re, im)`` of ``z * w`` from the parts of ``z`` and ``w``: Python's complex product, term for term."""
    (zr, zi), (wr, wi) = z, w
    return zr * wr - zi * wi, zr * wi + zi * wr


def _projector(z0, z1):
    """Parts of the Hermitian ``z z^dagger`` of the vector ``z = (z0, z1)``, given as parts."""
    (r0, i0), (r1, i1) = z0, z1
    return r0 * r0 + i0 * i0, r1 * r1 + i1 * i1, *_times_conj(z0, z1)


_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two halves of 26 bits


def _two_product(a, b):
    """``(p, e)`` with ``p = fl(a b)`` and ``p + e = a b`` exactly (Dekker, Numer. Math. 18, 224, 1971).

    Exact while nothing underflows; past ``|a|`` or ``|b|`` of about 2**996 the split overflows and ``e`` is NaN.
    """
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dot(*pairs):
    """``sum(a b for a, b in pairs)`` as if in twice the working precision, then rounded.

    Ogita, Rump and Oishi's Dot2 (SIAM J. Sci. Comput. 26, 1955, 2005):
    every product and partial sum carries its exact rounding error, from
    ``+ - *`` alone, so the result does not depend on fused multiply-adds.
    """
    s, c = _two_product(*pairs[0])
    for a, b in pairs[1:]:
        p, q = _two_product(a, b)
        t = s + p
        z = t - s
        c = c + (q + ((s - (t - z)) + (p - z)))
        s = t
    return s + c


def _trace(h, k):
    """``tr(h k)`` of Hermitian parts, which is real: ``a_h a_k + d_h d_k + 2 (x_h x_k + y_h y_k)``, by :func:`_dot`.

    A trace against a state is a mean or a probability; :func:`_dot` keeps it
    within about half an ulp where a plain sum loses up to two.
    """
    a, d, x, y = h
    p, s, u, v = k
    return _dot((a, p), (d, s), (2.0 * x, u), (2.0 * y, v))


def _hypot(x, y):
    """Modulus ``|x + i y|`` of finite parts, floats or arrays alike, with ``math.hypot``'s bits on a normal result.

    CPython's method (see also Borges, arXiv:1904.09481): ``h = sqrt(x*x + y*y)`` plus ``r / 2h``, with the exact
    residual ``r = x*x + y*y - h*h`` from :func:`_dot`. Parts outside [2**-300, 2**500] are first scaled by 2**600
    or 2**-600, exactly, so that no square or split overflows and no residual underflows: a tiny coherence keeps
    its digits. A subnormal result rounds twice, to within one ulp.
    """
    ops = _ops(x, y)
    m = ops.maximum(abs(x), abs(y))
    s = ops.where(m > 2.0**500, 2.0**-600, ops.where(m < 2.0**-300, 2.0**600, 1.0))
    x, y = x * s, y * s
    h = ops.sqrt(x * x + y * y)
    return (h + _dot((x, x), (y, y), (-h, h)) / (2.0 * h + (h == 0.0))) / s  # r = 0 where h = 0: no 0 / 0


def _eigenvalues(a, d, x, y):
    """Eigenvalues ``mean +- half_gap`` of Hermitian parts, with ``half_gap = hypot((a - d) / 2, |x + i y|)``."""
    mean = 0.5 * (a + d)
    half_gap = _hypot(0.5 * (a - d), _hypot(x, y))
    return mean + half_gap, mean - half_gap


def trace_norm(m: np.ndarray):
    """Trace norm (sum of absolute eigenvalues) of a Hermitian 2x2 matrix, or of each in a stack.

    ``m`` has shape ``(..., 2, 2)``; every matrix must pass
    :func:`assert_hermitian`, whose bound of ``sys.float_info.max / 8`` on
    every entry part keeps every intermediate and the result finite. Returns
    a float for one matrix and an array of the stack shape otherwise, from
    the :func:`_eigenvalues` of the parts of the upper triangle.
    """
    big, small = _eigenvalues(*_parts(assert_hermitian(m)))
    return abs(big) + abs(small)
