"""One state on Python floats has the bits of its element in a stack, signed zeros included.

The one-state paths of the state parts, the family basis, the entangled
amplitudes and the duality kernels evaluate their stacked expressions on
Python floats; here each of them meets its stack element on random inputs
and at the ends of every range, where a zero part may carry either sign.
States, observables and entangled states keep those parts as Python floats
and lay out their arrays from them, in the layout checked here. The one-state
public functions and commands read nothing of NumPy on the way. All of it
rests on the elementary functions of the two tables of ``linalg._ops``,
which agree bit for bit on a wide seeded sample checked here too.
"""

import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qudual.cli import main
from qudual.duality import family_duality, fringe_probability, predictability, visibility, visibility_oracle
from qudual.errors import ParameterError, QudualError
from qudual.linalg import _ARRAY_OPS, _FLOAT_OPS, assert_unitary
from qudual.montecarlo import sample_fringe, sample_sharp, sample_simultaneous
from qudual.simultaneous import (
    EntangledState,
    _amplitudes,
    distinguishability,
    entangled_visibility,
    estimate_a,
    estimate_b,
    meter_projectors,
    optimal_entanglement,
    simultaneous_product,
)
from qudual.states import (
    GAUGE,
    REFERENCE,
    TWO_PI,
    DensityMatrix,
    Observable,
    _density_parts,
    _member_basis,
    _pure_parts,
    _spectral_parts,
    complementary_observable,
    pure_state,
)
from qudual.uncertainty import intelligent_state, is_residual, mean_var, normalized_product_bounds, robertson

W_EDGES = [0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0]
C_EDGES = [0.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]
PHASE_EDGES = [0.0, math.pi / 2.0, math.pi, 1.5 * math.pi, math.nextafter(TWO_PI, 0.0)]

_RNG = np.random.default_rng(25)
W = W_EDGES + _RNG.uniform(0.0, 1.0, 200).tolist()
C = C_EDGES + _RNG.uniform(0.0, 1.0, 200).tolist()
PHASES = PHASE_EDGES + _RNG.uniform(0.0, TWO_PI, 200).tolist()


def bits(x) -> list[int]:
    """The IEEE 754 bits of every float part of ``x``: equal bits are equal values with equal zero signs."""
    return np.atleast_1d(np.ascontiguousarray(x)).view(float).view(np.uint64).tolist()


def at(parts, i):
    """Element ``i`` of stacked ``parts`` nested in tuples; a float part is shared by every element."""
    if isinstance(parts, tuple):
        return tuple(at(part, i) for part in parts)
    return parts[i] if isinstance(parts, np.ndarray) else parts


def floats(parts) -> bool:
    """Whether every part of ``parts`` nested in tuples is a Python float: one value holds no NumPy number."""
    return all(map(floats, parts)) if isinstance(parts, tuple) else type(parts) is float


def grid(*axes):
    """The edge grid of ``axes`` (each a list whose first five entries are edges), then the random rows, zipped."""
    edges = list(itertools.product(*(axis[:5] for axis in axes)))
    return edges + list(zip(*(axis[5:] for axis in axes)))


# Arguments of the elementary functions: every edge below, then a seeded sample of phases, of magnitudes over the
# whole double range, either sign, and of subnormals.
_OPS_EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e-155, 0.25, 0.5, 1.0 - 2.0**-53, 1.0, *PHASE_EDGES, 1e308,
              1.7976931348623157e308]
_OPS_RNG = np.random.default_rng(2024)
OPS_ARGUMENTS = np.concatenate([
    np.array(_OPS_EDGES + [-x for x in _OPS_EDGES]),
    _OPS_RNG.uniform(-4.0 * TWO_PI, 4.0 * TWO_PI, 40000),
    _OPS_RNG.choice([-1.0, 1.0], 40000) * 10.0 ** _OPS_RNG.uniform(-300.0, 300.0, 40000),
    _OPS_RNG.choice([-1.0, 1.0], 20000) * _OPS_RNG.uniform(0.0, 2.0**-1022, 20000),
])


# Each elementary function as the kernels call it: exp of 1j x, and sqrt of a magnitude; clip onto ranges whose ends
# are zeros of either sign; a quotient past the doubles for |x| above about 5e8, and whether that is finite.
OPS_CALLS = {
    "exp": lambda ops, x: ops.exp(1j * x),
    "sqrt": lambda ops, x: ops.sqrt(abs(x)),
    "sin": lambda ops, x: ops.sin(x),
    "cos": lambda ops, x: ops.cos(x),
    "clip": lambda ops, x: ops.clip(x, 0.0, 1.0),
    "clip-signed-zeros": lambda ops, x: ops.clip(x, -0.0, 0.0),
    "clip-to-a-point": lambda ops, x: ops.clip(x, 0.5, 0.5),
    "divide": lambda ops, x: ops.divide(x, 3e-300),
    "isfinite": lambda ops, x: ops.isfinite(ops.divide(x, 3e-300)) + 0.0,
}


@pytest.mark.parametrize("name", list(OPS_CALLS))
def test_the_float_and_array_tables_agree_bit_for_bit(name):
    # Every promise that a stack element has the bits of its value alone rests on this: one value takes cmath's or
    # math's function, a stack NumPy's.
    call = OPS_CALLS[name]
    assert bits([call(_FLOAT_OPS, x) for x in OPS_ARGUMENTS.tolist()]) == bits(call(_ARRAY_OPS, OPS_ARGUMENTS))


@pytest.mark.parametrize("x", [math.nan, -math.inf, -1.7976931348623157e308, -5e-324, -0.0, 0.0])
def test_the_tables_require_raises_the_error_of_one_value_at_its_element_in_a_stack(x):
    # a rule that x breaks, with a partner value; a stack breaks it at index 2 and 4, and a stack of partners alone
    def raised(ops, value, partner) -> tuple:
        with pytest.raises(ParameterError) as error:
            ops.require(value > 0.0, lambda v, p: ParameterError(f"x = {v!r} with p = {p!r}"), value, partner)
        return type(error.value), str(error.value)

    alone = raised(_FLOAT_OPS, x, 0.25)
    assert alone == (ParameterError, f"x = {x!r} with p = 0.25")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert raised(_ARRAY_OPS, np.array([0.5, 1.0, x, 2.0, x]), np.array([0.0, 0.5, 0.25, 0.75, 1.0])) == alone
        assert raised(_ARRAY_OPS, np.array([0.5, 1.0, x, 2.0, x]), 0.25) == alone
        assert raised(_ARRAY_OPS, x, np.array([0.25, 0.5])) == alone
    _FLOAT_OPS.require(0.5 > 0.0, None, 0.5)  # a rule that holds raises nothing
    _ARRAY_OPS.require(np.array([0.5, 1.0]) > 0.0, None)


def test_member_basis_of_one_phase_has_the_bits_of_its_stack_element():
    stack = _member_basis(np.array(PHASES))
    for i, varrho in enumerate(PHASES):
        alone = _member_basis(varrho)
        assert floats(alone)
        assert bits(alone) == bits(at(stack, i)), varrho


def test_amplitudes_of_one_state_have_the_bits_of_their_stack_element():
    rows = grid(W, PHASES, C)
    stack = _amplitudes(*(np.array(axis) for axis in zip(*rows)))
    for i, (w, theta, c) in enumerate(rows):
        alone = _amplitudes(w, theta, c)
        assert floats(alone)
        assert bits(alone) == bits(at(stack, i)), (w, theta, c)


def test_pure_parts_of_one_state_have_the_bits_of_their_stack_element():
    rows = grid(W, PHASES)
    stack = _pure_parts(*(np.array(axis) for axis in zip(*rows)))
    for i, (w, theta) in enumerate(rows):
        alone = _pure_parts(w, theta)
        assert floats(alone)
        assert bits(alone) == bits(at(stack, i)), (w, theta)


def test_state_vector_keeps_the_complex_product_layout():
    # the amplitudes as NumPy's complex product forms them, zero signs included, on every pure state
    for row in grid(W, PHASES):
        rho = pure_state(*row)
        w, theta = rho.w_plus, rho.theta  # theta is wrapped, and 0 without coherence
        product = np.stack([np.sqrt(w) + 0j, np.exp(1j * np.asarray(theta)) * np.sqrt(1.0 - w)], axis=-1)
        vector = rho.state_vector()
        assert vector.shape == (2,) and vector.dtype == complex
        assert bits(vector) == bits(product), (w, theta)


def _density_states():
    """Checked states: no coherence, half and all of the positivity bound at every edge population and phase."""
    edges = itertools.product(W_EDGES, PHASE_EDGES, (0.0, 0.5, 1.0))
    rows = list(edges) + list(zip(W[5:], PHASES[5:], _RNG.uniform(0.0, 1.0, 200).tolist()))
    return [DensityMatrix(w, u * math.sqrt(w * (1.0 - w)), theta) for w, theta, u in rows]


def test_state_parts_have_the_bits_of_their_stack_element_and_of_numpy():
    states = _density_states()
    w, rho12, theta = (np.array(axis) for axis in zip(*((rho.w_plus, rho.rho12, rho.theta) for rho in states)))
    stack, matrices = _density_parts(w, rho12, theta), DensityMatrix(w, rho12, theta).matrix
    off = rho12 * np.exp(-1j * theta)  # NumPy's complex product, which the parts reproduce term for term
    for i, rho in enumerate(states):
        assert floats(rho._parts)
        assert bits(rho._parts) == bits(at(stack, i)) == bits((w[i], 1.0 - w[i], off[i].real, off[i].imag)), rho
        assert bits(rho.matrix) == bits(matrices[i]), rho


def test_family_member_columns_and_parts_have_the_bits_of_their_stack_element():
    wrapped = np.remainder(np.array(PHASES), TWO_PI)
    columns = _member_basis(wrapped)
    parts = _spectral_parts(columns, GAUGE, -GAUGE)
    matrices = complementary_observable(wrapped).matrix
    for i, varrho in enumerate(PHASES):
        member = complementary_observable(varrho)
        assert floats(member._columns) and floats(member._parts)
        assert bits(member._columns) == bits(at(columns, i)), varrho
        assert bits(member._parts) == bits(at(parts, i)), varrho
        assert bits(member.matrix) == bits(matrices[i]), varrho


def _readouts():
    return [meter_projectors(c) for c in C if 0.0 < c < 1.0]  # the readout's domain


def test_library_built_observables_have_the_parts_of_a_checked_one():
    # a basis read once by the checked constructor gives the columns and parts the library built
    for obs in [complementary_observable(varrho) for varrho in PHASES] + _readouts():
        checked = Observable(obs.val_plus, obs.val_minus, obs.basis)
        assert floats(checked._columns) and floats(obs._columns)
        assert bits(checked._columns) == bits(obs._columns)
        assert bits(checked._parts) == bits(obs._parts)


def test_entangled_state_rows_have_the_bits_of_their_stack_element():
    rows = grid(W, PHASES, C)
    w, theta, c = (np.array(axis) for axis in zip(*rows))
    stack = _amplitudes(w, np.remainder(theta, TWO_PI), c)
    for i, row in enumerate(rows):
        psi = EntangledState(*row)
        assert floats(psi._rows)
        assert bits(psi._rows) == bits(at(stack, i)), row


def _layout(entries) -> np.ndarray:
    """The complex 2x2 of ``entries``, rows of ``(re, im)`` parts, each entry made by ``complex(re, im)``."""
    return np.array([[complex(*z) for z in row] for row in entries])


def _assert_laid_out(array, entries):
    assert array.shape == (2, 2) and array.dtype == complex and not array.flags.writeable
    assert bits(array) == bits(_layout(entries))


def test_arrays_are_laid_out_from_the_parts_when_first_read():
    for rho in _density_states():
        assert "matrix" not in vars(rho)
        a, d, x, y = rho._parts
        _assert_laid_out(rho.matrix, (((a, 0.0), (x, y)), ((x, -y), (d, 0.0))))
    for obs in [complementary_observable(varrho) for varrho in PHASES] + _readouts():
        assert "basis" not in vars(obs) and "matrix" not in vars(obs)
        (u0, u1), (w0, w1) = obs._columns
        _assert_laid_out(obs.basis, ((u0, w0), (u1, w1)))
        assert obs.basis is obs.basis and bits(obs.vec_plus) == bits(obs.basis[:, 0])
        a, d, x, y = obs._parts
        _assert_laid_out(obs.matrix, (((a, 0.0), (x, y)), ((x, -y), (d, 0.0))))
    for row in grid(W, PHASES, C):
        psi = EntangledState(*row)
        assert "amplitudes" not in vars(psi)
        _assert_laid_out(psi.amplitudes, psi._rows)
        assert psi.amplitudes is psi.amplitudes


def test_checked_observables_hold_what_library_built_ones_hold():
    # Observable(...) keeps its basis only as the parts of its columns, and lays it out from them on first read
    for varrho in PHASES:
        basis = complementary_observable(varrho).basis
        checked, built = Observable(GAUGE, -GAUGE, basis), complementary_observable(varrho)
        assert vars(checked).keys() == vars(built).keys() == {"val_plus", "val_minus", "_columns"}
        _assert_laid_out(checked.basis, zip(*checked._columns))
        assert bits(checked.basis) == bits(built.basis) == bits(basis), varrho
        assert vars(checked).keys() == vars(built).keys() == {"val_plus", "val_minus", "_columns", "basis"}


def _states():
    """``(w_plus, rho12)`` rows: no coherence, half and all of the positivity bound at every population."""
    rows = grid(W, [0.0, 0.5, 1.0, 1.0, 1.0] + _RNG.uniform(0.0, 1.0, 200).tolist())
    return [(w, u * math.sqrt(w * (1.0 - w))) for w, u in rows]


def _duality(rho):
    p, v = predictability(rho), visibility(rho)
    return p, v, p * p + v * v


def test_duality_of_one_state_has_the_bits_of_its_stack_element():
    rows = _states()
    stack = _duality(DensityMatrix(*(np.array(axis) for axis in zip(*rows))))
    for i, (w, rho12) in enumerate(rows):
        alone = _duality(DensityMatrix(w, rho12))
        assert all(isinstance(x, float) for x in alone)
        assert bits(alone) == bits([x[i] for x in stack]), (w, rho12)


def test_family_of_one_state_has_the_bits_of_its_stack_element():
    states = _states()
    rows = [(*states[k % len(states)], theta, varrho) for k, (theta, varrho) in enumerate(grid(PHASES, PHASES))]
    w, rho12, theta, varrho = (np.array(axis) for axis in zip(*rows))
    stack = family_duality(DensityMatrix(w, rho12, theta), varrho)
    for i, (*state, phase) in enumerate(rows):
        alone = family_duality(DensityMatrix(*state), phase)
        assert all(isinstance(x, float) for x in alone)
        assert bits(alone) == bits([x[i] for x in stack]), rows[i]


# The edges of the stacked public forms: populations, a coherence of none or all of its bound, signed zero and top
# phases, and overlaps at 0, tiny and 1; every combination, then random rows.
EDGE_ROWS = list(itertools.product(W_EDGES, [0.0, 1.0], [0.0, -0.0, PHASE_EDGES[-1]], [0.0, -0.0, PHASE_EDGES[-1]],
                                   [0.0, 1e-300, 1.0]))
EDGE_ROWS += list(zip(W[5:], _RNG.uniform(0.0, 1.0, 200).tolist(), PHASES[5:], _RNG.uniform(-9.0, 9.0, 200).tolist(),
                      C[5:]))


def _public_forms(rho, varrho, psi, pure, lam) -> tuple:
    """Every public closed form that takes a stack, on a state, a phase, an entangled state, a pure state and a lam."""
    member = complementary_observable(varrho)
    return (
        rho._parts, rho.purity, predictability(rho), visibility(rho), family_duality(rho, varrho),
        tuple(vars(robertson(rho, REFERENCE, member)).values()), member._columns, member._parts,
        distinguishability(psi), entangled_visibility(psi), is_residual(pure, lam, REFERENCE, member),
    )


# Populations and overlaps at the ends of [0, 1], around 1/2, and where c**2 underflows (below about 1.5e-154) or
# 16 c**2 (1 - c**2) is subnormal, so that the product overflows.
POPULATION_EDGES = [0.0, 5e-324, 1e-300, 1e-155, 3.7e-155, 0.25, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53,
                    1.0]


def _population_forms(w, c, theta) -> tuple:
    """The closed forms of a population ``w``, an overlap ``c`` and a phase: every one takes a value or a stack."""
    bounds, overlap = normalized_product_bounds(w), optimal_entanglement(w)
    return pure_state(w, theta)._parts, bounds, overlap, simultaneous_product(w, c)


def _hexes(parts) -> list[str]:
    """``float.hex`` of every float of ``parts`` nested in tuples: the bits, zero signs included."""
    return [h for part in parts for h in _hexes(part)] if isinstance(parts, tuple) else [float.hex(float(parts))]


def test_every_stacked_public_form_has_the_bits_of_each_state_alone():
    w, u, theta, varrho, c = (np.array(axis) for axis in zip(*EDGE_ROWS))
    rho12, bound = u * np.sqrt(w * (1.0 - w)), np.sqrt(w * (1.0 - w))
    lam = (w - 0.5) * 3.0 + 1j * (c - u)
    stack = _public_forms(
        DensityMatrix(w, rho12, theta), varrho, EntangledState(w, theta, c), DensityMatrix(w, bound, theta), lam
    )
    rows = zip(*(x.tolist() for x in (w, rho12, bound, theta, varrho, c, lam)))
    for i, (w_i, r_i, b_i, t_i, v_i, c_i, l_i) in enumerate(rows):
        one, pure = DensityMatrix(w_i, r_i, t_i), DensityMatrix(w_i, b_i, t_i)
        alone = _public_forms(one, v_i, EntangledState(w_i, t_i, c_i), pure, l_i)
        assert floats(alone)
        assert _hexes(alone) == _hexes(at(stack, i)), EDGE_ROWS[i]

    # The readouts on the rows of their domains: 0 < c < 1, and for estimate_b a 1 / c within its bound, which
    # c = 1e-300 is past.
    readouts = [(lambda psi, _: estimate_a(psi), (0.0 < c) & (c < 1.0)), (estimate_b, (1e-300 < c) & (c < 1.0))]
    for readout, rows in readouts:
        stack = readout(EntangledState(w[rows], theta[rows], c[rows]), varrho[rows])
        for i, (w_i, t_i, c_i, v_i) in enumerate(zip(*(x[rows].tolist() for x in (w, theta, c, varrho)))):
            alone = readout(EntangledState(w_i, t_i, c_i), v_i)
            assert floats(alone)
            assert _hexes(alone) == _hexes(at(stack, i)), (w_i, t_i, c_i, v_i)

    # The closed forms of populations and overlaps, on every pair of their edges and on random rows.
    rows = list(itertools.product(POPULATION_EDGES, POPULATION_EDGES, PHASE_EDGES[::2]))
    rows += list(zip(W[5:], C[5:], PHASES[5:]))
    stack = _population_forms(*(np.array(axis) for axis in zip(*rows)))
    for i, row in enumerate(rows):
        alone = _population_forms(*row)
        assert floats(alone)
        assert _hexes(alone) == _hexes(at(stack, i)), row


_STACK = DensityMatrix([0.3, 0.5], [0.1, 0.5], [1.0, 2.0])
_ENTANGLED = EntangledState([0.3, 0.5], 0.2, [0.4, 0.6])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: meter_projectors(np.array([0.4, 0.6])), "meter_projectors"),
        (lambda: meter_projectors(np.array([0.4])), "meter_projectors"),
        (lambda: _STACK.state_vector(), "state_vector"),
        (lambda: _STACK == _STACK, "=="),
        (lambda: _STACK == DensityMatrix(0.3, 0.1, 1.0), "=="),
        (lambda: sample_sharp(_STACK, REFERENCE, 10, 1), "sample_sharp"),
        (lambda: sample_fringe(DensityMatrix(np.full(16, 0.5), 0.5), 10, 1), "sample_fringe"),
        (lambda: sample_simultaneous(_ENTANGLED, 0.3, 10, 1), "sample_simultaneous"),
    ],
    ids=[
        "meter_projectors", "meter_projectors-1", "state_vector", "eq", "eq-one",
        "sample_sharp", "sample_fringe", "sample_simultaneous",
    ],
)
def test_one_value_functions_refuse_a_stack_with_a_parameter_error(call, name):
    # the message names the call that was made, not one that it makes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=rf"^{re.escape(name)} .*, not a stack of shape \((1|2|16),\)$"):
            call()


# One-value arguments that a stack or a list reaches before any _one_value guard: check_scalar reads each as one
# value, and so refuses a stack as not a real number.
@pytest.mark.parametrize(
    "call",
    [
        lambda: Observable(np.array([1.0, 2.0]), -1.0),
        lambda: intelligent_state("IS1", np.array([0.2, 0.3]), 0.1),
        lambda: meter_projectors([0.3, 0.4]),
        lambda: visibility_oracle(pure_state(0.5), grid_n=np.array([8, 16])),
        lambda: sample_sharp(pure_state(0.5), REFERENCE, n=np.array([10, 20]), seed=1),
    ],
    ids=["Observable", "intelligent_state", "meter_projectors-list", "visibility_oracle-grid_n", "sample_sharp-n"],
)
def test_one_value_arguments_refuse_a_stack_with_a_parameter_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r" must be a real number$"):
            call()


# A stack of readouts with one element outside its domain, at index 2 of 4, and the one-state call on that element.
BAD_READOUTS = {
    "estimate_a-c=0": (lambda c, v: estimate_a(EntangledState(0.3, 0.2, c)), 0.0, 0.1),
    "estimate_a-c=1": (lambda c, v: estimate_a(EntangledState(0.3, 0.2, c)), 1.0, 0.1),
    "estimate_b-c=0": (lambda c, v: estimate_b(EntangledState(0.3, 0.2, c), v), 0.0, 0.1),
    "estimate_b-c=5e-324": (lambda c, v: estimate_b(EntangledState(0.3, 0.2, c), v), 5e-324, 0.1),
    "estimate_b-varrho=nan": (lambda c, v: estimate_b(EntangledState(0.3, 0.2, c), v), 0.5, math.nan),
}


def _stacked_error_and_its_element_alone(call, bad_x, bad_y) -> tuple:
    """``(type, message)`` of the errors of ``call`` on ``(bad_x, bad_y)`` alone and on stacks holding them at index 2.

    The stacks have four elements each, and the stacked call runs with warnings as errors.
    """
    with pytest.raises(QudualError) as alone:
        call(bad_x, bad_y)
    x, y = np.array([0.4, 0.6, bad_x, 0.7]), np.array([0.1, 0.2, bad_y, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(type(alone.value)) as stacked:
            call(x, y)
    return [(type(error.value), str(error.value)) for error in (alone, stacked)]


@pytest.mark.parametrize("entry", list(BAD_READOUTS))
def test_a_stacked_readout_raises_the_error_of_its_bad_element_alone(entry):
    alone, stacked = _stacked_error_and_its_element_alone(*BAD_READOUTS[entry])
    assert stacked == alone


# A stack of populations, phases or overlaps with one value out of range, at index 2 of 4, and the one-value call.
BAD_VALUES = {
    "pure_state-w=1.5": (pure_state, 1.5, 0.1),
    "pure_state-theta=nan": (pure_state, 0.5, math.nan),
    "normalized_product_bounds-w=1.5": (lambda w, _: normalized_product_bounds(w), 1.5, 0.1),
    "optimal_entanglement-w=-1": (lambda w, _: optimal_entanglement(w), -1.0, 0.1),
    "simultaneous_product-w=1.5": (simultaneous_product, 1.5, 0.1),
    "simultaneous_product-c=nan": (simultaneous_product, 0.3, math.nan),
}


@pytest.mark.parametrize("entry", list(BAD_VALUES))
def test_a_stacked_closed_form_raises_the_error_of_its_bad_value_alone(entry):
    alone, stacked = _stacked_error_and_its_element_alone(*BAD_VALUES[entry])
    assert stacked == alone and alone[0] is ParameterError


# A stack with two bad elements raises the first rule that any element breaks, at the first element that breaks it, with
# that element's one-value error: the rules run in the order that one value takes them.
TWO_BAD = {
    # rho12 past its bound at index 3 comes before a NaN theta at index 1
    "DensityMatrix": (lambda w, r, t: DensityMatrix(w, r, t), [0.3] * 5, [0.1, 0.1, 0.1, 0.5, 0.1],
                      [0.2, math.nan, 0.2, 0.2, 0.2], 3, 1),
    # c = 0 at index 2 comes before a NaN varrho at index 0
    "estimate_b": (lambda w, c, v: estimate_b(EntangledState(w, 0.2, c), v), [0.3] * 4, [0.4, 0.5, 0.0, 0.6],
                   [math.nan, 0.1, 0.1, 0.1], 2, 0),
}


@pytest.mark.parametrize("entry", list(TWO_BAD))
def test_a_stack_with_two_bad_elements_raises_the_first_rule_at_its_first_element(entry):
    call, *stacks, first, other = TWO_BAD[entry]
    errors = []
    for i in (first, other):
        with pytest.raises(QudualError) as alone:
            call(*(stack[i] for stack in stacks))
        errors.append((type(alone.value), str(alone.value)))
    assert errors[0] != errors[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QudualError) as stacked:
            call(*map(np.array, stacks))
    assert (type(stacked.value), str(stacked.value)) == errors[0]


# Stacks whose shapes do not broadcast, (2,) against (3,), and the shapes that each call's error names. Every value
# is valid, so no rule of one value fails first.
UNBROADCAST = {
    "DensityMatrix": (lambda: DensityMatrix(np.full(2, 0.5), np.full(3, 0.1), 0.0), "(2,), (3,)"),
    "EntangledState": (lambda: EntangledState(np.full(2, 0.5), 0.0, np.full(3, 0.5)), "(2,), (), (3,)"),
    "simultaneous_product": (lambda: simultaneous_product(np.full(2, 0.5), np.full(3, 0.5)), "(2,), (3,)"),
    "estimate_b": (lambda: estimate_b(EntangledState(np.full(2, 0.5), 0.0, 0.5), np.zeros(3)), "(2,), (3,)"),
    "family_duality": (lambda: family_duality(pure_state(np.full(2, 0.3)), np.zeros(3)), "(2,), (3,)"),
    "mean_var": (lambda: mean_var(pure_state(np.full(2, 0.3)), complementary_observable(np.zeros(3))), "(2,), (3,)"),
    "robertson": (
        lambda: robertson(pure_state(np.full(2, 0.3)), REFERENCE, complementary_observable(np.zeros(3))),
        "(2,), (), (3,)",
    ),
    "is_residual": (
        lambda: is_residual(pure_state(np.full(2, 0.3)), np.full(3, 0.5), REFERENCE, complementary_observable(0.3)),
        "(2,), (3,), (), ()",
    ),
    "fringe_probability": (lambda: fringe_probability(pure_state(np.full(2, 0.3)), np.zeros(3), 0.0), "(2,), (3,), ()"),
    "fringe_probability, one state": (
        lambda: fringe_probability(pure_state(0.3), np.zeros(2), np.zeros(3)), "(), (2,), (3,)"
    ),
}


@pytest.mark.parametrize("entry", list(UNBROADCAST))
def test_stacks_that_do_not_broadcast_raise_a_parameter_error_naming_their_shapes(entry):
    call, shapes = UNBROADCAST[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=re.escape(f"stacked values of shapes {shapes} do not broadcast")):
            call()


# Real scalars that are neither an int nor a float, each with arguments that it holds exactly. Each is one value,
# which its constructor stores as Python floats: the fields and closed forms of the call on those floats, bit for bit.
REAL_SCALARS = [np.float32, np.int64, Fraction]


def _state_forms(rho):
    return (rho.w_plus, rho.rho12, rho.theta, rho.w_minus, rho.purity, rho._parts, predictability(rho),
            visibility(rho), family_duality(rho, 0.4))


def _entangled_forms(psi):
    forms = (psi.w_plus, psi.theta, psi.c, psi._rows, distinguishability(psi), entangled_visibility(psi))
    return forms + (estimate_a(psi), estimate_b(psi, 0.4)) if 0.0 < psi.c < 1.0 else forms


def _member_forms(obs):
    return obs.val_plus, obs.val_minus, obs._columns, obs._parts


# name: (constructor, its fields and closed forms, dyadic arguments, integer arguments)
CONSTRUCTORS = {
    "DensityMatrix": (DensityMatrix, _state_forms, (0.75, 0.25, 1.5), (1, 0, 3)),
    "EntangledState": (EntangledState, _entangled_forms, (0.75, 1.5, 0.5), (1, 2, 1)),
    "complementary_observable": (complementary_observable, _member_forms, (0.5,), (3,)),
}


@pytest.mark.parametrize("kind", REAL_SCALARS, ids=["float32", "int64", "Fraction"])
@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_real_scalars_make_one_value_of_python_floats(kind, name):
    build, forms, args, integers = CONSTRUCTORS[name]
    args = integers if kind is np.int64 else args
    alone = forms(build(*map(float, args)))
    # every argument of the kind, then each one alone among floats
    for mixed in [[kind(a) for a in args]] + [[kind(a) if j == k else float(a) for j, a in enumerate(args)]
                                              for k in range(len(args))]:
        value = forms(build(*mixed))
        assert floats(value), mixed
        assert _hexes(value) == _hexes(alone), mixed


def test_reference_is_built_with_the_bits_of_a_checked_observable():
    # REFERENCE does not check the identity basis it is built from; it has a checked observable's values all the same
    checked = Observable(GAUGE, -GAUGE)
    assert (REFERENCE.val_plus, REFERENCE.val_minus) == (checked.val_plus, checked.val_minus)
    assert floats(REFERENCE._columns) and floats(REFERENCE._parts)
    assert bits(REFERENCE._columns) == bits(checked._columns)
    assert bits(REFERENCE._parts) == bits(checked._parts)
    for name in ("basis", "matrix"):
        array = getattr(REFERENCE, name)
        assert bits(array) == bits(getattr(checked, name)) and not array.flags.writeable, name
    assert_unitary(REFERENCE.basis)


def test_family_members_built_without_a_check_pass_it():
    # complementary_observable does not check the basis it builds; the contract holds all the same
    for varrho in PHASES:
        basis = complementary_observable(varrho).basis
        assert_unitary(basis)
        assert not basis.flags.writeable


def test_meter_readouts_built_without_a_check_pass_it():
    for c in C:
        if 0.0 < c < 1.0:  # the readout's domain
            basis = meter_projectors(c).basis
            assert_unitary(basis)
            assert not basis.flags.writeable


def _one_state_calls(x):
    """Each one-state public function by name, as a call on inputs that ``x`` makes of Python floats."""
    rho, member = DensityMatrix(x(0.7), x(0.3), x(1.1)), complementary_observable(x(0.4))
    psi = EntangledState(x(0.9), x(0.3), x(0.6))
    return {
        "pure_state": lambda: pure_state(x(0.3), x(0.4)),
        "DensityMatrix": lambda: DensityMatrix(x(0.7), x(0.3), x(1.1)).purity,
        "complementary_observable": lambda: complementary_observable(x(0.4)),
        "predictability": lambda: predictability(rho),
        "visibility": lambda: visibility(rho),
        "DensityMatrix.__eq__": lambda: rho == DensityMatrix(x(0.7), x(0.3), x(1.1)),
        "family_duality": lambda: family_duality(rho, x(0.4)),
        "mean_var": lambda: mean_var(rho, member),
        "robertson": lambda: robertson(rho, REFERENCE, member),
        "normalized_product_bounds": lambda: normalized_product_bounds(x(0.3)),
        "intelligent_state": lambda: [intelligent_state(f, x(0.3), x(0.4), -1) for f in ("IS1", "IS2a", "IS2b")],
        "is_residual": lambda: is_residual(pure_state(x(0.3), x(0.5)), x(0.3) + 0.1j, REFERENCE, member),
        "EntangledState": lambda: EntangledState(x(0.9), x(0.3), x(0.6)),
        "distinguishability": lambda: distinguishability(psi),
        "entangled_visibility": lambda: entangled_visibility(psi),
        "meter_projectors": lambda: meter_projectors(x(0.6)),
        "estimate_a": lambda: estimate_a(psi),
        "estimate_b": lambda: estimate_b(psi, x(0.4)),
        "simultaneous_product": lambda: simultaneous_product(x(0.9), x(0.6)),
        "optimal_entanglement": lambda: optimal_entanglement(x(0.9)),
    }


@pytest.mark.parametrize("x", [float, np.float64], ids=["float", "float64"])
def test_one_state_functions_read_nothing_of_numpy(numpy_reads, x):
    # linalg._ops alone tells one state from a stack, and one state's table is cmath, math and builtins
    read = {}
    for name, call in _one_state_calls(x).items():
        numpy_reads.clear()
        call()
        read[name] = list(numpy_reads)
    assert read == {name: [] for name in read}


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--w-plus", "0.9", "--pure", "--theta", "0.3", "--c", "0.5"),
        ("compute", "--w-plus", "0.7", "--rho12", "0.3", "--theta", "1.1"),
    ],
    ids=["compute-pure-c", "compute-rho12"],
)
def test_one_state_commands_read_nothing_of_numpy(capsys, numpy_reads, argv):
    code = main(list(argv))
    assert code == 0, capsys.readouterr().err
    assert numpy_reads == []
