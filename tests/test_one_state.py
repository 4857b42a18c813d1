"""One state on Python floats has the bits of its element in a stack, signed zeros included.

The one-state paths of the state parts, the family basis, the entangled
amplitudes and the duality kernels evaluate their stacked expressions on
Python floats; here each of them meets its stack element on random inputs
and at the ends of every range, where a zero part may carry either sign.
States, observables and entangled states keep those parts as Python floats
and lay out their arrays from them, in the layout checked here. The one-state
public functions and commands read nothing of NumPy on the way.
"""

import itertools
import math

import numpy as np
import pytest

from qudual.cli import main
from qudual.duality import duality_arrays, family_arrays, predictability, visibility
from qudual.linalg import assert_unitary
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
    _density_matrix,
    _density_parts,
    _member_basis,
    _pure_parts,
    _spectral_parts,
    complementary_matrices,
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
    stack, matrices = _density_parts(w, rho12, theta), _density_matrix(w, rho12, theta)
    off = rho12 * np.exp(-1j * theta)  # NumPy's complex product, which the parts reproduce term for term
    for i, rho in enumerate(states):
        assert floats(rho._parts)
        assert bits(rho._parts) == bits(at(stack, i)) == bits((w[i], 1.0 - w[i], off[i].real, off[i].imag)), rho
        assert bits(rho.matrix) == bits(matrices[i]), rho


def test_family_member_columns_and_parts_have_the_bits_of_their_stack_element():
    wrapped = np.remainder(np.array(PHASES), TWO_PI)
    columns = _member_basis(wrapped)
    parts = _spectral_parts(columns, GAUGE, -GAUGE)
    matrices = complementary_matrices(wrapped)
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


def test_duality_of_one_state_has_the_bits_of_its_stack_element():
    rows = _states()
    stack = duality_arrays(*(np.array(axis) for axis in zip(*rows)))
    for i, (w, rho12) in enumerate(rows):
        alone = duality_arrays(w, rho12)
        assert all(isinstance(x, float) for x in alone)
        assert bits(alone) == bits([x[i] for x in stack]), (w, rho12)


def test_family_of_one_state_has_the_bits_of_its_stack_element():
    states = _states()
    rows = [(*states[k % len(states)], theta, varrho) for k, (theta, varrho) in enumerate(grid(PHASES, PHASES))]
    stack = family_arrays(*(np.array(axis) for axis in zip(*rows)))
    for i, row in enumerate(rows):
        alone = family_arrays(*row)
        assert all(isinstance(x, float) for x in alone)
        assert bits(alone) == bits([x[i] for x in stack]), row


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
        "duality_arrays": lambda: duality_arrays(x(0.7), x(0.3)),
        "family_arrays": lambda: family_arrays(x(0.7), x(0.3), x(1.1), x(0.4)),
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
