"""One state on Python floats has the bits of its element in a stack, signed zeros included.

The one-state paths of the family basis, the entangled amplitudes and the
duality kernels evaluate their stacked expressions on Python floats; here
each of them meets its stack element on random inputs and at the ends of
every range, where a zero part may carry either sign.
"""

import itertools
import math

import numpy as np

from qudual.duality import duality_arrays, family_arrays
from qudual.linalg import assert_unitary
from qudual.simultaneous import _amplitudes, meter_projectors
from qudual.states import TWO_PI, _member_basis, complementary_observable

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


def grid(*axes):
    """The edge grid of ``axes`` (each a list whose first five entries are edges), then the random rows, zipped."""
    edges = list(itertools.product(*(axis[:5] for axis in axes)))
    return edges + list(zip(*(axis[5:] for axis in axes)))


def test_member_basis_of_one_phase_has_the_bits_of_its_stack_element():
    stack = _member_basis(np.array(PHASES))
    for i, varrho in enumerate(PHASES):
        assert bits(_member_basis(varrho)) == bits(stack[i]), varrho


def test_amplitudes_of_one_state_have_the_bits_of_their_stack_element():
    rows = grid(W, PHASES, C)
    stack = _amplitudes(*(np.array(axis) for axis in zip(*rows)))
    for i, (w, theta, c) in enumerate(rows):
        assert bits(_amplitudes(w, theta, c)) == bits(stack[i]), (w, theta, c)


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
