#!/usr/bin/env python3
"""Scan the one-parameter family of bases complementary to a reference one.

For a fixed state, sweep the family phase and print how predictability and
visibility trade against each other while their squared sum stays pinned.
Picks out the proper member (all coherence becomes predictability) and the
erasure member (none of it does), then verifies the closed su(2) algebra of
the reference observable with a proper pair.
"""

import math

import numpy as np

from qudual import (
    REFERENCE,
    complementary_observable,
    family_duality,
    predictability,
    pure_state,
    visibility,
)


def main():
    rho = pure_state(0.8, theta=0.6)
    p, v = predictability(rho), visibility(rho)
    base = p * p + v * v
    print(f"state: w+ = {rho.w_plus}, theta = {rho.theta}")
    print(f"invariant P_B^2 + V_B^2 = {base:.12f} for every family member")
    print()

    print(" varrho     P_B       V_B     P_B^2+V_B^2")
    phases = np.linspace(0.0, math.pi, 13)
    for varrho, p_b, v_b in zip(phases, *family_duality(rho, phases)):
        mark = ""
        if abs(varrho - rho.theta) < 1e-9:
            mark = "  <- proper member (varrho = theta)"
        if abs(varrho - rho.theta - math.pi / 2.0) < 1e-9:
            mark = "  <- erasure member (varrho = theta + pi/2)"
        print(f"  {varrho:5.3f}  {p_b:8.5f}  {v_b:8.5f}   {p_b**2 + v_b**2:.9f}{mark}")
    print()

    b_obs = complementary_observable(rho.theta)
    a_hat, b_hat = REFERENCE.matrix, b_obs.matrix
    c_hat = complementary_observable(rho.theta + math.pi / 2.0).matrix  # the quarter-turn partner
    comm = a_hat @ b_hat - b_hat @ a_hat
    print("closing the algebra with the proper member:")
    print(f"  B eigenvalues          {np.linalg.eigvalsh(b_obs.matrix).round(12)}")
    print(f"  [A, B] - i C           max |.| = {np.abs(comm - 1j * c_hat).max():.2e}")
    print("  the commutator of A with any member is i times the quarter-turn member")


if __name__ == "__main__":
    main()
