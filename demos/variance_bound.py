#!/usr/bin/env python3
"""Trace the variance-product bound and the states that saturate it.

Evaluates the commutator bound for a grid of states, then builds members of
the three intelligent-state families and confirms each one sits exactly on
the bound while solving the defining eigen-equation. Finishes with the sweep
of the normalized product range against the closed floor and ceiling curves.
"""

import math

import numpy as np

from qudual import (
    REFERENCE,
    DensityMatrix,
    complementary_observable,
    intelligent_state,
    is_residual,
    normalized_product_bounds,
    robertson,
)

VARRHO = 0.9
A = REFERENCE
B = complementary_observable(VARRHO)


def main():
    print("variance product vs. commutator bound, mixed states included")
    print(" w+     rho12    Var(A)Var(B)   bound        slack")
    rng = np.random.default_rng(5)
    for _ in range(6):
        w = rng.uniform(0.1, 0.9)
        rho12 = rng.uniform(0.0, 1.0) * math.sqrt(w * (1.0 - w))
        rho = DensityMatrix(w, rho12, theta=rng.uniform(0.0, 2.0 * math.pi))
        rep = robertson(rho, A, B)
        print(
            f"  {w:.3f}  {rho12:.4f}   {rep.lhs:.8f}   {rep.rhs:.8f}   {rep.slack:+.2e}"
        )
    print()

    print("intelligent states: slack collapses to zero, eigen-equation holds")
    print(" family  param   lambda                 slack      residual")
    cases = [
        ("IS1", 0.85),
        ("IS1", 0.30),
        ("IS2a", math.pi / 5.0),
        ("IS2a", math.pi / 2.0),
        ("IS2b", 0.85),
        ("IS2b", 0.30),
    ]
    for family, param in cases:
        st = intelligent_state(family, param, VARRHO)
        rep = robertson(st.state, A, B)
        res = is_residual(st.state, st.lam, A, B)
        print(
            f"  {family:5s}  {param:.3f}   {st.lam:+.6f}   {rep.slack:+.1e}   {res:.1e}"
        )
    print()

    print("range of the normalized product at fixed populations")
    print(" w+      floor (IS1 family)   ceiling (IS2b family)")
    for w in np.linspace(0.0, 0.5, 6):
        lo, hi = normalized_product_bounds(float(w))
        print(f"  {w:.2f}    {lo:.6f}             {hi:.6f}")
    print()
    print("floor equals P^2 V^2 / 16, ceiling equals w+ w- / 4; both families")
    print("above land exactly on their curve for every parameter value")


if __name__ == "__main__":
    main()
