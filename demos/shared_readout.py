#!/usr/bin/env python3
"""Split one pure state between a sharp record and a leftover fringe.

Couples the system to a meter with tunable overlap c, shows the
distinguishability/visibility trade-off, then measures both observables at
once: the population readout from the meter side, the complementary one from
the system side. Sweeps c to locate the overlap minimizing the joint
variance product and compares every route to the closed minimum.
"""

import numpy as np

from qudual import (
    EntangledState,
    distinguishability,
    entangled_visibility,
    estimate_a,
    estimate_b,
    optimal_entanglement,
    simultaneous_product,
)
from qudual.verify import ROUTE_AGREEMENT_TOL, minimum_product_routes

W_PLUS, THETA = 0.9, 0.3


def main():
    print(f"initial pure state: w+ = {W_PLUS}, theta = {THETA}")
    print()
    print("meter overlap c controls how much which-path data is extracted:")
    print("  c       D         V_e       D^2+V_e^2")
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        psi = EntangledState(W_PLUS, THETA, c)
        d, ve = distinguishability(psi), entangled_visibility(psi)
        print(f"  {c:.2f}   {d:.6f}  {ve:.6f}  {d * d + ve * ve:.12f}")
    print()

    c_opt = optimal_entanglement(W_PLUS)
    psi = EntangledState(W_PLUS, THETA, c_opt)
    mean_a, var_a = estimate_a(psi)
    mean_b, var_b = estimate_b(psi, varrho=THETA)
    print(f"optimal overlap c* = {c_opt:.6f}  (= sqrt(V / (P + V)))")
    print(f"  population readout     mean = {mean_a:+.6f}, var = {var_a:.6f}")
    print(f"  complementary readout  mean = {mean_b:+.6f}, var = {var_b:.6f}")
    print(f"  variance product       {var_a * var_b:.6f}")
    print()

    print("sweep of the joint product over c (both readouts unsharp):")
    print("  c       Var(A') Var(B')")
    for c in np.linspace(0.2, 0.95, 6):
        print(f"  {c:.3f}   {simultaneous_product(W_PLUS, float(c)):.6f}")
    print()

    value, long_form, numeric_min, compact_plus, compact_minus = minimum_product_routes(W_PLUS)
    print("minimum of the product, three independent routes:")
    print(f"  closed form in the populations   {long_form:.12f}")
    print(f"  product at the optimal overlap   {value:.12f}")
    print(f"  golden-section search over c     {numeric_min:.12f}")
    print(f"  compact form (1 + V P)^2 / 16    {compact_plus:.12f}"
          f"  matches: {abs(value - compact_plus) <= ROUTE_AGREEMENT_TOL}")
    print(f"  sign-flipped (1 - V P)^2 / 16    {compact_minus:.12f}"
          f"  matches: {abs(value - compact_minus) <= ROUTE_AGREEMENT_TOL}")


if __name__ == "__main__":
    main()
