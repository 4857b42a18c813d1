#!/usr/bin/env python3
"""Demonstrate the predictability/visibility balance of a two-level state.

Walks one pure and one mixed state through the duality report, then checks
the closed-form fringe visibility against the brute-force grid oracle: scan
every beam-splitter angle and relative phase, read off the deepest fringe,
and compare where the contrast peaks.
"""

import math

import numpy as np

from qudual import (
    DensityMatrix,
    fringe_probability,
    predictability,
    pure_state,
    visibility,
    visibility_oracle,
)


def show(label, rho):
    p, v = predictability(rho), visibility(rho)
    sum_sq = p * p + v * v
    print(f"{label}")
    print(f"  populations      w+ = {rho.w_plus:.4f}, w- = {rho.w_minus:.4f}")
    print(f"  coherence        rho12 = {rho.rho12:.4f}, theta = {rho.theta:.4f}")
    print(f"  predictability   P = {p:.6f}")
    print(f"  visibility       V = {v:.6f}")
    print(f"  P^2 + V^2        = {sum_sq:.12f}  (2 purity - 1 = {2.0 * rho.purity - 1.0:.12f})")
    print()


def main():
    print("=" * 64)
    print("Wave-particle balance: P^2 + V^2 <= 1, equality for pure states")
    print("=" * 64)
    print()

    pure = pure_state(0.9, theta=0.3)
    show("pure state, unbalanced populations", pure)

    mixed = DensityMatrix(0.9, 0.5 * math.sqrt(0.09), theta=0.3)
    show("same populations, half the coherence", mixed)

    print("brute-force check of the visibility on the pure state:")
    v_hat, xi_hat = visibility_oracle(pure, grid_n=512)
    print(f"  grid oracle      V = {v_hat:.6f} at beam-splitter angle xi = {xi_hat:.6f}")
    print(f"  closed form      V = {visibility(pure):.6f} at xi = {math.pi / 4.0:.6f}")
    print()

    print("one cut through the fringe at the balanced splitter:")
    phi = np.linspace(0.0, 2.0 * math.pi, 9)
    p = fringe_probability(pure, phi, math.pi / 4.0)
    for phi_k, p_k in zip(phi, p):
        bar = "#" * int(round(40 * p_k))
        print(f"  phi = {phi_k:5.3f}  p = {p_k:.4f}  {bar}")


if __name__ == "__main__":
    main()
