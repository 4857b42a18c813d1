#!/usr/bin/env python3
"""Stress the closed forms against counted simulated measurement outcomes.

Every analytic claim in the package has a sampling route: draw outcome counts
with a counter-based generator at a fixed seed, one stream per sampler, and
standardize the gap between empirical and predicted moments. Honest agreement
means z-scores of order one; anything past |z| = 4 is flagged.
"""

from qudual import (
    REFERENCE,
    EntangledState,
    complementary_observable,
    optimal_entanglement,
    pure_state,
    sample_fringe,
    sample_sharp,
    sample_simultaneous,
    visibility,
)

SEED, N = 42, 200000
W_PLUS, THETA = 0.9, 0.3


def show(rep):
    flag = "  <- FLAGGED" if rep.flagged else ""
    print(
        f"  {rep.quantity:12s} mean {rep.empirical_mean:+.5f} vs {rep.analytic_mean:+.5f}"
        f" (z = {rep.z_mean:+.2f}), var {rep.empirical_variance:.5f} vs"
        f" {rep.analytic_variance:.5f} (z = {rep.z_variance:+.2f}){flag}"
    )


def main():
    b_obs = complementary_observable(THETA)
    rho = pure_state(W_PLUS, THETA)
    print(f"state: w+ = {W_PLUS}, theta = {THETA}; n = {N}, seed = {SEED}")
    print()

    print("sharp projective sampling:")
    show(sample_sharp(rho, REFERENCE, N, SEED, stream=1))
    show(sample_sharp(rho, b_obs, N, SEED, stream=2))
    print()

    print("fringe contrast from binomial counts along a 16-point phase scan:")
    v_hat = sample_fringe(rho, N // 16, SEED, stream=4)
    print(f"  empirical V = {v_hat:.5f} vs closed form {visibility(rho):.5f}")
    print()

    c_opt = optimal_entanglement(W_PLUS)
    print(f"simultaneous unsharp readouts at the optimal overlap c = {c_opt:.5f}:")
    rep_a, rep_b = sample_simultaneous(EntangledState(W_PLUS, THETA, c_opt), THETA, N, SEED, stream=3)
    show(rep_a)
    show(rep_b)
    print()
    print(f"empirical variance product {rep_a.empirical_variance * rep_b.empirical_variance:.6f}"
          f" vs minimum {rep_a.analytic_variance * rep_b.analytic_variance:.6f}")


if __name__ == "__main__":
    main()
