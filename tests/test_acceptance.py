"""Sign-off checks, one per criterion, each printing a single PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
check uses fixed seeds, so the suite is deterministic end to end.
"""

import math
import shutil
import subprocess
import sys
import time

import numpy as np

from qudual import (
    ComplementaryFamily,
    DensityMatrix,
    complementary_observable,
    distinguishability,
    duality_report,
    entangle,
    entangled_visibility,
    intelligent_state,
    is_residual,
    mean_var,
    minimum_product_report,
    minimum_simultaneous_product,
    normalized_product_bounds,
    predictability,
    predictability_of_b,
    pure_state,
    robertson,
    sample_sharp,
    sample_simultaneous,
    symmetric_observable,
    visibility,
    visibility_of_b,
    visibility_oracle,
)
from qudual.errors import QudualError
from qudual.verify import projected_readout_moments

TWO_PI = 2.0 * math.pi
A = symmetric_observable()


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def draw_state(rng, i):
    if i % 2:
        w = rng.uniform()
        return pure_state(w, rng.uniform(0.0, TWO_PI))
    w = rng.uniform(0.05, 0.95)
    u = rng.uniform(0.0, 0.99)
    return DensityMatrix(w, u * math.sqrt(w * (1.0 - w)), rng.uniform(0.0, TWO_PI))


def test_criterion_01_duality_relation():
    rng = np.random.default_rng(20240901)
    start = time.perf_counter()
    worst_over, bad_link = 0.0, 0
    for i in range(10000):
        rho = draw_state(rng, i)
        rep = duality_report(rho)
        worst_over = max(worst_over, rep.sum_sq - 1.0)
        saturated = abs(rep.sum_sq - 1.0) <= 1e-10
        if saturated != (rho.purity >= 1.0 - 1e-12):
            bad_link += 1
    elapsed = time.perf_counter() - start
    ok = worst_over <= 1e-12 and bad_link == 0 and elapsed < 1.0
    report(
        "criterion-01 duality relation",
        ok,
        f"10^4 states, max(P^2+V^2-1)={worst_over:.2e}, "
        f"saturation/purity mismatches={bad_link}, {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_basis_invariance():
    rng = np.random.default_rng(20240902)
    worst = 0.0
    for i in range(1000):
        rho = draw_state(rng, i)
        varrho = rng.uniform(0.0, TWO_PI)
        base = predictability(rho) ** 2 + visibility(rho) ** 2
        rotated = predictability_of_b(rho, varrho) ** 2 + visibility_of_b(rho, varrho) ** 2
        worst = max(worst, abs(rotated - base))
    report("criterion-02 basis invariance", worst <= 1e-12, f"10^3 draws, max deviation {worst:.2e}")


def test_criterion_03_fringe_extremum():
    rng = np.random.default_rng(20240903)
    start = time.perf_counter()
    step = TWO_PI / 512
    worst_v, worst_xi = 0.0, 0.0
    for _ in range(20):
        w = rng.uniform(0.05, 0.95)
        u = rng.uniform(0.1, 1.0)
        rho = DensityMatrix(w, u * math.sqrt(w * (1.0 - w)), rng.uniform(0.0, TWO_PI))
        v_hat, xi_hat = visibility_oracle(rho, grid_n=512)
        worst_v = max(worst_v, abs(v_hat - visibility(rho)))
        worst_xi = max(worst_xi, abs(xi_hat - math.pi / 4.0))
    elapsed = time.perf_counter() - start
    ok = worst_v <= 1e-3 and worst_xi <= step + 1e-9 and elapsed < 10.0
    report(
        "criterion-03 fringe extremum",
        ok,
        f"20 states at 512x512, max |V_hat - 2 rho12| = {worst_v:.2e} (<= 1e-3), "
        f"max |xi - pi/4| = {worst_xi:.2e} (<= one step {step:.2e}), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_04_robertson_and_intelligent_states():
    rng = np.random.default_rng(20240904)
    worst_slack = 0.0
    for i in range(10000):
        rho = draw_state(rng, i)
        rep = robertson(rho, A, complementary_observable(ComplementaryFamily(A, rng.uniform(0.0, TWO_PI))))
        worst_slack = min(worst_slack, rep.slack)

    varrho = 0.9
    b_obs = complementary_observable(ComplementaryFamily(A, varrho))
    worst_gap, worst_res, count = 0.0, 0.0, 0
    grids = {
        "IS1": [w for w in np.linspace(0.0, 1.0, 21) if w != 0.5],
        "IS2a": [b for b in np.linspace(0.0, math.pi / 2.0, 21) if b != 0.0],
        "IS2b": list(np.linspace(0.0, 1.0, 21)),
    }
    for family, params in grids.items():
        for branch in (1, -1):
            for param in params:
                st = intelligent_state(family, float(param), varrho, branch)
                rep = robertson(st.state, A, b_obs)
                worst_gap = max(worst_gap, abs(rep.slack))
                worst_res = max(worst_res, is_residual(st.state, st.lam, A, b_obs))
                count += 1
    ok = worst_slack >= -1e-12 and worst_gap <= 1e-10 and worst_res <= 1e-10
    report(
        "criterion-04 variance bound",
        ok,
        f"10^4 draws, min slack {worst_slack:.2e} (>= -1e-12); {count} intelligent states, "
        f"max |lhs-rhs| = {worst_gap:.2e}, max residual = {worst_res:.2e} (<= 1e-10)",
    )


def test_criterion_05_product_bound_curves():
    worst_lo, worst_hi = 0.0, 0.0
    for alpha in np.linspace(0.0, math.pi / 2.0, 201):
        w = math.sin(float(alpha)) ** 2
        lo, hi = normalized_product_bounds(w)
        rho = pure_state(w)
        p, v = predictability(rho), visibility(rho)
        worst_lo = max(worst_lo, abs(lo - p * p * v * v / 16.0))
        worst_hi = max(worst_hi, abs(hi - w * (1.0 - w) / 4.0))
    ok = worst_lo <= 1e-12 and worst_hi <= 1e-12
    report(
        "criterion-05 product bound curves",
        ok,
        f"201 points, max |min - P^2V^2/16| = {worst_lo:.2e}, max |max - w+w-/4| = {worst_hi:.2e}",
    )


def test_criterion_06_entangled_duality():
    worst_sum, worst_order = 0.0, 0.0
    for w in np.linspace(0.0, 1.0, 51):
        for c in np.linspace(0.0, 1.0, 51):
            psi = entangle(float(w), 0.7, float(c))
            d = distinguishability(psi)
            ve = entangled_visibility(psi)
            worst_sum = max(worst_sum, abs(d * d + ve * ve - 1.0))
            worst_order = max(worst_order, abs(2.0 * w - 1.0) - d)
    ok = worst_sum <= 1e-12 and worst_order <= 1e-12
    report(
        "criterion-06 entangled duality",
        ok,
        f"51x51 grid, max |D^2+V_e^2-1| = {worst_sum:.2e}, max (P - D) = {worst_order:.2e}",
    )


def test_criterion_07_unbiasedness():
    varrho = math.pi / 5.0
    b_obs = complementary_observable(ComplementaryFamily(A, varrho))
    worst_a, worst_b = 0.0, 0.0
    for w in (k / 10.0 for k in range(1, 10)):
        sharp_a, _ = mean_var(pure_state(w), A)
        for j in range(8):
            theta = TWO_PI * j / 8.0
            sharp_b, _ = mean_var(pure_state(w, theta), b_obs)
            for c in (k / 10.0 for k in range(1, 10)):
                (mean_a, _), (mean_b, _) = projected_readout_moments(entangle(w, theta, c), varrho)
                worst_a = max(worst_a, abs(mean_a - sharp_a))
                worst_b = max(worst_b, abs(mean_b - sharp_b))
    ok = worst_a <= 1e-12 and worst_b <= 1e-12
    report(
        "criterion-07 unbiasedness",
        ok,
        f"9x8x9 grid, max |<A'> - <A>| = {worst_a:.2e}, max |<B'> - <B>| = {worst_b:.2e}",
    )


def test_criterion_08_simultaneous_minimum():
    worst_spread = 0.0
    plus_matches, minus_rejections, minus_candidates = 0, 0, 0
    for k in range(1, 52):
        w = k / 53.0
        rep = minimum_product_report(w)
        routes = [rep.at_optimal_c, rep.numeric_min]
        if math.isfinite(rep.long_form):
            routes.append(rep.long_form)
        spread = (max(routes) - min(routes)) / max(1.0, abs(rep.value))
        worst_spread = max(worst_spread, spread)
        plus_matches += rep.matches_plus
        vp = abs(2.0 * w - 1.0) * 2.0 * math.sqrt(w * (1.0 - w))
        if vp > 1e-3:
            minus_candidates += 1
            minus_rejections += not rep.matches_minus
    limits_exact = all(minimum_simultaneous_product(w) == 0.0625 for w in (0.0, 0.5, 1.0))
    ok = worst_spread <= 1e-9 and limits_exact and plus_matches == 51 and minus_rejections == minus_candidates
    report(
        "criterion-08 simultaneous minimum",
        ok,
        f"51 interior points, max route spread = {worst_spread:.2e} (<= 1e-9); "
        f"limits at {{0, 1/2, 1}} exactly 1/16: {limits_exact}; "
        f"(1+VP)^2/16 matched {plus_matches}/51, (1-VP)^2/16 rejected "
        f"{minus_rejections}/{minus_candidates} where VP > 1e-3",
    )


def test_criterion_09_monte_carlo_oracle():
    start = time.perf_counter()
    n, seed, theta = 10**6, 42, 0.3
    rho = pure_state(0.9, theta)
    b_obs = complementary_observable(ComplementaryFamily(A, theta))
    reps = [
        sample_sharp(rho, A, n, seed + 1),
        sample_sharp(rho, b_obs, n, seed + 2),
    ]
    reps += list(sample_simultaneous(entangle(0.9, theta, math.sqrt(3.0 / 7.0)), theta, n, seed + 3))
    worst_z = max(max(abs(r.z_mean), abs(r.z_variance)) for r in reps)
    elapsed = time.perf_counter() - start
    ok = worst_z <= 4.0 and elapsed < 60.0
    report(
        "criterion-09 sampling oracle",
        ok,
        f"n=10^6 at w+=0.9, c=sqrt(3/7), seed {seed}: max |z| = {worst_z:.2f} (<= 4), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_10_determinism():
    if shutil.which("qudual"):
        cmd = ["qudual", "verify", "--seed", "42"]
    else:
        cmd = [sys.executable, "-m", "qudual.cli", "verify", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    report(
        "criterion-10 determinism",
        ok,
        f"two runs of `{' '.join(cmd[-3:])}`: exit codes ({first.returncode}, {second.returncode}), "
        f"stdout identical: {first.stdout == second.stdout} ({len(first.stdout)} bytes)",
    )


def test_every_error_type_is_a_library_error():
    # keeps the CLI's exit-code contract honest: anything user-facing derives
    # from the package root error
    from qudual import ContractViolationError, ParameterError, SingularConfigurationError

    for exc in (ContractViolationError, ParameterError, SingularConfigurationError):
        assert issubclass(exc, QudualError)
