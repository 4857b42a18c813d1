"""Independent checks of the program's outputs.

Every reference here is computed from explicit 2x2 and 4x4 matrices or from
the closed forms stated next to each check, never by calling qudual. A check
returns ``None`` when the output is right and a short reason when it is not.

Conventions shared with the program's documentation: outcomes are +-1/2 for
both observables, the state is ``[[w, r e^{-i theta}], [r e^{i theta}, 1 - w]]``,
the complementary member at phase ``varrho`` has eigenvectors
``(|+> +- e^{i varrho} |->) / sqrt(2)``, and the entangled state is
``sqrt(w) |+>|m+> + e^{i theta} sqrt(1 - w) |->(c |m+> + sqrt(1 - c^2) |m_perp>)``.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

A = 0.5  # reference outcome magnitude
B = 0.5  # complementary outcome magnitude

# Agreement demanded between a printed value and its reference: an absolute
# part for values of order one and a relative part for the 1/c-scaled
# readout moments. The outputs print 17 significant digits; these tolerances
# leave room for round-off only, so a changed digit among the first ten
# fails.
ABS_TOL = 1e-12
REL_TOL = 1e-10

# Largest accepted |z| of a sampled moment against its exact binomial
# reference: a correct sampler exceeds it about twice in a billion draws.
Z_BOUND = 6.0

BASE_KEYS = (
    "w_plus", "rho12", "theta", "purity", "P", "V", "P2_plus_V2", "varrho",
    "P_B", "V_B", "mean_A", "var_A", "mean_B", "var_B", "robertson_lhs",
    "robertson_rhs", "robertson_slack", "product_min", "product_max",
)
METER_KEYS = (
    "c", "D", "V_e", "mean_A_readout", "var_A_readout", "mean_B_readout",
    "var_B_readout", "sim_product", "c_opt", "sim_product_min",
)

README = Path(__file__).with_name("README.md")


def signoff_floor(readme: Path = README) -> int:
    """The sign-off check floor recorded in the benchmark README."""
    match = re.search(r"signoff check floor:\s*(\d+)", readme.read_text(), re.IGNORECASE)
    if match is None:
        raise ValueError(f"{readme} records no 'signoff check floor: N' line")
    return int(match.group(1))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref)


# ---------------------------------------------------------------- matrices

def density(w: float, r: float, theta: float) -> np.ndarray:
    off = r * np.exp(-1j * theta)
    return np.array([[w, off], [np.conj(off), 1.0 - w]])


def observable_a() -> np.ndarray:
    return np.diag([A, -A]).astype(complex)


def observable_b(varrho: float) -> np.ndarray:
    plus = np.array([1.0, np.exp(1j * varrho)]) / math.sqrt(2.0)
    minus = np.array([1.0, -np.exp(1j * varrho)]) / math.sqrt(2.0)
    return B * (np.outer(plus, plus.conj()) - np.outer(minus, minus.conj()))


def _expect(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.trace(rho @ op).real)


def entangled_meter(w: float, theta: float, c: float) -> tuple[float, float]:
    """Distinguishability and leftover visibility of the explicit 4x4 state.

    The composite amplitudes run system index slowest, meter basis (m+, m_perp).
    """
    tail = np.exp(1j * theta) * math.sqrt(1.0 - w)
    amp = np.array([math.sqrt(w), 0.0, tail * c, tail * math.sqrt(1.0 - c * c)])
    rho_e = np.outer(amp, amp.conj())
    d = float(np.abs(np.linalg.eigvalsh(rho_e[0:2, 0:2] - rho_e[2:4, 2:4])).sum())
    # partial trace over the meter: rho_s[1, 0] = <1m+|rho_e|0m+> + <1m_perp|rho_e|0m_perp>
    v_e = 2.0 * abs(rho_e[2, 0] + rho_e[3, 1])
    return d, v_e


def pure_pv(w: float) -> tuple[float, float]:
    return abs(2.0 * w - 1.0), 2.0 * math.sqrt(w * (1.0 - w))


# ----------------------------------------------------------------- compute

def parse_pairs(text: str) -> list[tuple[str, float]]:
    pairs = []
    for line in text.splitlines():
        key, value = line.split()
        pairs.append((key, float(value)))
    return pairs


def compute_reference(argv: tuple[str, ...]) -> dict[str, float]:
    """Every value ``compute`` prints for ``argv``, from explicit matrices."""
    args = [a for a in argv[1:] if a != "--pure"]
    opts = dict(zip(args[0::2], args[1::2]))
    w = float(opts["--w-plus"])
    theta = float(opts.get("--theta", 0.0))
    r = math.sqrt(w * (1.0 - w)) if "--pure" in argv else float(opts["--rho12"])
    theta = theta % (2.0 * math.pi) if r > 0.0 else 0.0
    varrho = theta

    rho = density(w, r, theta)
    a_m, b_m = observable_a(), observable_b(varrho)
    purity = float(np.trace(rho @ rho).real)
    p = abs(float(rho[0, 0].real - rho[1, 1].real))
    v = 2.0 * abs(rho[0, 1])
    # The state in the eigenbasis of B: populations give P_B, coherence V_B.
    basis_b = np.linalg.eigh(b_m)[1]
    rho_b = basis_b.conj().T @ rho @ basis_b
    mean_a, mean_b = _expect(rho, a_m), _expect(rho, b_m)
    var_a = _expect(rho, a_m @ a_m) - mean_a ** 2
    var_b = _expect(rho, b_m @ b_m) - mean_b ** 2
    comm = _expect(rho, -1j * (a_m @ b_m - b_m @ a_m))
    anti = _expect(rho, a_m @ b_m + b_m @ a_m) - 2.0 * mean_a * mean_b
    p_pure, v_pure = pure_pv(w)
    ref = {
        "w_plus": w, "rho12": r, "theta": theta, "purity": purity,
        "P": p, "V": v, "P2_plus_V2": 2.0 * purity - 1.0, "varrho": varrho,
        "P_B": abs(float((rho_b[0, 0] - rho_b[1, 1]).real)),
        "V_B": 2.0 * abs(rho_b[0, 1]),
        "mean_A": mean_a, "var_A": var_a, "mean_B": mean_b, "var_B": var_b,
        "robertson_lhs": var_a * var_b,
        "robertson_rhs": 0.25 * (comm ** 2 + anti ** 2),
        "robertson_slack": (w * (1.0 - w) - r * r) / 4.0,
        "product_min": p_pure ** 2 * v_pure ** 2 / 16.0,
        "product_max": w * (1.0 - w) / 4.0,
    }
    if "--c" in opts:
        c = float(opts["--c"])
        d, v_e = entangled_meter(w, theta, c)
        var_ar = A * A * (c * c / (1.0 - c * c) + 4.0 * w * (1.0 - w))
        var_br = (B / c) ** 2 - mean_b ** 2
        ref.update({
            "c": c, "D": d, "V_e": v_e,
            "mean_A_readout": mean_a, "var_A_readout": var_ar,
            "mean_B_readout": mean_b, "var_B_readout": var_br,
            # normalized by the unit outcome spreads (2A)^2 (2B)^2
            "sim_product": var_ar * var_br,
            "c_opt": math.sqrt(v_pure / (p_pure + v_pure)),
            "sim_product_min": (1.0 + v_pure * p_pure) ** 2 / 16.0,
        })
    return ref


def check_compute(argv: tuple[str, ...], out: str) -> str | None:
    try:
        pairs = parse_pairs(out)
    except ValueError:
        return "output is not 'key value' lines"
    keys = tuple(k for k, _ in pairs)
    want = BASE_KEYS + (METER_KEYS if "--c" in argv else ())
    if keys != want:
        return f"keys {keys} differ from {want}"
    got = dict(pairs)
    ref = compute_reference(argv)
    for key in want:
        if not math.isfinite(got[key]) or not _close(got[key], ref[key]):
            return f"{key} = {got[key]!r}, reference {ref[key]!r}"
    if "--c" in argv:
        if not _close(got["D"] ** 2 + got["V_e"] ** 2, 1.0):
            return f"D^2 + V_e^2 = {got['D'] ** 2 + got['V_e'] ** 2!r}, not 1"
        if got["sim_product_min"] > got["sim_product"] * (1.0 + REL_TOL):
            return "sim_product_min exceeds sim_product"
    return None


# ---------------------------------------------------------------------- mc

_SAMPLE = re.compile(
    r"^(\w+)\s+n=(\d+) mean=(\S+) \(analytic (\S+), z=(\S+)\) "
    r"var=(\S+) \(analytic (\S+), z=(\S+)\)( FLAGGED)?( degenerate)?$"
)
_HEADER = re.compile(r"^sampling at w_plus=(\S+) theta=(\S+) varrho=(\S+) c=(\S+) seed=(\d+)$")
_FRINGE = re.compile(r"^fringe\s+contrast=(\S+) \(analytic (\S+)\)$")


def _binomial_z(mean_hat: float, var_hat: float, n: int, hi: float, lo: float, mean: float):
    """z of a two-outcome sample mean and variance against exact moments."""
    p_hi = (mean - lo) / (hi - lo)
    var = p_hi * (hi - mean) ** 2 + (1.0 - p_hi) * (lo - mean) ** 2
    mu4 = p_hi * (hi - mean) ** 4 + (1.0 - p_hi) * (lo - mean) ** 4
    z_mean = (mean_hat - mean) / math.sqrt(var / n)
    z_var = (var_hat - var) / math.sqrt((mu4 - var * var) / n)
    return var, z_mean, z_var


def mc_reference(argv: tuple[str, ...]) -> dict:
    opts = dict(zip(argv[1::2], argv[2::2]))
    n = int(opts["--n"])
    w = float(opts["--w-plus"])
    theta = float(opts["--theta"])
    p_pure, v_pure = pure_pv(w)
    c = math.sqrt(v_pure / (p_pure + v_pure))
    psi = np.array([math.sqrt(w), np.exp(1j * theta) * math.sqrt(1.0 - w)])
    rho = np.outer(psi, psi.conj())
    mean_a = _expect(rho, observable_a())
    mean_b = _expect(rho, observable_b(theta))
    a_prime = A / math.sqrt(1.0 - c * c)
    return {
        "n": n, "w": w, "theta": theta, "c": c, "seed": int(opts["--seed"]), "rho": rho,
        "v": 2.0 * abs(rho[0, 1]),
        # (name, outcome magnitude, exact mean)
        "samples": (("sharp_a", A, mean_a), ("sharp_b", B, mean_b),
                    ("readout_a", a_prime, mean_a), ("readout_b", B / c, mean_b)),
    }


# The fringe scan of ``mc``: 16 phases over [0, 2 pi) behind a splitter at
# angle pi/4.
FRINGE_PHASES = 16
FRINGE_XI = math.pi / 4.0


def fringe_grid_contrast(rho: np.ndarray):
    """Contrast the 16-phase scan resolves, and its detection probabilities."""
    cos, sin = math.cos(FRINGE_XI), math.sin(FRINGE_XI)
    splitter = np.array([[cos, 1j * sin], [1j * sin, cos]])
    probs = []
    for phi in np.linspace(0.0, 2.0 * math.pi, FRINGE_PHASES, endpoint=False):
        u = splitter @ np.diag([1.0, np.exp(1j * phi)])
        probs.append(float((u @ rho @ u.conj().T)[0, 0].real))
    probs = np.array(probs)
    return (probs.max() - probs.min()) / (probs.max() + probs.min()), probs


def check_mc(argv: tuple[str, ...], out: str, rc: int) -> str | None:
    ref = mc_reference(argv)
    lines = out.splitlines()
    if len(lines) != 6:
        return f"{len(lines)} lines, 6 expected"
    head = _HEADER.match(lines[0])
    if head is None:
        return f"header {lines[0]!r}"
    hw, ht, hv, hc, hs = head.groups()
    if not (_close(float(hw), ref["w"]) and _close(float(ht), ref["theta"])
            and _close(float(hv), ref["theta"]) and _close(float(hc), ref["c"])
            and int(hs) == ref["seed"]):
        return f"header values {head.groups()}"
    flagged_any = False
    for line, (name, mag, mean) in zip(lines[1:5], ref["samples"]):
        m = _SAMPLE.match(line)
        if m is None or m.group(1) != name:
            return f"sample line {line!r}, expected {name}"
        n = int(m.group(2))
        mean_hat, mean_an, z_mean_p, var_hat, var_an, z_var_p = (
            float(m.group(i)) for i in (3, 4, 5, 6, 7, 8))
        if n != ref["n"] or m.group(10):
            return f"{name}: n={n} or degenerate"
        var, z_mean, z_var = _binomial_z(mean_hat, var_hat, n, mag, -mag, mean)
        if not (_close(mean_an, mean) and _close(var_an, var)):
            return f"{name}: analytic ({mean_an!r}, {var_an!r}), reference ({mean!r}, {var!r})"
        if max(abs(z_mean), abs(z_var)) > Z_BOUND:
            return f"{name}: z = ({z_mean:.2f}, {z_var:.2f}) beyond {Z_BOUND}"
        if abs(z_mean - z_mean_p) > 5e-3 or abs(z_var - z_var_p) > 5e-3:
            return f"{name}: printed z ({z_mean_p}, {z_var_p}), reference ({z_mean:.3f}, {z_var:.3f})"
        flagged = bool(m.group(9))
        if flagged != (max(abs(z_mean_p), abs(z_var_p)) > 4.0):
            return f"{name}: FLAGGED mark disagrees with z"
        flagged_any |= flagged
    if rc != (1 if flagged_any else 0):
        return f"exit code {rc} with flagged={flagged_any}"
    fr = _FRINGE.match(lines[5])
    if fr is None:
        return f"fringe line {lines[5]!r}"
    v_hat, v_an = float(fr.group(1)), float(fr.group(2))
    if not _close(v_an, ref["v"]):
        return f"fringe analytic {v_an!r}, reference {ref['v']!r}"
    v_grid, probs = fringe_grid_contrast(ref["rho"])
    # The 16-phase grid resolves V times the largest sine it samples.
    if not (ref["v"] * math.cos(math.pi / FRINGE_PHASES) - ABS_TOL <= v_grid <= ref["v"] + ABS_TOL):
        return f"grid contrast {v_grid!r} outside [V cos(pi/16), V]"
    per_point = ref["n"] // FRINGE_PHASES
    sigma = float(np.sqrt(probs * (1.0 - probs) / per_point).max())
    tol = 2.0 * Z_BOUND * sigma / (probs.max() + probs.min())
    if abs(v_hat - v_grid) > tol:
        return f"fringe contrast {v_hat!r} off the grid value {v_grid!r} by more than {tol:.2e}"
    return None


# ----------------------------------------------------------------- signoff

_VERDICT = re.compile(r"^result: (PASS|FAIL) checks=(\d+) failures=(\d+)$")
_SUITE = re.compile(r"^  (\w+) +checks=(\d+) +failures=(\d+)$")
_READOUT_FLAG = re.compile(r"^    note: [a-z ]+ readout z=\((-?[\d.]+),(-?[\d.]+)\)$")


def check_signoff(argv: tuple[str, ...], out: str, rc: int, floor: int) -> str | None:
    """Every suite passes, or fails only by sampled readouts flagged past |z| = 4.

    ``verify``'s sampling suite flags a readout whose z passes 4 in magnitude
    and then reports FAIL with exit code 1. Its eight z-scores do so for a
    correct sampler about once in 2000 seeds (seed 343578368 is one), so such
    a report is accepted when every failure is a flagged readout whose z
    stays within Z_BOUND.
    """
    level = argv[argv.index("--level") + 1]
    seed = argv[argv.index("--seed") + 1]
    lines = out.splitlines()
    if not lines or lines[0] != f"self-check level={level} seed={seed}":
        return f"first line {lines[:1]!r}"
    verdict = _VERDICT.match(lines[-1])
    if verdict is None:
        return f"verdict {lines[-1]!r}"
    if int(verdict.group(2)) < floor:
        return f"{verdict.group(2)} checks, below the floor {floor}"
    failures, flags = 0, 0
    for line in lines[1:-1]:
        suite = _SUITE.match(line)
        if suite is not None:
            failures += int(suite.group(3))
            if suite.group(3) != "0" and suite.group(1) != "monte_carlo":
                return f"suite {suite.group(1)} reports failures"
            continue
        flag = _READOUT_FLAG.match(line)
        if flag is None:
            return f"unexpected line {line!r}"
        # The note rounds z to two places, so a flagged z can print as 4.00.
        if not 4.0 <= max(abs(float(flag.group(1))), abs(float(flag.group(2)))) <= Z_BOUND:
            return f"flagged readout outside 4 <= |z| <= {Z_BOUND}: {line.strip()!r}"
        flags += 1
    if failures != int(verdict.group(3)) or failures != flags:
        return f"{verdict.group(3)} failures, {failures} in the suites, {flags} flagged readouts"
    if (verdict.group(1), rc) != (("PASS", 0) if failures == 0 else ("FAIL", 1)):
        return f"verdict {verdict.group(1)} with exit code {rc} and {failures} failures"
    return None
