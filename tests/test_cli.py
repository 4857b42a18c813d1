import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Context, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import qudual
from qudual import (
    GAUGE,
    REFERENCE,
    DensityMatrix,
    EntangledState,
    Observable,
    ParameterError,
    complementary_observable,
    distinguishability,
    entangled_visibility,
    estimate_b,
    family_duality,
    fringe_probability,
    intelligent_state,
    is_residual,
    linalg,
    meter_projectors,
    normalized_product_bounds,
    optimal_entanglement,
    predictability,
    pure_state,
    sample_fringe,
    sample_sharp,
    sample_simultaneous,
    simultaneous_product,
    verify,
    visibility,
    visibility_oracle,
)
from qudual.cli import CSV_HEADER, MAX_SWEEP_POINTS, _build_parser, main
from qudual.duality import MAX_GRID_N
from qudual.montecarlo import MAX_SAMPLED_VALUE, MAX_SHOTS
from qudual.simultaneous import MAX_RESCALED_VALUE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_pairs(out):
    values = {}
    for line in out.splitlines():
        key, _, val = line.partition("  ")
        values[key.strip()] = float(val)
    return values


def test_compute_balanced_pure_state(capsys):
    code, out, _ = run(capsys, "compute", "--w-plus", "0.5", "--pure")
    assert code == 0
    values = parse_pairs(out)
    assert values["P"] == 0.0
    assert values["V"] == 1.0
    assert values["P2_plus_V2"] == 1.0
    assert values["var_B"] == 0.0
    assert values["robertson_lhs"] == 0.0


def test_compute_requires_a_coherence_choice(capsys):
    code, _, err = run(capsys, "compute", "--w-plus", "0.5")
    assert code == 2
    assert "--rho12 or --pure" in err


def test_compute_takes_one_coherence_choice(capsys):
    code, out, err = run(capsys, "compute", "--w-plus", "0.5", "--pure", "--rho12", "0.1")
    assert (code, out, err) == (2, "", "error: give either --rho12 or --pure, not both\n")


def test_compute_rejects_excess_coherence(capsys):
    code, _, err = run(capsys, "compute", "--w-plus", "0.5", "--rho12", "0.7")
    assert code == 2
    assert "violates the positivity bound" in err
    assert "sqrt(w_plus * w_minus)" in err


@pytest.mark.parametrize("rho12", ["0.5000000000001", "0.500000000001"])
def test_compute_clamps_coherence_inside_the_positivity_slack(capsys, rho12):
    # rho12 within POSITIVITY_TOL above sqrt(w+ w-) = 1/2 is clamped onto the bound
    code, out, _ = run(capsys, "compute", "--w-plus", "0.5", "--rho12", rho12)
    assert code == 0
    values = parse_pairs(out)
    assert values["rho12"] == 0.5
    assert values["V"] == values["purity"] == values["P2_plus_V2"] == 1.0


def test_compute_entangled_block(capsys):
    code, out, _ = run(capsys, "compute", "--w-plus", "0.9", "--pure", "--c", str(math.sqrt(3.0 / 7.0)))
    assert code == 0
    values = parse_pairs(out)
    assert values["D"] ** 2 + values["V_e"] ** 2 == pytest.approx(1.0, abs=1e-12)
    assert values["sim_product"] == pytest.approx(0.1369, abs=1e-12)
    assert values["sim_product_min"] == pytest.approx(0.1369, abs=1e-12)
    assert values["var_A_readout"] == pytest.approx(0.2775, abs=1e-12)


def test_compute_entangled_block_requires_purity(capsys):
    code, _, err = run(capsys, "compute", "--w-plus", "0.9", "--rho12", "0.1", "--c", "0.5")
    assert code == 2
    assert "pure" in err


def test_sweep_header_and_endpoints(capsys):
    code, out, _ = run(capsys, "sweep", "--figure", "1", "--points", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[3].split(",")]
    # w_plus, P, V, product_min, product_max, D, V_e, c_opt, sim_product_min
    assert first[0] == 0.0 and last[0] == 1.0
    assert first[1] == 1.0 and first[2] == 0.0
    assert first[3] == 0.0 and first[4] == 0.0
    assert first[8] == 0.0625 and last[8] == 0.0625
    mid = [float(x) for x in lines[2].split(",")]
    assert mid[0] == pytest.approx(0.5, abs=1e-15)
    assert mid[4] == pytest.approx(0.0625, abs=1e-15)


def test_sweep_figures_differ_in_the_middle(capsys):
    _, out1, _ = run(capsys, "sweep", "--figure", "1", "--points", "5")
    _, out3, _ = run(capsys, "sweep", "--figure", "3", "--points", "5")
    row1 = out1.splitlines()[2].split(",")
    row3 = out3.splitlines()[2].split(",")
    # full entanglement shows D = P; the optimal overlap shows a larger D
    assert float(row3[5]) > float(row1[5])
    assert row1[0] == row3[0]


def sweep_rows(capsys, figure):
    code, out, _ = run(capsys, "sweep", "--figure", figure, "--points", "2001")
    assert code == 0
    return [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]


@pytest.mark.parametrize("figure", ["1", "3"])
def test_sweep_predictability_is_the_library_predictability(capsys, figure):
    for w, p, *_ in sweep_rows(capsys, figure):
        rho = pure_state(w)
        assert p == predictability(rho) == predictability(DensityMatrix([w], rho.rho12))[0], w


def test_sweep_at_full_overlap_prints_d_as_p_and_v_e_as_v(capsys):
    # At c = 1, D = hypot(P, V * 0) is P and V_e = 1 * V is V, bit for bit, on every row.
    code, out, _ = run(capsys, "sweep", "--figure", "1", "--points", "2001")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and len(rows) == 2001
    assert [(row[5], row[6]) for row in rows] == [(row[1], row[2]) for row in rows]


def test_sweep_distinguishability_one_ulp_below_half(capsys):
    w, _, _, _, _, d, _, c, _ = next(row for row in sweep_rows(capsys, "3") if row[0] == 0.49999999999999989)
    # Here P = |2 w+ - 1| = 2**-52, and c_opt = sqrt(V / (P + V)) = 1 - P/2 + O(P**2) rounds to
    # 1 - 2**-53, not to 1; at that overlap D = sqrt(1 - 4 c**2 w+ w-) is about 1.5e-8, not 0.
    assert c == 1.0 - 2.0**-53
    with localcontext(Context(prec=50)):
        w, c = Decimal(w), Decimal(c)
        assert abs(Decimal(d) - (1 - 4 * c * c * w * (1 - w)).sqrt()) <= Decimal("1e-15")


def test_sweep_is_deterministic(capsys):
    _, out1, _ = run(capsys, "sweep", "--figure", "3", "--points", "41")
    _, out2, _ = run(capsys, "sweep", "--figure", "3", "--points", "41")
    assert out1 == out2


def test_sweep_writes_lf_file(tmp_path, capsys):
    out_path = tmp_path / "curves.csv"
    code, _, _ = run(capsys, "sweep", "--figure", "1", "--points", "11", "--out", str(out_path))
    assert code == 0
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(CSV_HEADER.encode() + b"\n")
    assert raw.endswith(b"\n")
    assert len(raw.splitlines()) == 12


def test_sweep_unwritable_path(capsys):
    code, _, err = run(capsys, "sweep", "--figure", "1", "--out", "/nonexistent-dir/curves.csv")
    assert code == 3
    assert "cannot write" in err


def test_sweep_rejects_tiny_grid(capsys):
    code, _, err = run(capsys, "sweep", "--figure", "1", "--points", "1")
    assert code == 2
    assert err == f"error: --points = 1 violates the bound 2 <= --points <= {MAX_SWEEP_POINTS:g}\n"


def test_verify_fast_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "42")
    code2, out2, _ = run(capsys, "verify", "--seed", "42")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert out1.startswith("self-check level=fast seed=42")
    assert "result: PASS" in out1


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QUDUAL_SEED", "7")
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "seed=7" in out.splitlines()[0]


def test_verify_rejects_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("QUDUAL_SEED", "not-a-number")
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "QUDUAL_SEED" in err


def test_mc_subcommand_runs_clean(capsys):
    code, out, _ = run(capsys, "mc", "--n", "5000", "--seed", "42")
    assert code == 0
    assert "sharp_a" in out and "readout_b" in out and "fringe" in out
    assert "FLAGGED" not in out


@pytest.mark.parametrize("c", ["0.999999", "1e-06"])
def test_compute_edge_overlaps(capsys, c):
    code, out, err = run(capsys, "compute", "--w-plus", "0.9", "--pure", "--theta", "0.3", "--c", c)
    assert code == 0, err
    values = parse_pairs(out)
    assert values["mean_A_readout"] == pytest.approx(0.4, abs=1e-12)
    # varrho defaults to theta, so cos(theta - varrho) = 1
    c_val = float(c)
    assert values["var_B_readout"] == pytest.approx(0.25 * (1.0 / c_val**2 - 4.0 * 0.9 * 0.1), rel=1e-12)


@pytest.mark.parametrize("name, value", [("theta", "inf"), ("theta", "nan"), ("c", "nan")])
def test_compute_rejects_non_finite_scalars(capsys, name, value):
    code, out, err = run(capsys, "compute", "--w-plus", "0.9", "--pure", f"--{name}", value)
    assert code == 2
    assert "nan" not in out
    assert err.startswith(f"error: {name} = {value} violates the bound")


@pytest.mark.parametrize(
    "argv, name", [(("--w-plus", "0.5"), "c"), (("--theta", "nan"), "theta")], ids=["singular-c", "nan-theta"]
)
def test_mc_failure_writes_no_stdout(capsys, argv, name):
    code, out, err = run(capsys, "mc", "--n", "1000", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"{name} = " in err


@pytest.mark.parametrize("w_plus", ["0", "0.5", "1"])
def test_mc_default_overlap_at_a_singular_population_asks_for_c(capsys, w_plus):
    code, out, err = run(capsys, "mc", "--n", "1000", "--w-plus", w_plus)
    assert (code, out) == (2, "")
    assert "--c defaults to the optimal overlap" in err and "pass --c" in err


@pytest.mark.parametrize("argv", [("--c", "0.5"), ()], ids=["c", "default-c"])
@pytest.mark.parametrize("w_plus, edge", [("1.0000000000005", "1"), ("-5e-13", "0")], ids=["above-1", "below-0"])
def test_mc_reads_the_population_that_compute_reads(capsys, argv, w_plus, edge):
    # pure_state clamps a population within POSITIVITY_TOL of [0, 1] onto it, for both commands alike
    assert run(capsys, "compute", "--pure", f"--w-plus={w_plus}", "--c", "0.5")[0] == 0
    clamped = run(capsys, "mc", "--n", "1000", f"--w-plus={edge}", *argv)
    assert run(capsys, "mc", "--n", "1000", f"--w-plus={w_plus}", *argv) == clamped


# Every float flag of both commands given as zero, the coherence both ways, and mc's overlap given and defaulted: each
# command runs to the same bytes from -0.0 as from 0.0, mc's messages on its singular overlap included.
ZERO_FLAGS = {
    "compute-pure": ("compute", "--w-plus={}", "--pure", "--theta={}", "--varrho={}", "--c={}"),
    "compute-mixed": ("compute", "--w-plus={}", "--rho12={}", "--theta={}", "--varrho={}", "--c={}"),
    "mc": ("mc", "--n", "1000", "--theta={}", "--varrho={}"),
    "mc-singular-c": ("mc", "--n", "1000", "--w-plus={}", "--theta={}", "--varrho={}", "--c={}"),
    "mc-default-c": ("mc", "--n", "1000", "--w-plus={}", "--theta={}", "--varrho={}"),
}


@pytest.mark.parametrize("argv", ZERO_FLAGS.values(), ids=ZERO_FLAGS)
def test_a_negative_zero_flag_prints_the_bytes_of_zero(capsys, argv):
    negative = run(capsys, *(arg.format("-0.0") for arg in argv))
    assert negative == run(capsys, *(arg.format("0.0") for arg in argv))
    assert re.search(r"-0(?![.\d])", negative[1] + negative[2]) is None, negative


_PSI = EntangledState(0.9, 0.3, 0.6)

SCALAR_ENTRY_POINTS = {
    "DensityMatrix.w_plus": lambda x: DensityMatrix(x, 0.0),
    "DensityMatrix.rho12": lambda x: DensityMatrix(0.5, x),
    "DensityMatrix.theta": lambda x: DensityMatrix(0.5, 0.5, x),
    "DensityMatrix.theta-incoherent": lambda x: DensityMatrix(0.5, 0.0, x),
    # the stacked forms check every element, not only the first (see STACKED_ROWS)
    "validate_density.w_plus": lambda x: DensityMatrix([0.5, x], 0.0),
    "validate_density.rho12": lambda x: DensityMatrix(0.5, [0.1, x]),
    "validate_density.theta": lambda x: DensityMatrix(0.5, 0.1, [0.0, x]),
    "duality_arrays.w_plus": lambda x: predictability(DensityMatrix([0.5, x], 0.0)),
    "duality_arrays.rho12": lambda x: visibility(DensityMatrix(0.5, [0.1, x])),
    "pure_state.w_plus": lambda x: pure_state(x),
    "pure_state.theta": lambda x: pure_state(0.5, x),
    "Observable.val_plus": lambda x: Observable(x, -0.5),
    "Observable.val_minus": lambda x: Observable(0.5, x),
    "complementary_observable.varrho": lambda x: complementary_observable(x),
    "complementary_matrices.varrho": lambda x: complementary_observable([0.0, x]).matrix,
    "family_duality.varrho": lambda x: family_duality(DensityMatrix(0.5, 0.1), x),
    "family_arrays.w_plus": lambda x: family_duality(DensityMatrix([0.5, x], 0.0), 0.0),
    "family_arrays.rho12": lambda x: family_duality(DensityMatrix(0.5, [0.1, x]), 0.0),
    "family_arrays.theta": lambda x: family_duality(DensityMatrix(0.5, 0.1, [0.0, x]), 0.0),
    "family_arrays.varrho": lambda x: family_duality(DensityMatrix(0.5, 0.1), [0.0, x]),
    "EntangledState.w_plus": lambda x: EntangledState(x, 0.0, 0.5),
    "EntangledState.theta": lambda x: EntangledState(0.5, x, 0.5),
    "EntangledState.c": lambda x: EntangledState(0.5, 0.0, x),
    "entangled_arrays.w_plus": lambda x: distinguishability(EntangledState([0.5, x], 0.0, 0.5)),
    "entangled_arrays.theta": lambda x: entangled_visibility(EntangledState(0.5, [0.0, x], 0.5)),
    "entangled_arrays.c": lambda x: distinguishability(EntangledState(0.5, 0.0, [0.5, x])),
    "meter_projectors.c": lambda x: meter_projectors(x),
    "estimate_b.varrho": lambda x: estimate_b(_PSI, x),
    "simultaneous_product.w_plus": lambda x: simultaneous_product(x, 0.5),
    "simultaneous_product.c": lambda x: simultaneous_product(0.5, x),
    "optimal_entanglement.w_plus": lambda x: optimal_entanglement(x),
    "normalized_product_bounds.w_plus": lambda x: normalized_product_bounds(x),
    "intelligent_state.w_plus": lambda x: intelligent_state("IS1", x, 0.9),
    "intelligent_state.beta": lambda x: intelligent_state("IS2a", x, 0.9),
    "intelligent_state.varrho": lambda x: intelligent_state("IS2b", 0.3, x),
    "is_residual.lam": lambda x: is_residual(pure_state(0.5), x, REFERENCE, complementary_observable(0.0)),
    "sample_simultaneous.varrho": lambda x: sample_simultaneous(_PSI, x, 10, 1),
    "fringe_probability.phi": lambda x: fringe_probability(pure_state(0.5), [0.0, x], 0.3),
    "fringe_probability.xi": lambda x: fringe_probability(pure_state(0.5), 0.3, x),
    "sample_fringe.n_per_point": lambda x: sample_fringe(pure_state(0.5), x, 1),
    "sample_sharp.n": lambda x: sample_sharp(pure_state(0.5), REFERENCE, x, 1),
    "sample_simultaneous.n": lambda x: sample_simultaneous(_PSI, 0.3, x, 1),
    "visibility_oracle.grid_n": lambda x: visibility_oracle(pure_state(0.5), x),
}


BAD_SCALARS = {
    "nan": math.nan, "+inf": math.inf, "-inf": -math.inf, "10**400": 10**400,
    "None": None, "str": "abc", "1j": 1j, "ragged": [[0.1], [0.2, 0.3]], "object": object(),
    # NumPy complex values, whose float() would drop the imaginary part, zero or not
    "complex128": np.complex128(0.5), "complex64": np.complex64(0.5), "complex-array": np.array(0.5 + 0j),
}
COMPLEX = ("1j", "complex128", "complex64", "complex-array")
# is_residual's lam is complex, so a complex is a lam it takes
BAD_CALLS = [
    (entry, value) for entry in sorted(SCALAR_ENTRY_POINTS) for value in BAD_SCALARS
    if entry != "is_residual.lam" or value not in COMPLEX
]


@pytest.mark.parametrize("entry, value", BAD_CALLS, ids=[f"{entry}-{value}" for entry, value in BAD_CALLS])
def test_non_finite_scalars_raise_parameter_error(entry, value):
    # the message names the argument: the row's name, up to a qualifier after "-"
    with pytest.raises(ParameterError, match=re.escape(entry.split(".")[1].split("-")[0])):
        SCALAR_ENTRY_POINTS[entry](BAD_SCALARS[value])


# The rows above that build stacked values, each named for the stacked form of the closed form it checks: a state,
# its duality quantities, a family member, the family's duality quantities and an entangled state, each on arrays.
STACKED_ROWS = {"validate_density", "duality_arrays", "complementary_matrices", "family_arrays", "entangled_arrays"}
# The public functions and classes that take no float, so need no row above: they take library objects checked where
# they were built, or suite names, levels and integer seeds (any integer seed is taken modulo 2**64).
TAKES_NO_FLOAT = {
    "distinguishability", "entangled_visibility", "estimate_a", "mean_var", "predictability", "robertson", "visibility",
    "render_report", "run_suite", "run_suites",
}
# The types that public functions return, holding what those functions checked or computed. EntangledState is not
# one of them: it checks its own parameters, so it has rows above.
RETURN_TYPES = {"IntelligentState", "RobertsonReport", "SampleReport", "SuiteResult"}


def test_every_public_entry_point_of_a_float_has_a_row():
    public = {name: getattr(qudual, name) for name in qudual.__all__}
    entry_points = {
        name for name, obj in public.items()
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert TAKES_NO_FLOAT | RETURN_TYPES <= entry_points
    rows = {entry.split(".")[0] for entry in SCALAR_ENTRY_POINTS}
    assert STACKED_ROWS <= rows and not STACKED_ROWS & set(public)
    assert sorted(entry_points - TAKES_NO_FLOAT - RETURN_TYPES) == sorted(rows - STACKED_ROWS)


# Each value fails its bound before any draw or allocation.
SIZE_BOUNDS = {
    "sample_sharp.n": (SCALAR_ENTRY_POINTS["sample_sharp.n"], 1, MAX_SHOTS, "n"),
    "sample_simultaneous.n": (SCALAR_ENTRY_POINTS["sample_simultaneous.n"], 1, MAX_SHOTS, "n"),
    "sample_fringe.n_per_point": (SCALAR_ENTRY_POINTS["sample_fringe.n_per_point"], 1, MAX_SHOTS, "n_per_point"),
    "visibility_oracle.grid_n": (SCALAR_ENTRY_POINTS["visibility_oracle.grid_n"], 8, MAX_GRID_N, "grid_n"),
}


@pytest.mark.parametrize("entry", sorted(SIZE_BOUNDS))
def test_sizes_past_their_bound_raise_parameter_error(entry):
    call, low, bound, name = SIZE_BOUNDS[entry]
    for value in (bound + 1, low - 1):
        message = f"{name} = {value} violates the bound {low} <= {name} <= {bound:g}"
        with pytest.raises(ParameterError, match=re.escape(message) + "$"):
            call(value)


@pytest.mark.parametrize("entry", sorted(SIZE_BOUNDS))
def test_sizes_that_are_not_whole_raise_parameter_error(entry):
    call, low, bound, name = SIZE_BOUNDS[entry]
    for value in (low + 1.5, low + 0.999, bound - 0.5):
        message = f"{name} = {value!r} violates the bound {name} in {{{low}, ..., {bound:g}}}"
        with pytest.raises(ParameterError, match=re.escape(message) + "$"):
            call(value)
    # a whole float is the same count as the int
    assert repr(call(float(low + 1))) == repr(call(low + 1))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("mc", "--c", "0.5", "--n", str(MAX_SHOTS + 1)), f"n = {MAX_SHOTS + 1} violates the bound 1 <= n <= {MAX_SHOTS:g}"),
        (("mc", "--c", "0.5", "--n", str(10**30)), f"n = {10**30} violates the bound 1 <= n <= {MAX_SHOTS:g}"),
        (("mc", "--c", "0.5", "--n", str(10**400)), f"n = inf violates the bound 1 <= n <= {MAX_SHOTS:g}"),
        (
            ("sweep", "--figure", "1", "--points", str(MAX_SWEEP_POINTS + 1)),
            f"--points = {MAX_SWEEP_POINTS + 1} violates the bound 2 <= --points <= {MAX_SWEEP_POINTS:g}",
        ),
    ],
    ids=["mc-n", "mc-n-1e30", "mc-n-1e400", "sweep-points"],
)
def test_cli_sizes_past_their_bound_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_compute_and_meter_readout_skip_the_cross_check_routes(capsys, count_calls):
    entangles = count_calls(EntangledState, "__init__")
    reports = count_calls(verify, "minimum_product_routes")
    searches = count_calls(verify, "_golden_minimize")
    code, _, err = run(capsys, "compute", "--w-plus", "0.9", "--pure", "--theta", "0.3", "--c", "0.5")
    assert code == 0, err
    assert len(entangles) == 1
    assert reports == [] and searches == []
    meter_projectors(0.6)
    assert len(entangles) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--w-plus", "0.9", "--pure", "--theta", "0.3", "--c", "0.5"),
        ("compute", "--w-plus", "0.7", "--rho12", "0.3", "--theta", "1.1"),
        ("mc", "--n", "100000"),
    ],
    ids=["compute-pure-c", "compute-rho12", "mc"],
)
def test_one_state_commands_lay_out_no_array_and_read_none_back(capsys, count_calls, argv):
    # states, observables and entangled states keep the parts their kernels read
    calls = {name: count_calls(linalg, name) for name in ("_entries", "_parts", "_from_entries")}
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert calls == {"_entries": [], "_parts": [], "_from_entries": []}


def test_residual_of_one_state_lays_out_no_array_and_reads_none_back(count_calls):
    # is_residual hands the parts of the state, its amplitudes and the pair to the kernel
    calls = {name: count_calls(linalg, name) for name in ("_entries", "_parts", "_from_entries")}
    residual = is_residual(pure_state(0.3, 0.5), 0.3 + 0.1j, REFERENCE, complementary_observable(0.7))
    assert type(residual) is float
    assert calls == {"_entries": [], "_parts": [], "_from_entries": []}


# The complementary readout's variance holds 1 / c**2, which overflows at an underflowing c;
# the b_value rows put 1 / c just past its bound.
_PAST_RESCALE_BOUND = EntangledState(0.9, 0.3, 0.99 / MAX_RESCALED_VALUE)

HUGE_GAUGES = {
    "estimate_b.b_value": (lambda: estimate_b(_PAST_RESCALE_BOUND, 0.3), "1 / c"),
    "sample_simultaneous.b_value": (lambda: sample_simultaneous(_PAST_RESCALE_BOUND, 0.3, 10, 1), "1 / c"),
    "estimate_b.underflowing_c": (lambda: estimate_b(EntangledState(0.9, 0.3, 1e-200), 0.3), "1 / c"),
    "sample_simultaneous.underflowing_c": (
        lambda: sample_simultaneous(EntangledState(0.9, 0.3, 1e-200), 0.3, 10, 1), "1 / c"
    ),
}


@pytest.mark.parametrize("entry", sorted(HUGE_GAUGES))
def test_huge_gauges_raise_parameter_error(entry):
    call, bound = HUGE_GAUGES[entry]
    with pytest.raises(ParameterError, match=f"violates the bound {re.escape(bound)} <= 1.34078e\\+154"):
        call()


# The b-side outcome value 0.5 / c passes the rescale bound, 1.34e154, but not this one.
@pytest.mark.parametrize("c", [1e-100, 0.99 * GAUGE / MAX_SAMPLED_VALUE], ids=["b_value", "b_value-just-past"])
def test_sampled_outcome_values_keep_a_finite_fourth_moment(c):
    message = f"readout_b outcome value magnitude {GAUGE / c!r} violates the bound |value| <= 5.7896e+76"
    with pytest.raises(ParameterError, match=re.escape(message)):
        sample_simultaneous(EntangledState(0.9, 0.3, c), 0.3, 10, 1)


# Overlaps from 0.5 / MAX_RESCALED_VALUE up to the double below 1 / MAX_RESCALED_VALUE: there the rescaled value
# 0.5 / c is finite, but the 1 / c**2 of the variance overflows. The bound's own edge passes with a finite variance.
INVERSE_SQUARE_BAND = [GAUGE / MAX_RESCALED_VALUE, 5e-155, math.nextafter(1.0 / MAX_RESCALED_VALUE, 0.0)]


@pytest.mark.parametrize("c", INVERSE_SQUARE_BAND, ids=["lowest", "5e-155", "highest"])
def test_an_overlap_whose_inverse_square_overflows_raises_for_one_state_and_a_stack(capsys, c):
    message = f"c = {c!r} violates the bound 1 / c <= 1.34078e+154: "
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
        estimate_b(EntangledState(0.9, 0.3, c), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
            estimate_b(EntangledState(0.9, 0.3, np.array([0.5, 0.2, c, 0.7])), 0.3)
    code, out, err = run(capsys, "compute", "--w-plus", "0.9", "--pure", "--theta", "0.3", "--c", repr(c))
    assert (code, out) == (2, "") and err.startswith(f"error: {message}")
    edge = 1.0 / MAX_RESCALED_VALUE
    assert math.isfinite(estimate_b(EntangledState(0.9, 0.3, edge), 0.3)[1])


def test_product_at_an_underflowing_overlap_is_the_limit():
    assert simultaneous_product(0.9, 1e-200) == math.inf
    assert simultaneous_product(1.0, 1e-200) == 0.0625


def test_compute_at_an_underflowing_overlap_exits_2(capsys):
    code, out, err = run(capsys, "compute", "--w-plus", "0.9", "--pure", "--c", "1e-200")
    assert code == 2 and out == ""
    assert err.startswith("error: c = 1e-200 violates the bound 1 / c <= 1.34078e+154: ")


PARSER_ARGVS = [["--help"], ["compute", "--help"], ["compute"], ["sweep", "--figure", "2"], ["bogus"]]


@pytest.mark.parametrize("argv", PARSER_ARGVS)
def test_parser_is_built_once_and_answers_alike(capsys, argv):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        texts.append((exit_info.value.code, captured.out, captured.err))
    assert texts[0] == texts[1]
    assert texts[0][1].startswith("usage: qudual") or texts[0][2].startswith("usage: qudual")
    assert _build_parser() is _build_parser()


def test_compute_sweep_and_mc_outputs_keep_their_pinned_digests(output_digests):
    # every call of tools/output_digest.py but verify, whose reports test_verify pins
    digest_tool, pinned = output_digests
    argvs = [argv for argv in digest_tool.calls() if argv[0] != "verify"]
    assert len(argvs) == 334
    lines = []
    for argv in argvs:
        code, digest = digest_tool.run(argv)
        lines.append(f"{digest}  {code}  {' '.join(argv)}")
    assert lines == [pinned[" ".join(argv)] for argv in argvs]


def test_python_dash_m_runs_the_command_line(output_digests):
    digest_tool, pinned = output_digests
    root = Path(digest_tool.__file__).resolve().parents[1]
    argv = digest_tool.CONDITIONING_EDGES[1]
    env = {key: value for key, value in os.environ.items() if key != "QUDUAL_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    child = subprocess.run(
        [sys.executable, "-m", "qudual", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    digest = hashlib.sha256(f"{child.returncode}\0{child.stdout}\0{child.stderr}".encode()).hexdigest()
    assert f"{digest}  {child.returncode}  {' '.join(argv)}" == pinned[" ".join(argv)]


@pytest.mark.parametrize("argv", [
    ["compute", "--w-plus", "0.3", "--pure", "--c", "0.6"],
    ["sweep", "--figure", "1", "--points", "2001"],
    ["verify", "--level", "fast"],
    ["mc", "--n", "1000"],
], ids=lambda argv: argv[0])
def test_a_closed_pipe_exits_4_without_a_traceback(argv):
    assert _run_into_a_closed_pipe(argv) == (4, "")


def test_a_closed_pipe_keeps_the_exit_code_of_a_failed_check():
    # The corrupted suite's report fits in stdout's buffer, so the pipe breaks only at main's flush, after the code is known.
    assert _run_into_a_closed_pipe(["verify", "--level", "fast", "--selftest-corrupt"]) == (1, "")


def _run_into_a_closed_pipe(argv):
    """The exit code and stderr of ``qudual argv`` whose stdout is a pipe with no reader."""
    # The read end closes before the child starts, so its first write always meets a broken pipe.
    # Stdout is block-buffered, as for any pipe unless PYTHONUNBUFFERED is set.
    root = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "qudual", *argv], env={**env, "PYTHONPATH": str(root / "src")},
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    return child.returncode, child.stderr


# The digest lines of compute, sweep and mc, printed by a child process; the
# tool's own path is the one argument.
_DIGEST_CHILD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("output_digest", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
for argv in tool.calls():
    if argv[0] != "verify":
        code, digest = tool.run(argv)
        print(f"{digest}  {code}  {' '.join(argv)}")
"""

# OpenBLAS kernels by CPU generation, and NumPy's dispatch cut back to its
# X86_V2 baseline (no AVX2, FMA or AVX-512 loops).
PORTABILITY_SETTINGS = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-skylakex": {"OPENBLAS_CORETYPE": "SkylakeX"},
    "numpy-x86-v2": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
}


@pytest.mark.parametrize("setting", list(PORTABILITY_SETTINGS.values()), ids=list(PORTABILITY_SETTINGS))
def test_pinned_outputs_do_not_depend_on_the_blas_kernel_or_simd_level(output_digests, setting):
    """Every compute, sweep and mc digest holds under another OpenBLAS kernel or NumPy SIMD level.

    Each setting is an environment variable of a child process, so it acts on
    that child alone. The kernels are ``+ - * / sqrt`` on entry parts, which
    IEEE 754 rounds alike everywhere, and nothing on these paths calls a BLAS
    product. The settings act on an x86-64 host with AVX-512 and NumPy's
    scipy-openblas: there, the same calls through stacked complex ``@``
    kernels move 140 to 154 of these lines under the OpenBLAS settings and 29
    under the NumPy one. This cannot show how a setting behaves on a CPU that
    lacks the kernel or the feature it names, nor with a NumPy built against
    another BLAS, where ``OPENBLAS_CORETYPE`` does nothing.
    """
    digest_tool, pinned = output_digests
    root = Path(digest_tool.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "QUDUAL_SEED"}
    env.update(setting, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    child = subprocess.run(
        [sys.executable, "-c", _DIGEST_CHILD, digest_tool.__file__],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    argvs = [argv for argv in digest_tool.calls() if argv[0] != "verify"]
    assert child.stdout.splitlines() == [pinned[" ".join(argv)] for argv in argvs]


# Every command exits 0, 1 or 2 at the edges of its arguments, raises and warns nothing, and prints no NaN when it
# succeeds. Each edge is a string as a user types it.
W_ARGV_EDGES = ["0", "5e-324", "1e-300", repr(0.5 - 2.0**-53), "0.5", repr(1.0 - 2.0**-53), "1", "-0.0", "nan", "inf",
                "-1", "1.5"]
THETA_ARGV_EDGES = ["0", repr(math.pi / 2.0), "1e308", "-1e308", "nan", "inf"]
C_ARGV_EDGES = ["0", "5e-324", "1e-300", "5e-155", "0.5", repr(1.0 - 2.0**-53), "1", "-0.0", "nan", "inf", "-1", "1.5"]
RHO12_ARGV_EDGES = ["0", "5e-324", "1e-300", "0.25", repr(0.5 - 2.0**-53), "0.5", "0.5000000000001", "0.50001",
                    "-0.0", "-1e-300", "nan", "inf"]
N_ARGV_EDGES = ["0", "1", "1000", str(10**12), str(10**12 + 1)]

# Each value joins its option with "=", as a value that starts with "-" and holds an "e" would read as an option.
ARGV_EDGE_GRIDS = {
    "compute-pure-c": [
        *(f"compute --w-plus={w} --pure --theta={t} --c={c}" for w in W_ARGV_EDGES for t in THETA_ARGV_EDGES
          for c in C_ARGV_EDGES),
        *(f"compute --w-plus=0.9 --pure --theta=0.3 --varrho={t} --c=0.5" for t in THETA_ARGV_EDGES),
    ],
    "compute-rho12": [
        f"compute --w-plus={w} --rho12={r} --theta={t}" for w in W_ARGV_EDGES for r in RHO12_ARGV_EDGES
        for t in THETA_ARGV_EDGES
    ],
    "mc": [
        *(f"mc --w-plus={w} --c={c} --n=1000" for w in W_ARGV_EDGES for c in C_ARGV_EDGES),
        *(f"mc --w-plus={w} --theta={t} --c=0.5 --n={n}" for w in [*W_ARGV_EDGES, "0.9"] for t in THETA_ARGV_EDGES
          for n in N_ARGV_EDGES),
        *(f"mc --theta={t} --varrho={t} --n=1000" for t in THETA_ARGV_EDGES),
    ],
    "sweep": [f"sweep --figure={figure} --points={n}" for figure in (1, 3) for n in N_ARGV_EDGES],
    "verify": [
        *(f"verify --level={level} --seed=42" for level in ("bad", "")),
        *(f"verify --seed={seed}" for seed in ("-1", "0", str(2**63), str(2**64), "1.5", "nan", "inf")),
        *(f"verify --level={level} --seed=42 --selftest-corrupt" for level in ("fast", "full")),
    ],
}


@pytest.mark.parametrize("command", list(ARGV_EDGE_GRIDS))
def test_commands_at_their_argument_edges_exit_cleanly(capsys, monkeypatch, command):
    # An argument the parser refuses exits 2 through SystemExit, with the parser's "error: " message.
    monkeypatch.delenv("QUDUAL_SEED", raising=False)
    failures = []
    for argv in ARGV_EDGE_GRIDS[command]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv.split())
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        clean = "Traceback" not in out + err and (code != 2 or "error: " in err)
        if code not in (0, 1, 2) or (code == 0 and "nan" in out.lower()) or not clean:
            failures.append((argv, code))
    assert failures == []


# Beyond the edge grids and the parser's own argument vectors, three that the top-level parse answers: an argument
# the command leaves over, a "--" before the command name, and a command's help.
ROUTE_ARGVS = [
    *(argv.split() for grid in ARGV_EDGE_GRIDS.values() for argv in grid),
    *PARSER_ARGVS,
    ["compute", "--w-plus", "0.3", "--pure", "extra"],
    ["--", "compute", "--w-plus", "0.3", "--pure"],
    ["compute", "-h"],
]


def _answer(capsys, argv):
    """The exit code, stdout and stderr of ``main(argv)``, whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_a_command_parser_answers_as_the_top_level_parse(capsys, monkeypatch):
    # main hands a command's arguments to that command's parser; with no command to look up, every argument vector
    # takes the top-level parse, and each must answer alike, byte for byte.
    monkeypatch.delenv("QUDUAL_SEED", raising=False)
    answers = [_answer(capsys, argv) for argv in ROUTE_ARGVS]
    _, commands = _build_parser()
    for name in list(commands):
        monkeypatch.delitem(commands, name)
    mismatches = [argv for argv, answer in zip(ROUTE_ARGVS, answers) if _answer(capsys, argv) != answer]
    assert mismatches == []
    assert len(ROUTE_ARGVS) == 2303 and {code for code, _, _ in answers} == {0, 1, 2}
